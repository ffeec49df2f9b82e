// Tours the serve-mode API (docs/SERVE.md) in-process: boot a session,
// reconfigure it live, snapshot, restore, and prove the restored session
// continues bit-identically — the same machinery the rtq_serve binary
// drives from its control channel.
//
//   $ ./build/examples/serve_session
//
// The walk: start the two-class multiclass workload under plain PMM,
// hot-swap to the bandit selector (select:candidates=pmm+pmm-predict),
// inject a flash-crowd scenario, snapshot to a `.rtqs` file, keep
// running, then restore the snapshot into a fresh session and replay the
// same continuation — finishing with the digest comparison that the
// serve-mode tests and CI gate enforce for every policy.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/metrics_streamer.h"
#include "serve/serve_session.h"

using rtq::serve::ServeSession;
using rtq::serve::SessionSpec;
using rtq::serve::Snapshot;

namespace {

void Banner(const char* text) { std::printf("\n=== %s ===\n", text); }

void PrintState(ServeSession& session) {
  rtq::engine::Rtdbs& sys = session.cluster().shard(0);
  std::printf("  t=%8.1fs  events=%-7llu  live=%-3lld  policy=%s\n",
              sys.simulator().Now(),
              static_cast<unsigned long long>(session.events()),
              static_cast<long long>(sys.live_queries()),
              sys.policy().Describe().c_str());
}

}  // namespace

int main() {
  Banner("boot: multiclass workload, plain PMM");
  SessionSpec spec;
  spec.workload = "multiclass:rate=0.1";
  spec.policy = "pmm";
  spec.seed = 42;
  auto created = ServeSession::Create(spec);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ServeSession> session = std::move(created).value();
  session->RunEvents(20000);
  PrintState(*session);

  Banner("live reconfig: swap to the bandit policy selector");
  auto swap = session->ApplyPolicy("select:candidates=pmm+pmm-predict");
  if (!swap.ok()) {
    std::fprintf(stderr, "%s\n", swap.status().ToString().c_str());
    return 1;
  }
  std::printf("  active: %s\n", swap.value().c_str());
  session->RunEvents(20000);
  PrintState(*session);

  Banner("live reconfig: inject a flash crowd");
  auto scenario = session->ApplyScenario("flash:mult=6");
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("  active: %s\n", scenario.value().c_str());
  session->RunEvents(10000);
  PrintState(*session);

  Banner("snapshot mid-flight");
  Snapshot snapshot = session->TakeSnapshot();
  const std::string path = "results/serve_session_example.rtqs";
  rtq::Status wrote = rtq::serve::WriteSnapshotFile(snapshot, path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }
  std::printf("  wrote %s (position %llu, %zu journal entries)\n",
              path.c_str(),
              static_cast<unsigned long long>(snapshot.position_events),
              snapshot.journal.size());

  Banner("continue the original for 15000 more events");
  session->RunEvents(15000);
  PrintState(*session);

  Banner("restore the snapshot into a fresh session");
  auto read = rtq::serve::ReadSnapshotFile(path);
  if (!read.ok()) {
    std::fprintf(stderr, "%s\n", read.status().ToString().c_str());
    return 1;
  }
  auto restored = ServeSession::Restore(read.value());
  if (!restored.ok()) {
    std::fprintf(stderr, "%s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("  digest verified at event %llu; continuing 15000 events\n",
              static_cast<unsigned long long>(restored.value()->events()));
  restored.value()->RunEvents(15000);
  PrintState(*restored.value());

  Banner("proof: both trajectories are bit-identical");
  std::vector<std::string> a;
  std::vector<std::string> b;
  session->cluster().AppendStateDigest(&a);
  restored.value()->cluster().AppendStateDigest(&b);
  if (a != b) {
    std::printf("  DIVERGED (%zu vs %zu digest lines)\n", a.size(), b.size());
    return 1;
  }
  std::printf("  %zu digest lines, all equal\n", a.size());

  Banner("one metrics line (the rtq_serve stream format)");
  rtq::harness::MetricsStreamer streamer(stdout);
  streamer.Emit(restored.value()->cluster().shard(0), 0.0);
  return 0;
}
