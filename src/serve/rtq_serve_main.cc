// rtq_serve: the long-running serve-mode driver (docs/SERVE.md).
//
// Steps an engine indefinitely — at max speed or wall-clock paced — while
// accepting live control commands (see serve/control.h) from stdin or a
// --cmds script, streaming metrics JSON lines to stdout, and supporting
// deterministic snapshot/restore mid-flight.
//
//   rtq_serve [--workload=SPEC] [--policy=SPEC] [--seed=N]
//             [--shards=N]                engine::ShardedRtdbs shard count
//                                         (default 1); more than one
//                                         streams a metrics line per shard
//             [--placement=SPEC]          hash | range | skew:hot=F
//             [--admission=SPEC]          local | global:mpl=N
//             [--restore=PATH]            start from a `.rtqs` snapshot,
//                                         whose genesis governs: the six
//                                         genesis flags above are refused
//             [--cmds=PATH]               scripted mode: execute commands,
//                                         then exit (errors exit 2)
//             [--pace=R]                  R >= 0 simulated seconds per
//                                         wall second; 0 = max speed
//                                         (default)
//             [--metrics-every=N]         metrics line every N events
//                                         (default 20000; 0 = off)
//             [--max-events=N]            stop after N events (0 = no cap)
//             [--bench-json=DRIVER]       write results/BENCH_<DRIVER>.json
//                                         on exit (zero-drift CI gate)
//
// Streams: metrics JSON lines -> stdout; human-readable acks, stats and
// errors -> stderr. Exit 0 on a clean quit/EOF/cap, 2 on a fatal error
// (bad or out-of-range flags, unreadable snapshot, scripted-mode command
// failure).

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/spec.h"
#include "harness/args.h"
#include "harness/bench_json.h"
#include "harness/metrics_streamer.h"
#include "serve/control.h"
#include "serve/serve_session.h"

namespace {

using rtq::Status;
using rtq::serve::Command;
using rtq::serve::ServeSession;
using rtq::serve::SessionSpec;
using rtq::serve::Snapshot;

/// Events stepped between control-channel polls; small enough that a
/// live command takes effect within milliseconds at max speed.
constexpr uint64_t kBatchEvents = 4096;

double WallNow() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ServeState {
  std::unique_ptr<ServeSession> session;
  /// One streamer per shard, so each shard's delta baselines advance
  /// independently.
  std::vector<rtq::harness::MetricsStreamer> streamers;
  int64_t metrics_every = 20000;
  uint64_t next_metrics = 0;
  uint64_t max_events = 0;  ///< 0 = uncapped
  bool quit = false;

  void ResetStreamer() {
    // A restored session replays history from event zero, so the delta
    // baselines must restart too.
    streamers.clear();
    const int32_t shards = session->cluster().num_shards();
    for (int32_t s = 0; s < shards; ++s) {
      // One-shard lines carry no v3 shard fields.
      streamers.emplace_back(stdout, shards > 1 ? s : -1);
    }
    next_metrics =
        metrics_every > 0
            ? (session->events() / metrics_every + 1) *
                  static_cast<uint64_t>(metrics_every)
            : 0;
  }

  void EmitMetrics() {
    for (size_t s = 0; s < streamers.size(); ++s) {
      streamers[s].Emit(session->cluster().shard(static_cast<int32_t>(s)),
                        WallNow());
    }
  }

  bool AtCap() { return max_events > 0 && session->events() >= max_events; }

  /// Steps up to `n` events (respecting the --max-events cap), emitting
  /// metrics lines as event thresholds are crossed. Returns the number
  /// of events actually dispatched.
  uint64_t Step(uint64_t n) {
    uint64_t total = 0;
    while (total < n && !AtCap()) {
      uint64_t want = std::min(n - total, kBatchEvents);
      if (max_events > 0)
        want = std::min(want, max_events - session->events());
      uint64_t got = session->RunEvents(want);
      total += got;
      while (metrics_every > 0 && session->events() >= next_metrics) {
        EmitMetrics();
        next_metrics += static_cast<uint64_t>(metrics_every);
      }
      if (got < want) break;  // calendar drained
    }
    return total;
  }
};

void PrintStats(ServeState& state) {
  rtq::engine::ShardedRtdbs& cluster = state.session->cluster();
  rtq::engine::SystemSummary s = cluster.Summarize();
  std::fprintf(stderr,
               "stats: t=%.3f events=%" PRIu64
               " shards=%d completed=%lld missed=%lld miss_ratio=%.4f "
               "avg_mpl=%.2f policy=%s\n",
               cluster.Now(), state.session->events(), cluster.num_shards(),
               static_cast<long long>(s.overall.completions),
               static_cast<long long>(s.overall.misses), s.overall.miss_ratio,
               s.avg_mpl, cluster.shard(0).policy().Describe().c_str());
  for (int32_t sh = 0; sh < cluster.num_shards(); ++sh) {
    rtq::engine::Rtdbs& shard = cluster.shard(sh);
    rtq::engine::SystemSummary ss = shard.Summarize();
    std::fprintf(stderr,
                 "stats: shard=%d live=%lld completed=%lld missed=%lld "
                 "miss_ratio=%.4f routed_elsewhere=%lld\n",
                 sh, static_cast<long long>(shard.live_queries()),
                 static_cast<long long>(ss.overall.completions),
                 static_cast<long long>(ss.overall.misses),
                 ss.overall.miss_ratio,
                 static_cast<long long>(shard.routed_elsewhere()));
  }
}

/// Executes one parsed command. Returns Ok, or the failure for the
/// caller to report (scripted mode treats any failure as fatal).
Status Execute(ServeState& state, const Command& cmd) {
  switch (cmd.kind) {
    case Command::Kind::kNop:
      return Status::Ok();
    case Command::Kind::kRun: {
      uint64_t got = state.Step(cmd.count);
      if (got < cmd.count)
        return Status::Internal("run: event calendar drained after " +
                                std::to_string(got) + " events");
      return Status::Ok();
    }
    case Command::Kind::kPolicy:
    case Command::Kind::kScenario: {
      const bool policy = cmd.kind == Command::Kind::kPolicy;
      auto canonical = policy ? state.session->ApplyPolicy(cmd.arg)
                              : state.session->ApplyScenario(cmd.arg);
      if (!canonical.ok()) return canonical.status();
      std::fprintf(stderr, "%s: active %s\n", policy ? "policy" : "scenario",
                   canonical.value().c_str());
      return Status::Ok();
    }
    case Command::Kind::kStats:
      PrintStats(state);
      return Status::Ok();
    case Command::Kind::kMetrics:
      state.EmitMetrics();
      return Status::Ok();
    case Command::Kind::kSnapshot: {
      Snapshot snap = state.session->TakeSnapshot();
      Status st = rtq::serve::WriteSnapshotFile(snap, cmd.arg);
      if (!st.ok()) return st;
      std::fprintf(stderr, "snapshot: wrote %s at event %" PRIu64 "\n",
                   cmd.arg.c_str(), snap.position_events);
      return Status::Ok();
    }
    case Command::Kind::kRestore: {
      auto snap = rtq::serve::ReadSnapshotFile(cmd.arg);
      if (!snap.ok()) return snap.status();
      auto restored = ServeSession::Restore(snap.value());
      if (!restored.ok()) return restored.status();
      state.session = std::move(restored).value();
      state.ResetStreamer();
      std::fprintf(stderr, "restore: %s verified at event %" PRIu64 "\n",
                   cmd.arg.c_str(), state.session->events());
      return Status::Ok();
    }
    case Command::Kind::kQuit:
      state.quit = true;
      return Status::Ok();
  }
  return Status::Internal("unreachable command kind");
}

/// Scripted mode: execute the command file top to bottom. Any parse or
/// execution failure is fatal (deterministic CI behavior).
int RunScript(ServeState& state, const std::string& path) {
  rtq::StatusOr<std::string> read = rtq::ReadFileToString(path);
  if (!read.ok()) {
    std::fprintf(stderr, "rtq_serve: --cmds: %s\n",
                 read.status().ToString().c_str());
    return 2;
  }
  std::vector<std::string> lines = rtq::SplitAt(read.value(), '\n');
  if (lines.back().empty()) lines.pop_back();  // after the final newline
  for (size_t i = 0; i < lines.size() && !state.quit; ++i) {
    auto cmd = rtq::serve::ParseCommand(lines[i]);
    Status st = cmd.ok() ? Execute(state, cmd.value()) : cmd.status();
    if (!st.ok()) {
      std::fprintf(stderr, "rtq_serve: %s:%zu: %s\n", path.c_str(), i + 1,
                   st.ToString().c_str());
      return 2;
    }
  }
  return 0;
}

/// Interactive mode: free-run (max speed or paced) while polling stdin
/// for control lines. Command failures are reported and survived — a
/// typo must not take down a long-running server. Exits on `quit`,
/// stdin EOF, the --max-events cap, or a drained calendar.
int RunInteractive(ServeState& state, double pace) {
  std::string pending;
  bool eof = false;
  const double sim_start = state.session->cluster().Now();
  const double wall_start = WallNow();

  while (!state.quit) {
    // 1) Step the engine.
    uint64_t stepped = 0;
    if (!state.AtCap()) {
      uint64_t want = kBatchEvents;
      if (pace > 0.0) {
        // Paced: never let the simulated clock outrun
        // sim_start + pace * elapsed wall seconds.
        double target = sim_start + pace * (WallNow() - wall_start);
        if (state.session->cluster().Now() >= target) want = 0;
      }
      if (want > 0) stepped = state.Step(want);
      if (want > 0 && stepped == 0) {
        std::fprintf(stderr, "rtq_serve: event calendar drained\n");
        break;
      }
    }
    if (state.AtCap() && eof) break;

    // 2) Poll the control channel. Block only when there is nothing to
    // step (paced and ahead of schedule, or at the event cap).
    if (!eof) {
      struct pollfd pfd;
      pfd.fd = STDIN_FILENO;
      pfd.events = POLLIN;
      int timeout_ms = (stepped == 0 || state.AtCap()) ? 50 : 0;
      int rc = poll(&pfd, 1, timeout_ms);
      if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
        char buf[4096];
        ssize_t got = read(STDIN_FILENO, buf, sizeof(buf));
        if (got <= 0) {
          eof = true;
          if (state.max_events == 0) break;
        } else {
          pending.append(buf, static_cast<size_t>(got));
        }
      }
      size_t nl;
      while (!state.quit && (nl = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, nl);
        pending.erase(0, nl + 1);
        auto cmd = rtq::serve::ParseCommand(line);
        Status st = cmd.ok() ? Execute(state, cmd.value()) : cmd.status();
        if (!st.ok())
          std::fprintf(stderr, "rtq_serve: %s\n", st.ToString().c_str());
      }
    } else if (state.AtCap()) {
      break;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  WallNow();  // pin the wall-clock epoch to process start
  rtq::harness::ArgParser args(argc, argv);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::string restore_path = args.String("restore", "");
  SessionSpec spec;
  if (restore_path.empty()) {
    // A snapshot's recorded genesis governs a restored session, so the
    // genesis flags are read only without --restore; given alongside
    // it, they stay unconsumed and Finish() refuses them.
    spec.workload = args.String("workload", spec.workload);
    spec.policy = args.String("policy", spec.policy);
    spec.seed = static_cast<uint64_t>(args.Int("seed", 42, 0, kMax));
    spec.shards = static_cast<int32_t>(
        args.Int("shards", 1, 1, std::numeric_limits<int32_t>::max()));
    spec.placement = args.String("placement", spec.placement);
    spec.admission = args.String("admission", spec.admission);
  }
  std::string cmds_path = args.String("cmds", "");
  double pace = args.Double("pace", 0.0, 0.0);
  ServeState state;
  state.metrics_every = args.Int("metrics-every", 20000, 0, kMax);
  state.max_events = static_cast<uint64_t>(args.Int("max-events", 0, 0, kMax));
  std::string bench_json = args.String("bench-json", "");
  Status flag_status = args.Finish();
  if (!flag_status.ok()) {
    std::fprintf(stderr, "rtq_serve: %s\n", flag_status.ToString().c_str());
    return 2;
  }

  if (!restore_path.empty()) {
    auto snap = rtq::serve::ReadSnapshotFile(restore_path);
    if (!snap.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n", snap.status().ToString().c_str());
      return 2;
    }
    auto restored = ServeSession::Restore(snap.value());
    if (!restored.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n",
                   restored.status().ToString().c_str());
      return 2;
    }
    state.session = std::move(restored).value();
    std::fprintf(stderr, "rtq_serve: restored %s at event %" PRIu64 "\n",
                 restore_path.c_str(), state.session->events());
  } else {
    auto created = ServeSession::Create(spec);
    if (!created.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    state.session = std::move(created).value();
  }
  state.ResetStreamer();

  int rc = cmds_path.empty() ? RunInteractive(state, pace)
                             : RunScript(state, cmds_path);

  // Final metrics line so the stream always ends with the exit state.
  if (state.metrics_every > 0) state.EmitMetrics();

  if (rc == 0 && !bench_json.empty()) {
    rtq::harness::BenchJsonEmitter emitter(bench_json);
    rtq::engine::ShardedRtdbs& cluster = state.session->cluster();
    emitter.AddPoint(state.session->session_spec().workload,
                     cluster.shard(0).policy().Describe(), /*lambda=*/0.0,
                     cluster.Summarize(), WallNow());
    Status st = emitter.WriteFile(WallNow());
    if (!st.ok()) {
      std::fprintf(stderr, "rtq_serve: %s\n", st.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "rtq_serve: wrote %s\n", emitter.path().c_str());
  }
  return rc;
}
