// serve/snapshot + serve/serve_session: the `.rtqs` format and the
// headline serve-mode invariant — restore-then-continue is bit-identical
// to an uninterrupted run, for every registered policy, with and without
// mid-run policy/scenario swaps in the journal, and for sharded sessions.

#include "serve/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/policy_registry.h"
#include "gtest/gtest.h"
#include "serve/serve_session.h"
#include "workload/scenario.h"

namespace rtq::serve {
namespace {

Snapshot SampleSnapshot() {
  Snapshot snap;
  snap.session.workload = "multiclass:rate=0.1";
  snap.session.policy = "pmm-fair:w=1,2";
  snap.session.seed = 7;
  snap.session.shards = 3;
  snap.session.placement = "skew:hot=0.6";
  snap.session.admission = "global:mpl=6";
  snap.journal.push_back(JournalEntry{1000, "policy", "minmax:10"});
  snap.journal.push_back(
      JournalEntry{2500, "scenario", "flash:rate=0.5,mult=6"});
  snap.position_events = 4000;
  snap.position_time = 1234.5678901234567;
  snap.digest = {"clock 1234.5678901234567", "dispatched 4000",
                 "pending 12 9876543210"};
  return snap;
}

TEST(SnapshotFormat, SerializeParseIsAFixedPoint) {
  Snapshot snap = SampleSnapshot();
  auto parsed = ParseSnapshot(SerializeSnapshot(snap));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), snap);
}

TEST(SnapshotFormat, ParsesCommentsAndBlankLines) {
  auto parsed = ParseSnapshot(
      "# a serve snapshot\n"
      "rtqs 2\n"
      "\n"
      "workload baseline:rate=0.06\n"
      "policy pmm\n"
      "seed 42\n"
      "shards 1\n"
      "placement hash\n"
      "admission local\n"
      "journal 0\n"
      "position 0 0\n"
      "# no digest yet\n"
      "digest 0\n"
      "end\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().session.workload, "baseline:rate=0.06");
  EXPECT_EQ(parsed.value(), Snapshot{});
}

TEST(SnapshotFormat, StructuralViolationsAreStatusErrors) {
  const std::string genesis = "rtqs 2\nworkload w\npolicy p\nseed 42\n";
  const std::string shape = "shards 2\nplacement hash\nadmission local\n";
  const std::string header = genesis + shape;
  // Completes a header into a snapshot that is otherwise well formed.
  const std::string tail = "journal 0\nposition 0 0\ndigest 0\nend\n";
  struct Case {
    const char* label;
    std::string text;
  };
  const Case cases[] = {
      {"empty", ""},
      {"wrong magic", "rtqt 1\n"},
      {"version 1", "rtqs 1\nworkload w\npolicy p\nseed 42\n" + tail},
      {"future version", "rtqs 3\n"},
      {"missing workload", "rtqs 2\npolicy p\n"},
      {"bad seed", "rtqs 2\nworkload w\npolicy p\nseed -1\n"},
      {"seed past 2^64", "rtqs 2\nworkload w\npolicy p\n"
                         "seed 99999999999999999999\n" + shape + tail},
      {"zero shards", genesis + "shards 0\n"
                      "placement hash\nadmission local\n" + tail},
      {"shards past 2^31", genesis + "shards 4294967297\n"
                           "placement hash\nadmission local\n" + tail},
      {"missing placement", genesis + "shards 2\nadmission local\n" + tail},
      {"bad journal count", header + "journal many\n"},
      {"truncated journal", header + "journal 2\n"
                            "j 10 policy pmm\nposition 10 1\n"},
      {"unknown journal command", header + "journal 1\n"
                                  "j 10 restart pmm\n"},
      {"journal going backwards", header + "journal 2\n"
                                  "j 20 policy pmm\nj 10 policy max\n"},
      {"journal past position", header + "journal 1\n"
                                "j 50 policy pmm\nposition 10 1\n"
                                "digest 0\nend\n"},
      {"negative position time", header + "journal 0\n"
                                 "position 10 -1\n"},
      {"truncated digest", header + "journal 0\n"
                           "position 0 0\ndigest 2\ns clock 0\n"},
      {"missing end", header + "journal 0\n"
                      "position 0 0\ndigest 0\n"},
      {"trailing content", header + "journal 0\n"
                           "position 0 0\ndigest 0\nend\nrtqs 1\n"},
  };
  for (const Case& c : cases) {
    auto parsed = ParseSnapshot(c.text);
    EXPECT_FALSE(parsed.ok()) << c.label;
    EXPECT_NE(parsed.status().message().find("line"), std::string::npos)
        << c.label << ": " << parsed.status().message();
  }
}

TEST(SnapshotFormat, FileRoundTripAndMissingFile) {
  Snapshot snap = SampleSnapshot();
  std::string path =
      testing::TempDir() + "/rtq_serve_snapshot_test/roundtrip.rtqs";
  ASSERT_TRUE(WriteSnapshotFile(snap, path).ok());
  auto read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), snap);

  auto missing = ReadSnapshotFile(path + ".does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A full device accepts the buffered write and fails only at close.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_FALSE(WriteSnapshotFile(snap, "/dev/full").ok());
  }
}

// Mirrors TraceFuzz.CorruptedInputNeverCrashes: random mutations and
// truncations of a valid snapshot must parse to a Status or to a value
// that itself round-trips — never crash (the corrupt-snapshot half of
// the Status-not-crash satellite).
TEST(SnapshotFuzz, CorruptedInputNeverCrashes) {
  Rng rng(4242);
  const std::string base = SerializeSnapshot(SampleSnapshot());
  for (int iter = 0; iter < 400; ++iter) {
    std::string text = base;
    if (rng.NextDouble() < 0.5) {
      text.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1)));
    }
    int mutations = static_cast<int>(rng.UniformInt(0, 5));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(rng.UniformInt(9, 126));
    }
    auto parsed = ParseSnapshot(text);
    if (parsed.ok()) {
      auto again = ParseSnapshot(SerializeSnapshot(parsed.value()));
      ASSERT_TRUE(again.ok()) << iter;
      EXPECT_EQ(again.value(), parsed.value()) << iter;
    } else {
      EXPECT_FALSE(parsed.status().message().empty()) << iter;
    }
  }
}

// --- the headline invariant --------------------------------------------

/// Runs `spec` for `before` events, snapshots (through the text format,
/// so serialization is part of the proof), continues `after` events and
/// digests; then restores the snapshot into a fresh session, continues
/// `after` events and digests. Both digests must be identical.
void ExpectZeroDriftRestore(const SessionSpec& spec, uint64_t before,
                            uint64_t after) {
  SCOPED_TRACE(spec.workload + " / " + spec.policy + " / " +
               std::to_string(spec.shards) + " shards, " + spec.admission);
  auto original = ServeSession::Create(spec);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_EQ(original.value()->RunEvents(before), before);

  auto snapshot =
      ParseSnapshot(SerializeSnapshot(original.value()->TakeSnapshot()));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  ASSERT_EQ(original.value()->RunEvents(after), after);
  std::vector<std::string> uninterrupted;
  original.value()->cluster().AppendStateDigest(&uninterrupted);

  auto restored = ServeSession::Restore(snapshot.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value()->RunEvents(after), after);
  std::vector<std::string> resumed;
  restored.value()->cluster().AppendStateDigest(&resumed);

  EXPECT_EQ(uninterrupted, resumed);
}

// Every registered policy, on the baseline workload and on a scenario
// workload: restore-then-continue must be bit-identical to an
// uninterrupted run. New policies join this gate automatically.
TEST(SnapshotProperty, EveryPolicyRestoresWithZeroDrift) {
  std::vector<std::string> policies = core::PolicyRegistry::Global().Names();
  ASSERT_FALSE(policies.empty());
  for (const std::string& policy : policies) {
    SessionSpec baseline;
    baseline.workload = "baseline:rate=0.08";
    baseline.policy = policy;
    ExpectZeroDriftRestore(baseline, 3000, 2000);

    SessionSpec scenario;
    scenario.workload = "scenario:diurnal";
    scenario.policy = policy;
    ExpectZeroDriftRestore(scenario, 3000, 2000);
  }
}

// A sample of every registered scenario (as the boot workload) under the
// paper's PMM policy.
TEST(SnapshotProperty, EveryScenarioRestoresWithZeroDrift) {
  std::vector<std::string> scenarios =
      workload::ScenarioRegistry::Global().Names();
  ASSERT_FALSE(scenarios.empty());
  for (const std::string& scenario : scenarios) {
    SessionSpec spec;
    spec.workload = "scenario:" + scenario;
    spec.policy = "pmm";
    ExpectZeroDriftRestore(spec, 3000, 2000);
  }
}

// The journal replay path: a session with live policy and scenario swaps
// mid-run must restore with zero drift too — the snapshot records the
// swaps at their exact event positions. A swap whose Attach fails changed
// nothing, so it is not journaled. A journaled spec keeps every digit of
// its numbers: %g would print the last margin as "m=1".
TEST(SnapshotProperty, JournaledSwapsRestoreWithZeroDrift) {
  for (int32_t shards : {1, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    SessionSpec spec;
    spec.workload = "multiclass:rate=0.1";
    spec.policy = "pmm";
    spec.shards = shards;
    auto original = ServeSession::Create(spec);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    ServeSession& s = *original.value();

    ASSERT_EQ(s.RunEvents(1500), 1500u);
    auto swap1 = s.ApplyPolicy("select:candidates=pmm+pmm-predict");
    ASSERT_TRUE(swap1.ok()) << swap1.status().ToString();
    ASSERT_EQ(s.RunEvents(1500), 1500u);
    auto swap2 = s.ApplyScenario("flash:mult=6");
    ASSERT_TRUE(swap2.ok()) << swap2.status().ToString();
    ASSERT_EQ(s.RunEvents(1000), 1000u);
    // One target for two classes: pmm-class creates but fails to attach.
    ASSERT_FALSE(s.ApplyPolicy("pmm-class:targets=4").ok());
    ASSERT_EQ(s.RunEvents(1000), 1000u);
    auto swap3 = s.ApplyPolicy("edf-shed:m=1.0000001");
    ASSERT_TRUE(swap3.ok()) << swap3.status().ToString();
    ASSERT_EQ(s.RunEvents(1000), 1000u);

    auto snapshot = ParseSnapshot(SerializeSnapshot(s.TakeSnapshot()));
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_EQ(snapshot.value().journal.size(), 3u);
    EXPECT_EQ(snapshot.value().journal.back().arg, "edf-shed:m=1.0000001");

    ASSERT_EQ(s.RunEvents(2000), 2000u);
    std::vector<std::string> uninterrupted;
    s.cluster().AppendStateDigest(&uninterrupted);

    auto restored = ServeSession::Restore(snapshot.value());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value()->journal(), snapshot.value().journal);
    ASSERT_EQ(restored.value()->RunEvents(2000), 2000u);
    std::vector<std::string> resumed;
    restored.value()->cluster().AppendStateDigest(&resumed);

    EXPECT_EQ(uninterrupted, resumed);
  }
}

// A snapshot whose digest does not match the replayed state must fail
// restore with an error naming the first mismatching line — a corrupt
// or hand-edited snapshot cannot silently produce a diverged session.
// Under global admission that covers the coordinator's counters too.
TEST(SnapshotProperty, TamperedDigestFailsRestore) {
  SessionSpec global;
  global.shards = 2;
  global.admission = "global:mpl=6";
  const struct {
    SessionSpec spec;
    std::string line;  ///< first word of the digest line to tamper with
  } cases[] = {{SessionSpec{}, "clock"}, {global, "coordinator"}};
  for (const auto& c : cases) {
    auto session = ServeSession::Create(c.spec);
    ASSERT_TRUE(session.ok());
    ASSERT_EQ(session.value()->RunEvents(2000), 2000u);
    Snapshot snap = session.value()->TakeSnapshot();
    auto it = std::find_if(
        snap.digest.begin(), snap.digest.end(),
        [&](const std::string& l) { return l.rfind(c.line + " ", 0) == 0; });
    ASSERT_NE(it, snap.digest.end()) << c.line;
    *it = c.line + " 999999";

    auto restored = ServeSession::Restore(snap);
    ASSERT_FALSE(restored.ok()) << c.line;
    EXPECT_NE(restored.status().message().find("digest mismatch"),
              std::string::npos)
        << restored.status().message();
  }
}

// A journal entry whose spec no longer applies (here: a scenario whose
// class count cannot match the session's workload) must fail the replay
// with a Status, not crash.
TEST(SnapshotProperty, UnreplayableJournalFailsRestore) {
  auto session = ServeSession::Create(SessionSpec{});
  ASSERT_TRUE(session.ok());
  ASSERT_EQ(session.value()->RunEvents(2000), 2000u);
  Snapshot snap = session.value()->TakeSnapshot();
  snap.journal.push_back(JournalEntry{1000, "scenario", "flash:mult=6"});
  // Keep the grammar valid: entries must be non-decreasing and within
  // the position, which 1000 <= 2000 satisfies.
  auto restored = ServeSession::Restore(snap);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("journal replay"),
            std::string::npos)
      << restored.status().message();
}

// --- sharded sessions --------------------------------------------------

TEST(ShardedServe, RunsAndAppliesPolicySwapsClusterWide) {
  SessionSpec spec;
  spec.workload = "baseline:rate=0.12";
  spec.policy = "pmm";
  spec.shards = 4;
  spec.placement = "skew:hot=0.6";
  auto session = ServeSession::Create(spec);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session.value()->cluster().num_shards(), 4);

  ASSERT_EQ(session.value()->RunEvents(20000), 20000u);
  EXPECT_EQ(session.value()->events(), 20000u);

  auto swap = session.value()->ApplyPolicy("max");
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  for (int32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(session.value()->cluster().shard(s).policy().Describe(), "max");
  }
  // A rejected spec leaves every shard on the incumbent policy.
  EXPECT_FALSE(session.value()->ApplyPolicy("no-such-policy").ok());
  for (int32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(session.value()->cluster().shard(s).policy().Describe(), "max");
  }
}

// Sharded sessions snapshot like one-shard ones: the genesis carries the
// cluster shape and the digest every shard's state. The load is heavy
// enough that the global cap is full at the snapshot and refuses
// admissions after it.
TEST(ShardedServe, SnapshotRestoresWithZeroDrift) {
  for (const char* admission : {"local", "global:mpl=6"}) {
    SessionSpec spec;
    spec.workload = "baseline:rate=0.48";
    spec.shards = 4;
    spec.placement = "skew:hot=0.6";
    spec.admission = admission;
    ExpectZeroDriftRestore(spec, 20000, 10000);
  }
}

TEST(ShardedServe, RejectsBadShardSpecs) {
  SessionSpec spec;
  spec.shards = 2;
  spec.placement = "roundrobin";
  EXPECT_FALSE(ServeSession::Create(spec).ok());
  spec.placement = "hash";
  spec.admission = "global";
  EXPECT_FALSE(ServeSession::Create(spec).ok());
}

}  // namespace
}  // namespace rtq::serve
