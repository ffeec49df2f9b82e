// serve/control: the live command grammar, plus the engine-level
// guarantees behind it — malformed specs surface as Status errors and
// leave the running system untouched (never a CHECK crash), and a
// failed policy attach rolls back to a fresh incumbent.

#include "serve/control.h"

#include <string>
#include <vector>

#include "engine/rtdbs.h"
#include "gtest/gtest.h"
#include "harness/paper_experiments.h"
#include "serve/serve_session.h"

namespace rtq::serve {
namespace {

StatusOr<Command> Parse(const std::string& line) { return ParseCommand(line); }

TEST(Control, ParsesEveryCommand) {
  auto run = Parse("run 5000");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().kind, Command::Kind::kRun);
  EXPECT_EQ(run.value().count, 5000u);

  auto policy = Parse("policy select:candidates=pmm+pmm-predict");
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy.value().kind, Command::Kind::kPolicy);
  EXPECT_EQ(policy.value().arg, "select:candidates=pmm+pmm-predict");

  auto scenario = Parse("scenario flash:mult=6");
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario.value().kind, Command::Kind::kScenario);
  EXPECT_EQ(scenario.value().arg, "flash:mult=6");

  auto snapshot = Parse("snapshot out/run.rtqs");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().kind, Command::Kind::kSnapshot);
  EXPECT_EQ(snapshot.value().arg, "out/run.rtqs");

  auto restore = Parse("restore out/run.rtqs");
  ASSERT_TRUE(restore.ok());
  EXPECT_EQ(restore.value().kind, Command::Kind::kRestore);

  EXPECT_EQ(Parse("stats").value().kind, Command::Kind::kStats);
  EXPECT_EQ(Parse("metrics").value().kind, Command::Kind::kMetrics);
  EXPECT_EQ(Parse("quit").value().kind, Command::Kind::kQuit);
}

TEST(Control, BlankAndCommentLinesAreNops) {
  EXPECT_EQ(Parse("").value().kind, Command::Kind::kNop);
  EXPECT_EQ(Parse("   \t ").value().kind, Command::Kind::kNop);
  EXPECT_EQ(Parse("# a comment").value().kind, Command::Kind::kNop);
}

TEST(Control, MalformedLinesAreStatusErrorsNotCrashes) {
  const char* bad[] = {
      "run",                       // missing count
      "run zero",                  // non-numeric count
      "run 0",                     // zero count
      "run -5",                    // negative count
      "run 10 extra",              // trailing junk
      "run 99999999999999999999",  // count past 2^64
      "policy",                    // missing spec
      "scenario",                  // missing spec
      "snapshot",                  // missing path
      "restore",                   // missing path
      "stats now",                 // trailing junk on an argument-less command
      "quit 1",                    // trailing junk
      "reboot",                    // unknown keyword
  };
  for (const char* line : bad) {
    auto parsed = Parse(line);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_FALSE(parsed.status().message().empty()) << line;
  }
}

/// Parses `line` with and without a trailing '\r': both must agree.
void ExpectCrlfParsesLikeLf(const std::string& line) {
  SCOPED_TRACE("'" + line + "'");
  auto lf = Parse(line);
  auto crlf = Parse(line + "\r");
  ASSERT_TRUE(lf.ok());
  ASSERT_TRUE(crlf.ok()) << crlf.status().message();
  EXPECT_EQ(crlf.value().kind, lf.value().kind);
  EXPECT_EQ(crlf.value().count, lf.value().count);
  EXPECT_EQ(crlf.value().arg, lf.value().arg);
}

TEST(Control, CrlfLinesParseLikeLfLines) {
  ExpectCrlfParsesLikeLf("run 1000");
  ExpectCrlfParsesLikeLf("policy pmm");
  ExpectCrlfParsesLikeLf("scenario flash:mult=6");
  ExpectCrlfParsesLikeLf("snapshot out/run.rtqs");
  ExpectCrlfParsesLikeLf("restore out/run.rtqs");
  ExpectCrlfParsesLikeLf("stats");
  ExpectCrlfParsesLikeLf("metrics");
  ExpectCrlfParsesLikeLf("quit");
  ExpectCrlfParsesLikeLf("");
  ExpectCrlfParsesLikeLf("# a comment");
  // Only the line ending goes: junk before it is still junk.
  EXPECT_FALSE(Parse("run 10 x\r").ok());
  EXPECT_FALSE(Parse("stats now\r").ok());
}

TEST(Control, SpecsKeepInternalSpacesVerbatim) {
  auto parsed = Parse("snapshot  /tmp/with spaces.rtqs ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().arg, "/tmp/with spaces.rtqs");
}

// --- live-input failure discipline (satellite: no CHECK reachable from
// serve-mode input) ------------------------------------------------------

TEST(ControlFailure, RejectedPolicySwapLeavesStateBitIdentical) {
  auto session = ServeSession::Create(SessionSpec{});
  ASSERT_TRUE(session.ok());
  ServeSession& s = *session.value();
  s.RunEvents(2000);

  std::vector<std::string> before;
  s.cluster().AppendStateDigest(&before);

  // Unknown policy name and malformed parameter: both must fail at the
  // registry Create stage without touching the engine.
  for (const char* spec : {"no-such-policy", "minmax:not-a-number"}) {
    engine::PolicySwapOutcome out = s.ApplyPolicy(spec);
    EXPECT_FALSE(out.status.ok()) << spec;
    EXPECT_FALSE(out.reattached) << spec;
    EXPECT_EQ(out.active_spec, "pmm") << spec;
  }
  EXPECT_TRUE(s.journal().empty());

  std::vector<std::string> after;
  s.cluster().AppendStateDigest(&after);
  EXPECT_EQ(before, after);
}

TEST(ControlFailure, RejectedScenarioSwapLeavesStateBitIdentical) {
  auto session = ServeSession::Create(SessionSpec{});
  ASSERT_TRUE(session.ok());
  ServeSession& s = *session.value();
  s.RunEvents(2000);

  std::vector<std::string> before;
  s.cluster().AppendStateDigest(&before);

  // Unknown scenario, and a well-formed one whose class count does not
  // match the baseline's single-class workload.
  for (const char* spec : {"no-such-scenario", "flash:mult=6"}) {
    auto swapped = s.ApplyScenario(spec);
    EXPECT_FALSE(swapped.ok()) << spec;
  }
  EXPECT_TRUE(s.journal().empty());

  std::vector<std::string> after;
  s.cluster().AppendStateDigest(&after);
  EXPECT_EQ(before, after);
}

TEST(ControlFailure, AttachFailureRollsBackToFreshIncumbent) {
  // A host that never ticks: pmm-tick's Attach fails, which exercises
  // the rollback path (rebuild the incumbent from its Describe() spec).
  engine::SystemConfig config = harness::BaselineConfig(0.06, {"pmm"});
  config.mpl_sample_interval = 0.0;
  auto sys = engine::Rtdbs::Create(config);
  ASSERT_TRUE(sys.ok());
  engine::Rtdbs& s = *sys.value();
  s.Start();
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(s.StepEvent());

  engine::PolicySwapOutcome out = s.SwapPolicy("pmm-tick:ms=100");
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(out.active_spec, "pmm");  // incumbent is back in charge...
  EXPECT_TRUE(out.reattached);        // ...as a fresh instance
  EXPECT_EQ(s.policy().Describe(), "pmm");

  // The engine still runs: the rollback left a fully attached policy.
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(s.StepEvent());
}

TEST(ControlFailure, BadSessionSpecsFailCreateWithStatus) {
  const char* bad_workloads[] = {
      "baseline",            // missing rate
      "baseline:rate=0",     // non-positive rate
      "baseline:rate=fast",  // non-numeric rate
      "multiclass:r=0.1",    // wrong key
      "scenario:",           // empty scenario spec
      "scenario:nope",       // unknown scenario
      "steady:rate=0.1",     // unknown workload kind
  };
  for (const char* w : bad_workloads) {
    SessionSpec spec;
    spec.workload = w;
    auto session = ServeSession::Create(spec);
    EXPECT_FALSE(session.ok()) << w;
  }
  SessionSpec bad_policy;
  bad_policy.policy = "no-such-policy";
  EXPECT_FALSE(ServeSession::Create(bad_policy).ok());
}

}  // namespace
}  // namespace rtq::serve
