// serve/control: the live command grammar, plus the engine-level
// guarantees behind it — malformed specs surface as Status errors and
// leave the running system untouched (never a CHECK crash), and a
// policy whose Attach fails leaves the incumbent in charge with its
// adaptive state intact.

#include "serve/control.h"

#include <memory>
#include <string>
#include <vector>

#include "core/memory_manager.h"
#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "core/strategy.h"
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

  // Unknown policy name and malformed parameter fail at the registry;
  // two weights for the baseline's one class fail at Attach. None may
  // touch the engine or the journal.
  for (const char* spec :
       {"no-such-policy", "minmax:not-a-number", "pmm-fair:w=1,2"}) {
    EXPECT_FALSE(s.ApplyPolicy(spec).ok()) << spec;
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

TEST(ControlFailure, AttachFailureKeepsTheIncumbent) {
  // Three simulated hours give PMM a fitted history to lose. The host
  // has one class and never ticks, so each spec below creates fine and
  // then fails Attach; the whole engine must stay bit-identical.
  engine::SystemConfig config = harness::BaselineConfig(0.07, {"pmm"});
  config.mpl_sample_interval = 0.0;
  auto sys = engine::Rtdbs::Create(config);
  ASSERT_TRUE(sys.ok());
  engine::Rtdbs& s = *sys.value();
  s.RunUntil(3 * 3600.0);
  ASSERT_GT(s.pmm()->adaptations(), 0);

  std::vector<std::string> before;
  s.AppendStateDigest(&before);
  for (const char* spec :
       {"pmm-fair:w=1,2", "pmm-class:targets=4,4", "pmm-tick:ms=100"}) {
    EXPECT_FALSE(s.SwapPolicy(spec).ok()) << spec;
    std::vector<std::string> after;
    s.AppendStateDigest(&after);
    EXPECT_EQ(before, after) << spec;
  }
}

/// Readings of an idle system, for attaching a policy outside an engine.
class IdleProbe : public core::SystemProbe {
 public:
  Readings TakeReadings() override { return Readings{}; }
};

TEST(ControlFailure, SelectRejectsACandidateTheHostCannotAttach) {
  // select attaches its later candidates from OnTick, where a failure
  // could no longer be refused, so its own Attach must try them all.
  const std::string spec = "select:candidates=pmm+pmm-class:targets=1,1";
  const std::string error = "pmm-class needs one target per workload class";

  auto policy = core::PolicyRegistry::Global().Create(spec);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  core::MemoryManager mm(1000, std::make_unique<core::MaxStrategy>(),
                         [](QueryId, PageCount) {});
  IdleProbe probe;
  core::PolicyHost host;
  host.mm = &mm;
  host.probe = &probe;
  host.now = [] { return 0.0; };
  host.num_classes = 1;
  host.tick_interval = 60.0;
  Status attached = policy.value()->Attach(host);
  ASSERT_FALSE(attached.ok());
  EXPECT_NE(attached.message().find(error), std::string::npos)
      << attached.ToString();

  // The baseline session has one class: the swap fails with the same
  // error and changes nothing.
  auto session = ServeSession::Create(SessionSpec{});
  ASSERT_TRUE(session.ok());
  ServeSession& s = *session.value();
  s.RunEvents(2000);
  std::vector<std::string> before;
  s.cluster().AppendStateDigest(&before);
  auto swap = s.ApplyPolicy(spec);
  ASSERT_FALSE(swap.ok());
  EXPECT_NE(swap.status().message().find(error), std::string::npos)
      << swap.status().ToString();
  EXPECT_TRUE(s.journal().empty());
  std::vector<std::string> after;
  s.cluster().AppendStateDigest(&after);
  EXPECT_EQ(before, after);
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
