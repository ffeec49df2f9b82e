// OnTick contract tests: the time-triggered half of the MemoryPolicy
// lifecycle, unexercised until pmm-tick.
//
//  * Ticks reach the policy at the engine's configured tick
//    cadence (SystemConfig::mpl_sample_interval), on the exact grid.
//  * "pmm-tick:ms=0" bypasses the completion buffer and is bit-identical
//    to plain "pmm".
//  * A positive period aligns the controller's adaptation points to the
//    tick grid (the probe reads system state at flush time).
//  * A policy that reallocates memory from OnTick leaves the
//    MemoryManager's incremental counters (admitted_count,
//    allocated_pages) consistent with a from-scratch recompute.
//
// The "tick-probe" policy below registers through the normal registry
// path, so it doubles as a third-party-plugin example: it records every
// tick and flips the allocation strategy from tick context, the most
// invasive thing OnTick may legally do.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "core/memory_policy.h"
#include "core/policy_registry.h"
#include "core/strategy.h"
#include "engine/rtdbs.h"
#include "harness/paper_experiments.h"
#include "run_fingerprint.h"

namespace rtq::core {
namespace {

using test_util::Fingerprint;

/// Tick times recorded by every TickProbePolicy in this process. A
/// local-admission cluster runs its shards' probe instances on different
/// threads, so appends hold TickMutex().
std::vector<SimTime>& TickTimes() {
  static std::vector<SimTime> times;
  return times;
}

std::mutex& TickMutex() {
  static std::mutex mu;
  return mu;
}

/// Test-only plugin: logs OnTick times and alternates the installed
/// strategy on every tick, forcing a full reallocation from tick
/// context. Deterministic and argument-free so the registry-wide
/// property test can run it like any product policy.
class TickProbePolicy : public MemoryPolicy {
 public:
  Status Attach(const PolicyHost& host) override {
    mm_ = host.mm;
    mm_->SetStrategy(std::make_unique<MaxStrategy>());
    return Status::Ok();
  }

  void OnTick(SimTime now) override {
    {
      std::lock_guard<std::mutex> lock(TickMutex());
      TickTimes().push_back(now);
    }
    use_minmax_ = !use_minmax_;
    if (use_minmax_) {
      mm_->SetStrategy(std::make_unique<MinMaxStrategy>(2));
    } else {
      mm_->SetStrategy(std::make_unique<MaxStrategy>());
    }
  }

  std::string Describe() const override { return "tick-probe"; }
  std::string DisplayName() const override { return "TickProbe"; }

 private:
  MemoryManager* mm_ = nullptr;
  bool use_minmax_ = false;
};

RTQ_REGISTER(PolicyRegistry, "tick-probe",
             "tick-probe — test-only OnTick recorder/reallocator",
             [](const Spec& spec) -> StatusOr<std::unique_ptr<MemoryPolicy>> {
               if (!spec.args.empty()) {
                 return Status::InvalidArgument(
                     "tick-probe takes no arguments");
               }
               return std::unique_ptr<MemoryPolicy>(new TickProbePolicy());
             });

TEST(OnTickContract, TicksArriveOnTheConfiguredCadence) {
  for (SimTime interval : {60.0, 25.0}) {
    TickTimes().clear();
    engine::SystemConfig config =
        harness::BaselineConfig(0.06, {"tick-probe"}, 42);
    config.mpl_sample_interval = interval;
    auto sys = engine::Rtdbs::Create(config);
    ASSERT_TRUE(sys.ok());
    sys.value()->RunUntil(1800.0);

    size_t expected = static_cast<size_t>(1800.0 / interval);
    ASSERT_EQ(TickTimes().size(), expected) << "interval " << interval;
    for (size_t i = 0; i < TickTimes().size(); ++i) {
      EXPECT_DOUBLE_EQ(TickTimes()[i],
                       static_cast<double>(i + 1) * interval);
    }
  }
}

TEST(OnTickContract, DisabledSamplerMeansNoTicks) {
  TickTimes().clear();
  engine::SystemConfig config =
      harness::BaselineConfig(0.06, {"tick-probe"}, 42);
  config.mpl_sample_interval = 0.0;
  auto sys = engine::Rtdbs::Create(config);
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(1800.0);
  EXPECT_TRUE(TickTimes().empty());
}

TEST(OnTickContract, PmmTickRejectsHostsThatNeverTick) {
  // A positive batching period on a host with ticks disabled
  // would buffer completions forever; Attach must fail loud.
  engine::SystemConfig config =
      harness::BaselineConfig(0.06, {"pmm-tick:ms=60000"}, 42);
  config.mpl_sample_interval = 0.0;
  auto sys = engine::Rtdbs::Create(config);
  ASSERT_FALSE(sys.ok());
  EXPECT_EQ(sys.status().code(), StatusCode::kFailedPrecondition);

  // ms=0 never uses the buffer, so it works on a tickless host.
  config.policy = {"pmm-tick:ms=0"};
  EXPECT_TRUE(engine::Rtdbs::Create(config).ok());
}

TEST(OnTickContract, ZeroPeriodPmmTickDegeneratesToPmm) {
  // ms=0 bypasses the completion buffer entirely: same events, same
  // completions, same misses, same timings as plain PMM.
  for (double rate : {0.06, 0.08}) {
    EXPECT_EQ(
        Fingerprint(harness::BaselineConfig(rate, {"pmm"}, 42), 3600.0),
        Fingerprint(harness::BaselineConfig(rate, {"pmm-tick:ms=0"}, 42),
                    3600.0))
        << "rate " << rate;
  }
  EXPECT_EQ(
      Fingerprint(harness::MulticlassConfig(0.8, {"pmm"}, 42), 3600.0),
      Fingerprint(harness::MulticlassConfig(0.8, {"pmm-tick:ms=0"}, 42),
                  3600.0));
}

TEST(OnTickContract, PositivePeriodAlignsAdaptationsToTheTickGrid) {
  // With a 120 s batching period every controller adaptation must
  // happen at a flush, i.e. at a multiple of 120 simulated seconds
  // (ticks fire every 60 s; flushes skip every other one).
  auto sys = engine::Rtdbs::Create(
      harness::MulticlassConfig(0.8, {"pmm-tick:ms=120000"}, 42));
  ASSERT_TRUE(sys.ok());
  sys.value()->RunUntil(3600.0);
  const PmmController* pmm = sys.value()->pmm();
  ASSERT_NE(pmm, nullptr);
  ASSERT_GT(pmm->adaptations(), 0);
  for (const auto& point : pmm->trace()) {
    EXPECT_DOUBLE_EQ(std::fmod(point.time, 120.0), 0.0)
        << "adaptation off the tick grid at t=" << point.time;
  }
}

TEST(OnTickContract, ReallocatingFromOnTickKeepsManagerInvariants) {
  // tick-probe swaps strategies (and thus reallocates everything) on
  // every tick. At several pause points the incremental counters must
  // match what an explicit from-scratch recompute produces, and stay
  // within physical bounds.
  auto sys =
      engine::Rtdbs::Create(harness::BaselineConfig(0.07, {"tick-probe"}, 7));
  ASSERT_TRUE(sys.ok());
  for (SimTime t = 300.0; t <= 3600.0; t += 300.0) {
    sys.value()->RunUntil(t);
    MemoryManager& mm = sys.value()->memory_manager();
    int64_t admitted = mm.admitted_count();
    PageCount allocated = mm.allocated_pages();
    EXPECT_LE(allocated, mm.total_pages());
    EXPECT_LE(admitted, mm.live_count());
    EXPECT_GE(mm.waiting_count(), 0);
    // Idempotent recompute: if the counters were drifting, the full
    // recompute would disagree with the incrementally-maintained state.
    mm.Reallocate();
    EXPECT_EQ(mm.admitted_count(), admitted) << "at t=" << t;
    EXPECT_EQ(mm.allocated_pages(), allocated) << "at t=" << t;
  }
}

}  // namespace
}  // namespace rtq::core
