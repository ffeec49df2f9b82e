// Demonstrates PMM's workload-change detection (paper Section 5.3).
//
// The workload alternates between the Medium join class (memory-
// constrained: MinMax territory) and the Small join class (disk-bound:
// Max territory) every simulated hour, driven by the "mixshift"
// scenario. The example prints PMM's mode and target MPL after every
// interval, showing the controller re-adapting.
//
//   $ ./build/examples/workload_shift [intervals]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/spec.h"
#include "engine/rtdbs.h"
#include "harness/paper_experiments.h"

int main(int argc, char** argv) {
  using namespace rtq;

  int intervals = argc > 1 ? std::atoi(argv[1]) : 6;
  if (intervals <= 0) {
    std::fprintf(stderr, "usage: %s [intervals]\n", argv[0]);
    return 1;
  }
  const double interval_s = 3600.0;

  engine::SystemConfig config = harness::ScenarioConfig(
      "mixshift:interval=" + FormatDouble(interval_s) +
          ",intervals=" + std::to_string(intervals),
      {"pmm"});

  auto sys = engine::Rtdbs::Create(config);
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
    return 1;
  }
  engine::Rtdbs& rtdbs = *sys.value();

  std::printf("interval  class   completions  miss%%   PMM mode  target MPL"
              "  changes detected\n");
  int64_t prev_records = 0;
  for (int i = 0; i < intervals; ++i) {
    bool medium = i % 2 == 0;  // mixshift alternates Medium / Small
    rtdbs.RunUntil((i + 1) * interval_s);

    const auto& records = rtdbs.metrics().records();
    int64_t n = static_cast<int64_t>(records.size()) - prev_records;
    int64_t missed = 0;
    for (size_t k = prev_records; k < records.size(); ++k) {
      missed += records[k].info.missed;
    }
    prev_records = static_cast<int64_t>(records.size());

    const auto* pmm = rtdbs.pmm();
    std::printf("%8d  %-6s  %11lld  %5.1f  %8s  %10lld  %16lld\n", i + 1,
                medium ? "Medium" : "Small", static_cast<long long>(n),
                n > 0 ? 100.0 * static_cast<double>(missed) /
                            static_cast<double>(n)
                      : 0.0,
                pmm->mode() == core::PmmController::Mode::kMax ? "Max"
                                                               : "MinMax",
                static_cast<long long>(pmm->target_mpl()),
                static_cast<long long>(pmm->workload_changes_detected()));
  }
  return 0;
}
