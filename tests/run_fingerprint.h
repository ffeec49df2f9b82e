// The trajectory fingerprint that identity tests compare: two runs with
// equal fingerprints dispatched the same events and finished the same
// queries at the same mean timings.

#ifndef RTQ_TESTS_RUN_FINGERPRINT_H_
#define RTQ_TESTS_RUN_FINGERPRINT_H_

#include <cstdint>
#include <tuple>

#include "common/check.h"
#include "engine/rtdbs.h"

namespace rtq::test_util {

/// Runs `config` for `horizon` simulated seconds and returns its
/// (events, completions, misses, avg_exec, avg_wait).
inline std::tuple<uint64_t, int64_t, int64_t, double, double> Fingerprint(
    const engine::SystemConfig& config, SimTime horizon) {
  auto sys = engine::Rtdbs::Create(config);
  RTQ_CHECK_MSG(sys.ok(), sys.status().ToString().c_str());
  sys.value()->RunUntil(horizon);
  const engine::SystemSummary s = sys.value()->Summarize();
  return {s.events_dispatched, s.overall.completions, s.overall.misses,
          s.overall.avg_exec, s.overall.avg_wait};
}

}  // namespace rtq::test_util

#endif  // RTQ_TESTS_RUN_FINGERPRINT_H_
