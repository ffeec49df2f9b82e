// Deterministic random-number streams.
//
// Every stochastic component of the simulation (arrival process, relation
// selection, slack ratios, ...) owns its own Rng so that changing one
// component's consumption pattern does not perturb the others — the
// standard technique for variance reduction and reproducibility in
// discrete-event simulation studies such as the paper's.

#ifndef RTQ_COMMON_RNG_H_
#define RTQ_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <string>

#include "common/check.h"

namespace rtq {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi) {
    RTQ_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    RTQ_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Exponential inter-arrival time with the given rate (events/second).
  double Exponential(double rate);

  /// Uniform real in [0, 1).
  double NextDouble() { return Uniform(0.0, 1.0); }

  /// Derives an independent child stream; used to hand sub-streams to
  /// components from one master seed.
  Rng Fork();

  /// Serialized engine state: the standard-library textual form of
  /// std::mt19937_64 (312 state words plus the stream position,
  /// space-separated). Two Rngs with equal StateString() produce
  /// identical draw sequences forever — snapshot digests compare these
  /// strings to prove arrival streams were restored exactly.
  std::string StateString() const;

 private:
  std::mt19937_64 engine_;
};

}  // namespace rtq

#endif  // RTQ_COMMON_RNG_H_
