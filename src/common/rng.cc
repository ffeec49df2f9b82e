#include "common/rng.h"

#include <sstream>

namespace rtq {

double Rng::Exponential(double rate) {
  RTQ_CHECK_MSG(rate > 0.0, "exponential rate must be positive");
  return std::exponential_distribution<double>(rate)(engine_);
}

Rng Rng::Fork() {
  // Mix the child seed through splitmix64 so that sequentially forked
  // streams do not overlap in the parent's output sequence.
  uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

std::string Rng::StateString() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

}  // namespace rtq
