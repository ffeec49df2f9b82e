// FNV-1a 64-bit streaming hash.
//
// Snapshot digests compress unbounded state (pending event calendars,
// LRU recency orders, rng engine states, completion-record histories)
// into fixed-width fingerprint lines. FNV-1a is not cryptographic; it is
// chosen because it is a dozen lines, byte-order independent in the way
// we feed it (explicit little-endian word splitting), and collisions are
// irrelevant for the digest's job of catching honest divergence between
// a restored and an uninterrupted run.

#ifndef RTQ_COMMON_FNV_H_
#define RTQ_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace rtq {

class Fnv1a64 {
 public:
  /// Absorbs `n` raw bytes.
  void Update(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= kPrime;
    }
  }

  /// Absorbs a 64-bit word in a fixed (little-endian) byte order, so the
  /// digest does not depend on host endianness.
  void Update64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    Update(bytes, 8);
  }

  /// Absorbs a double by bit pattern (exact, not by rounded rendering).
  void UpdateDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    Update64(bits);
  }

  void UpdateString(const std::string& s) { Update(s.data(), s.size()); }

  uint64_t digest() const { return state_; }

 private:
  static constexpr uint64_t kOffsetBasis = 14695981039346656037ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t state_ = kOffsetBasis;
};

/// One-shot convenience over a string (e.g. a serialized rng state).
inline uint64_t Fnv1a64Hash(const std::string& s) {
  Fnv1a64 h;
  h.UpdateString(s);
  return h.digest();
}

}  // namespace rtq

#endif  // RTQ_COMMON_FNV_H_
