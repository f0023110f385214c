/**
 * @file
 * Incremental 64-bit FNV-1a hasher, the project's one FNV-1a loop.
 * `bytes()` folds raw bytes: report::fnv1a64 (the result-cache key and
 * payload checksum) and the state digests' byte sink
 * (common/state_io.hh) use it. `u64()` folds a value as its 8
 * little-endian bytes, so the identity keys of checkpoints and phase
 * plans are a pure function of the value sequence, independent of
 * struct padding, host endianness and compiler layout.
 */

#ifndef RAT_COMMON_FNV_HH
#define RAT_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>

namespace rat {

class Fnv64
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    /** Fold @p n raw bytes in order. */
    void
    bytes(const char *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= static_cast<std::uint8_t>(p[i]);
            hash_ *= kPrime;
        }
    }

    /** Fold one 64-bit value, little-endian byte by byte. */
    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xFF;
            hash_ *= kPrime;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kOffsetBasis;
};

} // namespace rat

#endif // RAT_COMMON_FNV_HH
