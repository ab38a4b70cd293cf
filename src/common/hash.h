// Hashing utilities.
//
// The Gemini client maps a key to a fragment with
//   fragment = hash(key) % F        (Section 4)
// so the hash must be stable across clients, instances, and runs — never use
// std::hash for routing (it is implementation-defined and per-process
// seedable). FNV-1a 64-bit is stable, allocation-free, and fast for the short
// keys (tens of bytes) this workload generates. CRC-32C (Crc32c) is the
// checksum of every byte geminid writes: WAL frames and checkpoints.
#pragma once

#include <cstdint>
#include <string_view>

namespace gemini {

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

constexpr uint64_t Fnv1a64(std::string_view data,
                           uint64_t seed = kFnvOffsetBasis) {
  uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Finalizer from SplitMix64 — turns a weakly mixed integer into a well
/// distributed one. Used to scramble sequential record ids into a key space
/// (YCSB's "scrambled Zipfian").
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

namespace internal {

/// CRC-32C (Castagnoli) lookup table, built at compile time. The reflected
/// polynomial 0x82F63B78 is the one SSE4.2's crc32 instruction implements,
/// so a hardware fast path can be swapped in later without changing any
/// on-disk format.
struct Crc32cTable {
  uint32_t t[256]{};
  constexpr Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};
inline constexpr Crc32cTable kCrc32cTable{};

#if defined(__x86_64__) || defined(__i386__)
/// SSE4.2 crc32 instruction path: ~0.3 cycles/byte vs ~3 for the table.
/// Compiled with a per-function target so the translation unit needs no
/// global -msse4.2; only ever called after a cpuid check.
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHw(
    std::string_view data, uint32_t c) {
  const char* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  uint64_t c64 = c;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, p, 8);
    c64 = __builtin_ia32_crc32di(c64, chunk);
  }
  c = static_cast<uint32_t>(c64);
#endif
  for (; n > 0; ++p, --n) {
    c = __builtin_ia32_crc32qi(c, static_cast<uint8_t>(*p));
  }
  return c;
}

inline bool Crc32cHwSupported() {
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
}
#endif  // x86

}  // namespace internal

/// Table-driven CRC-32C — the portable reference the hardware path must
/// match bit for bit (persist_wal_test cross-checks them).
constexpr uint32_t Crc32cSoftware(std::string_view data, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (char ch : data) {
    c = internal::kCrc32cTable.t[(c ^ static_cast<uint8_t>(ch)) & 0xFF] ^
        (c >> 8);
  }
  return ~c;
}

/// CRC-32C over `data`. Unlike Fnv1a64 (a fast hash), this is an error-
/// detecting code with guaranteed Hamming distance on short records — the
/// right tool for framing the write-ahead log, where single-bit rot and torn
/// sector tails must be caught, not just "probably caught". It also seals
/// each checkpoint (snapshot.h, GEMSNAP2): on a file of tens of MB the
/// SSE4.2 path is several times faster than Fnv1a64's byte-at-a-time loop.
/// Uses the SSE4.2 crc32 instruction when the CPU has it.
inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
#if defined(__x86_64__) || defined(__i386__)
  if (internal::Crc32cHwSupported()) {
    return ~internal::Crc32cHw(data, ~seed);
  }
#endif
  return Crc32cSoftware(data, seed);
}

}  // namespace gemini
