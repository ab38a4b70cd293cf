// Seeded input generation. Every key, op and value the benchmark sends is a
// pure function of --seed and the workload's parameters, generated before
// the timed region, and independent of the repository's own generators (a
// change to src/workload must not change the benchmark's inputs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipfian ranks in [0, n), rank 0 hottest (Gray et al., as in YCSB).
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta);
  uint64_t Next(SplitMix64& rng) const;

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double half_pow_theta_;
};

/// One client's op stream. Key ids are rank * partitions + partition, so
/// streams of different partitions never share a key; the hottest ranks
/// are the lowest key ids.
struct StreamSpec {
  uint64_t seed = 1;
  uint32_t partition = 0;
  uint32_t partitions = 1;
  uint64_t keys_per_partition = 1;
  double theta = 0.99;
  double write_fraction = 0.05;
  size_t length = 1;
};

/// Packed op: bit 31 set = write, low 31 bits = key id.
inline bool IsWrite(uint32_t op) { return (op >> 31) != 0; }
inline uint32_t KeyOf(uint32_t op) { return op & 0x7fffffffu; }

std::vector<uint32_t> MakeOpStream(const StreamSpec& spec);
/// FNV-1a over the packed stream (the self-test's identity check).
uint64_t StreamDigest(const std::vector<uint32_t>& ops);

/// Renders key id `id` as the wire/store key.
void KeyName(uint32_t id, std::string* out);

/// Values of a fixed size that encode (key id, write counter); the rest is
/// a key-dependent filler, so a value returned for the wrong key or from an
/// older write is detected byte for byte.
class ValueCodec {
 public:
  explicit ValueCodec(size_t bytes);
  void Encode(uint32_t key, uint32_t counter, std::string* out) const;
  /// False unless `v` is exactly Encode(key, *counter) for the decoded
  /// counter.
  bool Decode(std::string_view v, uint32_t key, uint32_t* counter) const;
  [[nodiscard]] size_t bytes() const { return bytes_; }

 private:
  static constexpr size_t kHeader = 16;  // 8 hex digits key + 8 counter
  size_t bytes_;
  std::string filler_;
};

}  // namespace perfbench
