#include "src/workload.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipfian::Zipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
  double zetan = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) / (1.0 - zeta2 / zetan);
  half_pow_theta_ = 1.0 + std::pow(0.5, theta);
}

uint64_t Zipfian::Next(SplitMix64& rng) const {
  const double u = rng.Uniform();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < half_pow_theta_) return 1 % n_;
  const auto rank = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank < n_ ? rank : n_ - 1;
}

std::vector<uint32_t> MakeOpStream(const StreamSpec& spec) {
  // Separate generators for key and op choice, both derived from the seed
  // and the partition, so changing the mix does not reshuffle the keys.
  SplitMix64 key_rng(spec.seed * 0x100000001b3ULL + spec.partition * 2 + 1);
  SplitMix64 op_rng(spec.seed * 0x100000001b3ULL + spec.partition * 2 + 2);
  const Zipfian zipf(spec.keys_per_partition, spec.theta);
  std::vector<uint32_t> out;
  out.reserve(spec.length);
  for (size_t i = 0; i < spec.length; ++i) {
    const uint64_t key =
        zipf.Next(key_rng) * spec.partitions + spec.partition;
    const bool write = op_rng.Uniform() < spec.write_fraction;
    out.push_back(static_cast<uint32_t>(key) | (write ? 0x80000000u : 0));
  }
  return out;
}

uint64_t StreamDigest(const std::vector<uint32_t>& ops) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t op : ops) {
    for (int b = 0; b < 4; ++b) {
      h ^= (op >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void KeyName(uint32_t id, std::string* out) {
  char buf[16];
  const int n = std::snprintf(buf, sizeof(buf), "pb%u", id);
  out->assign(buf, static_cast<size_t>(n));
}

ValueCodec::ValueCodec(size_t bytes) : bytes_(bytes < kHeader ? kHeader : bytes) {
  for (size_t i = 0; i < bytes_ + 64; ++i) {
    filler_.push_back(static_cast<char>('a' + i % 26));
  }
}

void ValueCodec::Encode(uint32_t key, uint32_t counter,
                        std::string* out) const {
  char head[kHeader + 1];
  std::snprintf(head, sizeof(head), "%08x%08x", key, counter);
  out->assign(head, kHeader);
  out->append(filler_, key % 64, bytes_ - kHeader);
}

bool ValueCodec::Decode(std::string_view v, uint32_t key,
                        uint32_t* counter) const {
  if (v.size() != bytes_) return false;
  char head[kHeader + 1];
  std::memcpy(head, v.data(), kHeader);
  head[kHeader] = '\0';
  unsigned k = 0, c = 0;
  if (std::sscanf(head, "%8x%8x", &k, &c) != 2 || k != key) return false;
  if (std::memcmp(v.data() + kHeader, filler_.data() + key % 64,
                  bytes_ - kHeader) != 0) {
    return false;
  }
  *counter = c;
  return true;
}

}  // namespace perfbench
