// YCSB-style workload (Sections 5.2, 5.4).
//
// The paper's YCSB setup: a 10M-record database of 1 KB records, a highly
// skewed Zipfian popularity distribution, Workload A (50% reads / 50%
// updates), Workload B (95% reads / 5% updates), and sweeps that vary the
// update percentage from 1% to 10%.
//
// Evolving access patterns (Section 5.4.4): records are partitioned into two
// halves A and B. Phase 0 references only A. Phase 1 references B with the
// same distribution (a 100% change), or — for a 20% change — swaps the most
// frequently accessed 20% of A's records with their counterparts in B.
#pragma once

#include <cstdint>

#include "src/workload/workload.h"

namespace gemini {

class YcsbWorkload : public Workload {
 public:
  enum class Evolution : uint8_t {
    kStatic = 0,
    kSwitch20 = 20,   // swap the hottest 20% of set A with set B
    kSwitch100 = 100  // move every reference from set A to set B
  };

  struct Options {
    uint64_t num_records = 100'000;
    double update_fraction = 0.05;  // Workload B
    double zipf_theta = 0.99;       // YCSB "highly skewed"
    uint32_t record_bytes = 1024;
    Evolution evolution = Evolution::kStatic;
  };

  explicit YcsbWorkload(Options options);

  Operation Next(Rng& rng) override;
  void SetPhase(int phase) override { phase_ = phase; }

  [[nodiscard]] uint64_t num_records() const override {
    return options_.num_records;
  }
  [[nodiscard]] std::string KeyOfRecord(uint64_t record) const override;
  [[nodiscard]] uint32_t ValueSizeOfRecord(uint64_t) const override {
    return options_.record_bytes;
  }

  [[nodiscard]] int phase() const { return phase_; }

 private:
  [[nodiscard]] uint64_t DrawRecord(Rng& rng);

  Options options_;
  int phase_ = 0;
  // Static pattern: scrambled Zipfian over the full database.
  ScrambledZipfian full_zipf_;
  // Evolving patterns: rank-preserving Zipfian over half the database
  // (rank r -> record r of the active set), so "the most frequently
  // accessed" records are identifiable by rank.
  Zipfian half_zipf_;
  uint64_t half_;
  uint64_t hot_window_;
};

}  // namespace gemini
