#include "src/store/data_store.h"

#include <chrono>
#include <thread>

namespace gemini {

void DataStore::SimulateLatency() const {
  const Duration us = synthetic_latency_us_.load(std::memory_order_relaxed);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void DataStore::Put(std::string_view key, std::string data) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& rec = records_[std::string(key)];
  rec.size_bytes = static_cast<uint32_t>(data.size());
  rec.data = std::move(data);
  ++rec.version;
}

Result<StoreRecord> DataStore::Query(std::string_view key) const {
  SimulateLatency();
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.queries;
  auto it = records_.find(std::string(key));
  if (it == records_.end()) {
    return Status(Code::kNotFound);
  }
  return it->second;
}

Version DataStore::Update(std::string_view key,
                          std::optional<std::string> data) {
  return UpdateAndGet(key, std::move(data)).version;
}

StoreRecord DataStore::UpdateAndGet(std::string_view key,
                                    std::optional<std::string> data) {
  SimulateLatency();
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.updates;
  auto& rec = records_[std::string(key)];
  if (data.has_value()) {
    rec.size_bytes = static_cast<uint32_t>(data->size());
    rec.data = std::move(*data);
  }
  ++rec.version;
  return rec;
}

Version DataStore::VersionOf(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(std::string(key));
  return it == records_.end() ? 0 : it->second.version;
}

uint64_t DataStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

DataStore::Stats DataStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void DataStore::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = Stats{};
}

}  // namespace gemini
