#include "src/net/cost_model.h"

#include <algorithm>

namespace gemini {

Timestamp QueueingResource::Submit(Timestamp now, Duration service) {
  // Drain committed work at rate k. Out-of-order submissions (a session
  // step booked in the future, then an earlier arrival processed later)
  // simply skip the drain; the job itself always starts from its own
  // arrival time and pays the currently committed backlog.
  if (now > last_update_) {
    const Duration drained =
        (now - last_update_) * static_cast<Duration>(servers_);
    backlog_ = std::max<Duration>(0, backlog_ - drained);
    last_update_ = now;
  }
  const Duration wait = backlog_ / static_cast<Duration>(servers_);
  backlog_ += service;
  return now + wait + service;
}

void QueueingResource::Reset() {
  last_update_ = 0;
  backlog_ = 0;
}

CostModel::CostModel(const NetParams& params, size_t num_instances)
    : params_(params), store_(params.store_servers) {
  instances_.reserve(num_instances);
  for (size_t i = 0; i < num_instances; ++i) {
    instances_.emplace_back(params.instance_servers);
  }
}

void CostModel::Reset() {
  for (auto& r : instances_) r.Reset();
  store_.Reset();
}

void Session::BillCacheOp(InstanceId id) {
  ++counts_.cache_ops;
  if (model_ == nullptr) return;
  const auto& p = model_->params();
  const Timestamp arrival = cursor_ + p.client_instance_rtt / 2;
  const Timestamp done = model_->instance(id).Submit(arrival, p.instance_service);
  cursor_ = done + p.client_instance_rtt / 2;
}

void Session::BillStoreQuery() {
  ++counts_.store_queries;
  if (model_ == nullptr) return;
  const auto& p = model_->params();
  const Timestamp arrival = cursor_ + p.client_store_rtt / 2;
  const Timestamp done = model_->store().Submit(arrival, p.store_query_service);
  cursor_ = done + p.client_store_rtt / 2;
}

void Session::BillStoreUpdate() {
  ++counts_.store_updates;
  if (model_ == nullptr) return;
  const auto& p = model_->params();
  const Timestamp arrival = cursor_ + p.client_store_rtt / 2;
  const Timestamp done =
      model_->store().Submit(arrival, p.store_update_service);
  cursor_ = done + p.client_store_rtt / 2;
}

void Session::BillCoordinatorOp() {
  ++counts_.coordinator_ops;
  if (model_ == nullptr) return;
  cursor_ += model_->params().client_coordinator_rtt;
}

void Session::BillBackoff(Duration d) {
  ++counts_.backoffs;
  if (model_ == nullptr) return;
  cursor_ += d;
}

}  // namespace gemini
