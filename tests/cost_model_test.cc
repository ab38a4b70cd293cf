// Queueing & latency model tests: the substrate that turns protocol steps
// into virtual time and separates the paper's low- and high-load regimes.
#include "src/net/cost_model.h"

#include <gtest/gtest.h>

namespace gemini {
namespace {

TEST(QueueingResource, IdleServerStartsImmediately) {
  QueueingResource q(1);
  EXPECT_EQ(q.Submit(100, 10), 110);
}

TEST(QueueingResource, BusyServerQueues) {
  QueueingResource q(1);
  EXPECT_EQ(q.Submit(0, 10), 10);
  EXPECT_EQ(q.Submit(0, 10), 20);  // waits for the first job
  EXPECT_EQ(q.Submit(5, 10), 30);
}

TEST(QueueingResource, MultipleServersDrainFaster) {
  QueueingResource q(2);
  EXPECT_EQ(q.Submit(0, 10), 10);
  // Fluid model: the second job waits backlog/k = 5 instead of a full 10.
  EXPECT_EQ(q.Submit(0, 10), 15);
  QueueingResource q1(1);
  (void)q1.Submit(0, 10);
  EXPECT_GT(q1.Submit(0, 10), 15);  // single server queues longer
}

TEST(QueueingResource, LateArrivalSkipsQueue) {
  QueueingResource q(1);
  (void)q.Submit(0, 10);
  EXPECT_EQ(q.Submit(100, 10), 110);  // backlog fully drained by t=100
}

TEST(QueueingResource, FutureBookingDoesNotBlockEarlierArrival) {
  // A session step booked far in the future (insert after a slow store
  // trip) must not stall an arrival with an earlier timestamp that the
  // event loop processes afterwards.
  QueueingResource q(1);
  (void)q.Submit(2000, 30);          // future booking
  const Timestamp done = q.Submit(600, 30);  // earlier arrival, same server
  EXPECT_LE(done, 2000 + 30 + 30);   // pays at most the committed backlog
  EXPECT_LT(done - 600, 1500);       // and is NOT pushed past the booking
}

TEST(QueueingResource, SaturationGrowsBacklog) {
  QueueingResource q(1);
  Timestamp completion = 0;
  for (int i = 0; i < 100; ++i) {
    completion = q.Submit(i, 10);  // arrivals 10x faster than service
  }
  // ~100 jobs x 10us service, arrivals within 100us: last completes ~1000.
  EXPECT_GT(completion, 900);
}

TEST(QueueingResource, ResetClearsBacklog) {
  QueueingResource q(1);
  (void)q.Submit(0, 1000);
  q.Reset();
  EXPECT_EQ(q.Submit(0, 10), 10);
}

TEST(Session, NullSessionBillsNothing) {
  Session s;
  s.BillCacheOp(0);
  s.BillStoreQuery();
  s.BillBackoff(Millis(5));
  EXPECT_EQ(s.Elapsed(), 0);
  EXPECT_EQ(s.counts().cache_ops, 1u);  // counters still track steps
}

TEST(Session, AccumulatesStepCosts) {
  NetParams p;
  p.client_instance_rtt = Micros(100);
  p.instance_service = Micros(30);
  p.client_store_rtt = Micros(300);
  p.store_query_service = Micros(1500);
  CostModel model(p, 2);
  Session s(&model, 0);
  s.BillCacheOp(0);
  EXPECT_EQ(s.Elapsed(), 130);  // rtt + service
  s.BillStoreQuery();
  EXPECT_EQ(s.Elapsed(), 130 + 1800);
  EXPECT_EQ(s.counts().cache_ops, 1u);
  EXPECT_EQ(s.counts().store_queries, 1u);
}

TEST(Session, QueueingDelaysShowUpInLatency) {
  NetParams p;
  p.client_instance_rtt = Micros(0);
  p.instance_service = Micros(100);
  CostModel model(p, 1);
  Session s1(&model, 0);
  s1.BillCacheOp(0);
  Session s2(&model, 0);
  s2.BillCacheOp(0);  // queues behind s1's job
  EXPECT_EQ(s1.Elapsed(), 100);
  EXPECT_EQ(s2.Elapsed(), 200);
}

TEST(Session, BackoffAdvancesCursor) {
  NetParams p;
  CostModel model(p, 1);
  Session s(&model, 1000);
  s.BillBackoff(Millis(2));
  EXPECT_EQ(s.cursor(), 1000 + Millis(2));
  EXPECT_EQ(s.counts().backoffs, 1u);
}

TEST(Session, StoreUpdateSlowerThanQuery) {
  NetParams p;  // defaults: update 2000us > query 1500us
  CostModel model(p, 1);
  Session q(&model, 0), u(&model, Seconds(10));
  q.BillStoreQuery();
  u.BillStoreUpdate();
  EXPECT_GT(u.Elapsed(), q.Elapsed());
}

TEST(CostModel, InstancesIndependentQueues) {
  NetParams p;
  p.client_instance_rtt = Micros(0);
  p.instance_service = Micros(100);
  CostModel model(p, 2);
  Session s1(&model, 0), s2(&model, 0);
  s1.BillCacheOp(0);
  s2.BillCacheOp(1);
  EXPECT_EQ(s1.Elapsed(), 100);
  EXPECT_EQ(s2.Elapsed(), 100);  // no cross-instance queueing
}

}  // namespace
}  // namespace gemini
