#include "census.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Census, ClosedLoopInFlightTailIsNotFailure) {
  // 800 clients each with one request in flight at the window's end, all
  // of them committed at least once in the last latency limit: the
  // in-flight tail is censored, so nothing failed.
  ClosedPoolObservation pool;
  pool.clients = 800;
  pool.committed_in_window = 2400;
  pool.commits_recent = 1600;
  const Census c = closed_loop_census({pool});
  EXPECT_EQ(c.attempted, 2400u);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.failed_frac(), 0.0);
}

TEST(Census, ClosedLoopStalledPoolFailsEveryClient) {
  // The target stopped committing for longer than the limit: every one of
  // its clients holds a stale request.
  ClosedPoolObservation live;
  live.clients = 100;
  live.committed_in_window = 900;
  live.commits_recent = 300;
  ClosedPoolObservation stalled;
  stalled.clients = 100;
  stalled.committed_in_window = 300;
  stalled.commits_recent = 0;
  const Census c = closed_loop_census({live, stalled});
  EXPECT_EQ(c.attempted, 900u + 300u + 100u);
  EXPECT_EQ(c.failed, 100u);
}

TEST(Census, OpenLoopCountsRefusalsAndStaleRequests) {
  OpenPoolObservation pool;
  pool.arrived_at_start = 100;   // ordinals 1..100 arrived before F
  pool.arrived_at_cutoff = 180;  // ordinals 101..180 by T - L
  pool.arrived_at_end = 200;     // ordinals 181..200 in the last L
  // Unresolved at T: one from before the window (ignored), three stale
  // window requests, and five young ones (censored).
  pool.unresolved = {50, 120, 150, 180, 181, 190, 195, 199, 200};
  // 100 arrivals in the window: 8 unresolved, 80 committed, so 12 were
  // refused for good.
  pool.committed_in_window = 80;
  const Census c = open_loop_census({pool});
  EXPECT_EQ(c.failed, 12u + 3u);
  EXPECT_EQ(c.attempted, 100u - 5u);
}

TEST(Census, OpenLoopYoungInFlightRequestsAreCensored) {
  OpenPoolObservation pool;
  pool.arrived_at_start = 0;
  pool.arrived_at_cutoff = 10;
  pool.arrived_at_end = 12;
  pool.committed_in_window = 10;
  pool.unresolved = {11, 12};
  const Census c = open_loop_census({pool});
  EXPECT_EQ(c.attempted, 10u);
  EXPECT_EQ(c.failed, 0u);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Tail t = supported_tail(v);
  ASSERT_TRUE(t.supported);
  EXPECT_EQ(t.value, 990.0);  // ten samples (991..1000) lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(Tail, UnsupportedBelowElevenSamples) {
  EXPECT_FALSE(supported_tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).supported);
  EXPECT_TRUE(supported_tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}).supported);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
