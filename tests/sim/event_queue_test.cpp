#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace lyra::sim {
namespace {

/// Directory that records the destination id of every delivery the queue
/// fires, in firing order, and reports every slot as vacant (the queue
/// counts the delivery as dropped). process_at() is invoked exactly once
/// per fired delivery, so the recording IS the global firing order.
class RecordingDirectory final : public ProcessDirectory {
 public:
  Process* process_at(NodeId id) const override {
    fired.push_back(id);
    return nullptr;
  }
  mutable std::vector<NodeId> fired;
};

Envelope envelope_to(NodeId to) {
  Envelope env;
  env.to = to;
  return env;
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule_at(10, [&] { ran = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.cancel(12345);
  q.schedule_at(1, [] {});
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1, [&] { order.push_back(1); });
  const auto id = q.schedule_at(2, [&] { order.push_back(2); });
  q.schedule_at(3, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NestedSchedulingRunsLater) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1, [&] {
    order.push_back(1);
    q.schedule_at(5, [&] { order.push_back(5); });
  });
  q.schedule_at(3, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  EventQueue q;
  const auto id = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.next_time(), 10);
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, EmptyQueueNextTimeIsSentinel) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNoSeq);
}

TEST(EventQueue, EqualTimeTimersAndDeliveriesFireInInsertionOrder) {
  // The two tiers share one id space: at equal times the global order is
  // insertion order, regardless of which tier an event sits in.
  EventQueue q;
  RecordingDirectory dir;
  std::vector<NodeId> order;  // timers recorded as 1000 + k
  q.schedule_at(5, [&] { order.push_back(1000); });
  q.schedule_delivery(5, &dir, envelope_to(0));
  q.schedule_at(5, [&] { order.push_back(1001); });
  q.schedule_delivery(5, &dir, envelope_to(1));
  q.schedule_delivery(5, &dir, envelope_to(2));
  q.schedule_at(5, [&] { order.push_back(1002); });
  while (!q.empty()) {
    const std::size_t before = dir.fired.size();
    EXPECT_EQ(q.run_next(), 5);
    if (dir.fired.size() > before) order.push_back(dir.fired.back());
  }
  EXPECT_EQ(order, (std::vector<NodeId>{1000, 0, 1001, 1, 2, 1002}));
}

TEST(EventQueue, DeliveryOrderSpansWheelSpillAndLateTiers) {
  // Deliveries land in three tiers: the calendar wheel (near future), the
  // spill heap (beyond the ~537 ms horizon), and the drain side-heap
  // (scheduled at/behind the tick being drained). The observable firing
  // order must be the same global (time, insertion) order regardless.
  EventQueue q;
  RecordingDirectory dir;
  const TimeNs far1 = ms(2000);  // beyond the ~537 ms wheel horizon
  const TimeNs far2 = ms(1000);
  const TimeNs near1 = ms(1);
  const TimeNs near2 = us(200);
  q.schedule_delivery(far1, &dir, envelope_to(10));
  q.schedule_delivery(near1, &dir, envelope_to(11));
  q.schedule_delivery(far2, &dir, envelope_to(12));
  q.schedule_delivery(near2, &dir, envelope_to(13));
  // A timer firing at near2 schedules a delivery at that same instant:
  // its tick is already being drained, so it rides the side heap — and
  // must still fire before anything at a later time.
  q.schedule_at(near2, [&] { q.schedule_delivery(near2, &dir, envelope_to(14)); });

  std::vector<TimeNs> fire_times;
  while (!q.empty()) fire_times.push_back(q.run_next());
  EXPECT_EQ(dir.fired, (std::vector<NodeId>{13, 14, 11, 12, 10}));
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  EXPECT_EQ(q.deliveries_dropped(), 5u);  // vacant directory slots drop
}

TEST(EventQueue, VacantDirectorySlotCountsAsDropped) {
  // Messages in flight to a crashed process: the slot resolves to nullptr
  // at delivery time and the queue drops the message, keeping count.
  EventQueue q;
  RecordingDirectory dir;
  q.schedule_delivery(10, &dir, envelope_to(3));
  q.schedule_delivery(20, &dir, envelope_to(4));
  EXPECT_EQ(q.deliveries_dropped(), 0u);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(q.deliveries_dropped(), 1u);
  EXPECT_EQ(q.run_next(), 20);
  EXPECT_EQ(q.deliveries_dropped(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EnvelopeSlabRecyclesSlots) {
  // A steady-state ping-pong keeps exactly one delivery in flight: the
  // slab must recycle its single slot instead of growing.
  EventQueue q;
  RecordingDirectory dir;
  TimeNs t = 0;
  for (int i = 0; i < 1000; ++i) {
    q.schedule_delivery(t += us(100), &dir, envelope_to(0));
    q.run_next();
  }
  EXPECT_EQ(q.envelope_slab_capacity(), 1u);
  // Burst of 8 in flight at once: the high-water mark, then recycled.
  for (int i = 0; i < 8; ++i) q.schedule_delivery(t + us(i), &dir, envelope_to(0));
  while (!q.empty()) q.run_next();
  t += us(100);
  for (int i = 0; i < 200; ++i) {
    q.schedule_delivery(t += us(100), &dir, envelope_to(0));
    q.run_next();
  }
  EXPECT_EQ(q.envelope_slab_capacity(), 8u);
}

TEST(EventQueue, CallbackSlabRecyclesSlotsIncludingCancelled) {
  EventQueue q;
  TimeNs t = 0;
  int ran = 0;
  for (int i = 0; i < 500; ++i) {
    q.schedule_at(t += us(50), [&] { ++ran; });
    q.run_next();
  }
  EXPECT_EQ(ran, 500);
  EXPECT_EQ(q.callback_slab_capacity(), 1u);
  // Cancelled timers release their slot too (once swept).
  const auto id = q.schedule_at(t + us(50), [&] { ++ran; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());  // sweep
  q.schedule_at(t + us(60), [&] { ++ran; });
  q.run_next();
  EXPECT_EQ(q.callback_slab_capacity(), 1u);
  EXPECT_EQ(ran, 501);
}

TEST(EventQueue, CancelAfterFireDoesNotAccumulateTombstones) {
  // Regression: cancel() used to blindly insert every id into the
  // cancelled set. Ids of timers that had already fired (the common
  // cancel-on-completion pattern: a response arrives, the guard timer is
  // cancelled) could never be popped off the heap again, so the set grew
  // without bound over the run.
  EventQueue q;
  TimeNs t = 0;
  int ran = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto id = q.schedule_at(t += us(10), [&] { ++ran; });
    q.run_next();
    q.cancel(id);  // fired already: must be a no-op, not a tombstone
  }
  EXPECT_EQ(ran, 10000);
  EXPECT_EQ(q.cancelled_pending(), 0u);
  EXPECT_EQ(q.live_timer_count(), 0u);
}

TEST(EventQueue, CancelDeliveryIdIsNoop) {
  // Delivery events are not cancellable (only the directory detach path
  // drops them); cancelling a delivery's id must not leave a tombstone
  // that suppresses or leaks anything.
  EventQueue q;
  RecordingDirectory dir;
  const auto timer_id = q.schedule_at(20, [] {});
  q.schedule_delivery(10, &dir, envelope_to(0));
  TimeNs at = 0;
  std::uint64_t delivery_id = 0;
  NodeId owner = kNoNode;
  ASSERT_TRUE(q.peek_next(at, delivery_id, owner));
  EXPECT_EQ(owner, 0u);
  EXPECT_FALSE(q.cancel(delivery_id));
  EXPECT_FALSE(q.cancel(timer_id + 1));  // a neighbouring slot, never issued
  EXPECT_EQ(q.cancelled_pending(), 0u);
  q.run_next();
  EXPECT_EQ(dir.fired, (std::vector<NodeId>{0}));
}

TEST(EventQueue, CancelReportsWhetherEventWasLive) {
  EventQueue q;
  const auto id = q.schedule_at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel: already dead
  EXPECT_EQ(q.live_timer_count(), 0u);
  // The single tombstone for the live cancel drains with the heap entry.
  EXPECT_LE(q.cancelled_pending(), 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.cancelled_pending(), 0u);
}

TEST(EventQueue, LiveTimerCountTracksScheduleFireAndCancel) {
  EventQueue q;
  const auto a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.live_timer_count(), 2u);
  q.run_next();
  EXPECT_EQ(q.live_timer_count(), 1u);
  q.cancel(a);  // fired: no-op
  EXPECT_EQ(q.live_timer_count(), 1u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(q.live_timer_count(), 0u);
}

TEST(EventQueue, CancelAfterRescheduleOnlyHitsTheOldId) {
  // A cancelled id must never suppress a different, live event that
  // happens to reuse the same slab slot.
  EventQueue q;
  int a = 0, b = 0;
  const auto ida = q.schedule_at(10, [&] { ++a; });
  q.run_next();                            // slot freed
  const auto idb = q.schedule_at(20, [&] { ++b; });  // reuses the slot
  q.cancel(ida);                           // already fired: harmless no-op
  EXPECT_FALSE(q.empty());
  q.run_next();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  q.cancel(idb);  // already fired: harmless no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelThenReuseTheSlot) {
  // A cancelled entry parks its slot until it surfaces; the slot is then
  // recycled. The stale entry never fires, and its id cannot reach the
  // slot's new occupant.
  EventQueue q;
  int a = 0, b = 0;
  const auto ida = q.schedule_at(10, [&] { ++a; });
  EXPECT_TRUE(q.cancel(ida));
  EXPECT_EQ(q.cancelled_pending(), 1u);
  EXPECT_TRUE(q.empty());  // the stale entry surfaces, is skipped, freed
  EXPECT_EQ(q.cancelled_pending(), 0u);
  const auto idb = q.schedule_at(20, [&] { ++b; });
  EXPECT_EQ(q.callback_slab_capacity(), 1u);  // b took a's slot
  EXPECT_NE(idb, ida);
  EXPECT_FALSE(q.cancel(ida));
  EXPECT_EQ(q.run_next(), 20);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledEntriesAreSkippedInEveryTier) {
  // One cancelled timer per tier: the ring (near future), the spill heap
  // (beyond the ~537 ms horizon) and the side heap (scheduled into the
  // tick being drained). None fires; every parked slot is reclaimed.
  EventQueue q;
  std::vector<int> order;
  std::uint64_t side = 0;
  q.schedule_at(us(10), [&] {
    order.push_back(0);
    side = q.schedule_at(us(20), [&] { order.push_back(-1); });
    q.schedule_at(us(30), [&] { order.push_back(3); });
    q.cancel(side);
  });
  const auto ring = q.schedule_at(ms(5), [&] { order.push_back(-2); });
  const auto spill = q.schedule_at(ms(2000), [&] { order.push_back(-3); });
  q.schedule_at(ms(3000), [&] { order.push_back(4); });
  EXPECT_EQ(q.spill_size(), 2u);
  EXPECT_TRUE(q.cancel(ring));
  EXPECT_TRUE(q.cancel(spill));
  EXPECT_EQ(q.live_timer_count(), 2u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4}));
  EXPECT_EQ(q.cancelled_pending(), 0u);
  EXPECT_EQ(q.live_timer_count(), 0u);
  EXPECT_FALSE(q.cancel(side));
}

TEST(EventQueue, RingFollowsTheClockPastAFarFirstEvent) {
  // Regression: the ring only re-anchored when it poured a bucket, so a
  // run whose first event lay beyond the horizon kept the ring parked at
  // tick 0 and spilled every later event into the heap.
  EventQueue q;
  RecordingDirectory dir;
  q.schedule_delivery(ms(2000), &dir, envelope_to(0));
  EXPECT_EQ(q.spill_size(), 1u);
  EXPECT_EQ(q.run_next(), ms(2000));
  for (NodeId i = 1; i <= 100; ++i) {
    q.schedule_delivery(ms(2000) + us(100) * i, &dir, envelope_to(i));
  }
  EXPECT_EQ(q.spill_size(), 0u);
  std::vector<TimeNs> fire_times;
  while (!q.empty()) fire_times.push_back(q.run_next());
  EXPECT_EQ(fire_times.size(), 100u);
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  EXPECT_TRUE(std::is_sorted(dir.fired.begin(), dir.fired.end()));
}

TEST(EventQueue, SpilledEventsMoveIntoTheRingAsTheHorizonPasses) {
  EventQueue q;
  RecordingDirectory dir;
  q.schedule_delivery(ms(1), &dir, envelope_to(0));
  q.schedule_delivery(ms(400), &dir, envelope_to(1));
  q.schedule_delivery(ms(900), &dir, envelope_to(2));
  q.schedule_delivery(ms(1300), &dir, envelope_to(3));
  EXPECT_EQ(q.spill_size(), 2u);
  EXPECT_EQ(q.run_next(), ms(1));
  EXPECT_EQ(q.spill_size(), 2u);
  EXPECT_EQ(q.run_next(), ms(400));
  EXPECT_EQ(q.spill_size(), 1u);  // 900 ms is now within the horizon
  EXPECT_EQ(q.run_next(), ms(900));
  EXPECT_EQ(q.spill_size(), 0u);
  EXPECT_EQ(q.run_next(), ms(1300));
  EXPECT_EQ(dir.fired, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(EventQueue, RingScratchStaysBoundedAfterABurst) {
  // 64 deliveries in each of 1024 buckets: the ring keeps one drain vector
  // sized for the largest bucket, not storage in every bucket it touched.
  EventQueue q;
  RecordingDirectory dir;
  for (TimeNs b = 1; b <= 1024; ++b) {
    for (TimeNs i = 0; i < 64; ++i) {
      q.schedule_delivery(b * us(200) + i, &dir, envelope_to(0));
    }
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(dir.fired.size(), 64u * 1024u);
  EXPECT_LE(q.ring_scratch_capacity(), 128u);
}

}  // namespace
}  // namespace lyra::sim
