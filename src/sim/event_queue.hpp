#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/message.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace lyra::sim {

class Process;

/// Resolves a process id to the process currently registered under it (or
/// nullptr while the slot is vacant). Implemented by net::Network. Message
/// deliveries hold a directory + id instead of a raw Process*, so a process
/// can be torn down (simulated crash) and re-registered (restart) while
/// deliveries to it are in flight: the destination is resolved at delivery
/// time, and a vacant slot simply drops the message.
class ProcessDirectory {
 public:
  virtual ~ProcessDirectory() = default;
  virtual Process* process_at(NodeId id) const = 0;
};

/// Deterministic discrete-event queue. Events at equal times fire in
/// insertion order (a monotone sequence number breaks ties), so a run is a
/// pure function of the initial seed and configuration.
///
/// One calendar holds every event kind — message deliveries and calls
/// (process CPU pumps, process timers, harness callbacks) — under one id
/// space, so the (at, id) order spans them all. Payloads live in two
/// recycled slabs; the tiers move 24-byte {at, id, slot} handles:
///
///  * Ring: 4096 buckets of 2^17 ns (~537 ms horizon). A bucket is a list
///    threaded through the slabs' `next` links, so the ring owns no storage;
///    when the clock reaches a bucket it is copied into one drain vector
///    and sorted once.
///  * Side heap: events at or behind the tick being drained.
///  * Spill heap: events beyond the horizon. They move into the ring as the
///    horizon reaches them, and a ring that runs dry re-anchors just below
///    the earliest of them, so the ring follows the clock however far it
///    jumps.
///
/// A call's id carries its slot in the low kSlotBits, so cancel() is a slab
/// lookup; the cancelled entry is skipped, and its slot recycled, when it
/// surfaces.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() { heads_.fill(kNil); }

  /// Schedules `fn` at absolute time `at`. Returns an id usable by cancel().
  /// `owner` tags the event with the process whose state the callback
  /// touches (kNoNode for harness-level control callbacks); the parallel
  /// executor shards events by owner and treats ownerless ones as barriers.
  std::uint64_t schedule_at(TimeNs at, Callback fn, NodeId owner = kNoNode);

  /// Schedules a call owned by `proc`: its CPU pump when `token` is 0, else
  /// its timer `token` running `fn`. Returns an id usable by cancel().
  std::uint64_t schedule_for(TimeNs at, Process* proc, std::uint64_t token,
                             Callback fn = {});

  /// Schedules the delivery of `env` (to `env.to`, resolved through `dir`
  /// at delivery time) at `at`. Not cancellable. `at` must not precede the
  /// time of the last event run. The event's owner is env.to.
  void schedule_delivery(TimeNs at, ProcessDirectory* dir, Envelope env);

  /// Cancels a scheduled call. Cancelling a fired or unknown id is a no-op;
  /// returns true when a live event was actually cancelled (the parallel
  /// executor uses false to chase events it has already popped).
  bool cancel(std::uint64_t id);

  /// True when no live (non-cancelled) event remains.
  bool empty() const {
    Ref ref;
    return !peek(ref);
  }

  /// Time of the next live event; kNoSeq if empty.
  TimeNs next_time() const {
    Ref ref;
    return peek(ref) ? ref.at : kNoSeq;
  }

  /// Key and owner of the next live event, without popping it; false when
  /// empty. The parallel executor uses it to test its lookahead window.
  bool peek_next(TimeNs& at, std::uint64_t& id, NodeId& owner) const;

  /// One popped event: a call fills (`fn`, `proc`, `token`) and runs through
  /// run_call(); a delivery fills (`env`, `dir`).
  struct Popped {
    TimeNs at = 0;
    std::uint64_t id = 0;
    NodeId owner = kNoNode;
    bool is_delivery = false;
    Callback fn;
    Process* proc = nullptr;
    std::uint64_t token = 0;
    Envelope env;
    ProcessDirectory* dir = nullptr;
  };

  /// Pops the next live event without running it; its slot is recycled and
  /// the payload moved into `out`. Must not be called on an empty queue.
  void pop_next(Popped& out) {
    Ref ref;
    LYRA_ASSERT(peek(ref), "pop_next on empty queue");
    take(ref, out);
  }

  /// Runs a popped call: a harness callback (no proc), a process pump
  /// (token 0) or a process timer.
  static void run_call(Process* proc, std::uint64_t token, Callback& fn);

  /// Pops and runs the next live event; returns its time.
  /// Must not be called on an empty queue.
  TimeNs run_next() {
    TimeNs at = 0;
    LYRA_ASSERT(run_next_due(std::numeric_limits<TimeNs>::max(), at),
                "run_next on empty queue");
    return at;
  }

  /// The run loop's step, one peek per event: when the next live event is
  /// due by `deadline`, sets `clock` to its time, runs it and returns true.
  bool run_next_due(TimeNs deadline, TimeNs& clock);

  /// Deliveries resolved to a vacant slot by an external executor (the
  /// parallel path resolves destinations on worker threads and reports
  /// drops back here so the counter keeps one meaning).
  void note_delivery_dropped() { ++deliveries_dropped_; }

  /// Deliveries whose destination slot was vacant at delivery time
  /// (messages in flight to a crashed process).
  std::uint64_t deliveries_dropped() const { return deliveries_dropped_; }

  // --- introspection (tests and perf diagnostics) ---
  /// Slab high-water marks: the slabs never shrink, they only recycle.
  std::size_t envelope_slab_capacity() const { return deliveries_.size(); }
  std::size_t callback_slab_capacity() const { return calls_.size(); }
  /// Cancelled calls whose entries have not surfaced yet.
  std::size_t cancelled_pending() const { return dead_pending_; }
  /// Calls (timers, pumps, callbacks) neither fired nor cancelled.
  std::size_t live_timer_count() const { return live_calls_; }
  /// Entries waiting beyond the ring's horizon.
  std::size_t spill_size() const { return far_.size(); }
  /// Handles the drain and side heap keep allocated (the ring has none).
  std::size_t ring_scratch_capacity() const {
    return drain_sorted_.capacity() + drain_extra_.capacity();
  }

 private:
  /// Ordering key plus slab slot (kCallTag set for the call slab).
  struct Ref {
    TimeNs at;
    std::uint64_t id;
    std::uint32_t slot;
  };
  /// (at, id) descending: the min-heap order, and flipped, the firing order.
  struct RefAfter {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  static constexpr std::uint32_t kNil = ~0u;
  static constexpr std::uint32_t kCallTag = 1u << 31;
  // Ids are (sequence << kSlotBits) | call slot (0 for deliveries).
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kDeadId = ~0ull;

  // 4096 buckets x 2^17 ns (~131 us) = ~537 ms horizon, past WAN latencies.
  static constexpr int kBucketShift = 17;
  static constexpr std::size_t kBucketCount = 4096;
  static constexpr std::uint64_t kBucketMask = kBucketCount - 1;

  static std::uint64_t tick_of(TimeNs at) {
    return at < 0 ? 0 : static_cast<std::uint64_t>(at) >> kBucketShift;
  }

  struct DeliverySlot {
    Envelope env;  // env.delivered_at is the event time
    ProcessDirectory* dir = nullptr;
    std::uint64_t id = 0;
    std::uint32_t next = kNil;  // ring bucket link
  };
  struct CallSlot {
    Callback fn;
    Process* proc = nullptr;
    std::uint64_t token = 0;
    TimeNs at = 0;
    std::uint64_t id = kDeadId;  // kDeadId while free or cancelled
    std::uint32_t next = kNil;   // ring bucket link
    NodeId owner = kNoNode;
  };

  std::uint64_t next_seq() {
    LYRA_ASSERT(seq_ < (kDeadId >> kSlotBits), "event sequence exhausted");
    return seq_++;
  }
  std::uint64_t schedule_call(TimeNs at, Callback fn, Process* proc,
                              std::uint64_t token, NodeId owner);
  void place(const Ref& ref) const;
  void link(std::uint32_t slot, std::uint64_t tick) const;
  std::uint32_t& next_of(std::uint32_t slot) const {
    return (slot & kCallTag) ? calls_[slot & ~kCallTag].next
                             : deliveries_[slot].next;
  }
  bool live(const Ref& ref) const {
    return !(ref.slot & kCallTag) || calls_[ref.slot & ~kCallTag].id == ref.id;
  }
  /// Recycles the slot of a cancelled call whose entry just surfaced.
  void discard(const Ref& ref) const;
  /// Earliest live event, recycling cancelled entries on the way.
  bool peek(Ref& out) const;
  void take_front() const;  // pops the entry the last peek() returned
  void take(const Ref& ref, Popped& out);
  /// Pours the next bucket into the exhausted drain; false when none left.
  bool refill() const;
  std::uint64_t find_next_bucket_tick() const;

  // Drain: the sorted bucket at drain_tick_ (below drain_pos_ has fired),
  // plus the side heap for events at ticks <= drain_tick_.
  mutable std::uint64_t drain_tick_ = 0;
  mutable std::vector<Ref> drain_sorted_;
  mutable std::size_t drain_pos_ = 0;
  mutable std::vector<Ref> drain_extra_;  // heap via std::push/pop_heap
  mutable bool front_in_extra_ = false;   // where the last peek() found it

  // Ring: list heads for ticks in (drain_tick_, drain_tick_ + kBucketCount];
  // a bitmap of non-empty buckets speeds up the next-bucket scan.
  mutable std::array<std::uint32_t, kBucketCount> heads_;
  mutable std::array<std::uint64_t, kBucketCount / 64> bucket_bits_{};
  mutable std::size_t wheel_count_ = 0;

  mutable std::vector<Ref> far_;  // spill heap
  mutable std::vector<DeliverySlot> deliveries_;
  mutable std::vector<std::uint32_t> delivery_free_;
  mutable std::vector<CallSlot> calls_;
  mutable std::vector<std::uint32_t> call_free_;

  std::size_t live_calls_ = 0;
  mutable std::size_t dead_pending_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t deliveries_dropped_ = 0;
};

}  // namespace lyra::sim
