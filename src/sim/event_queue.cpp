#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/process.hpp"

namespace lyra::sim {

namespace {
/// A recycled slot of `slab`, or a fresh one at its end.
template <class Slab>
std::uint32_t take_slot(Slab& slab, std::vector<std::uint32_t>& free_slots,
                        std::size_t limit) {
  if (free_slots.empty()) {
    LYRA_ASSERT(slab.size() < limit, "event slab exhausted");
    slab.emplace_back();
    return static_cast<std::uint32_t>(slab.size() - 1);
  }
  const std::uint32_t slot = free_slots.back();
  free_slots.pop_back();
  return slot;
}
}  // namespace

std::uint64_t EventQueue::schedule_at(TimeNs at, Callback fn, NodeId owner) {
  return schedule_call(at, std::move(fn), nullptr, 0, owner);
}

std::uint64_t EventQueue::schedule_for(TimeNs at, Process* proc,
                                       std::uint64_t token, Callback fn) {
  return schedule_call(at, std::move(fn), proc, token, proc->id());
}

std::uint64_t EventQueue::schedule_call(TimeNs at, Callback fn, Process* proc,
                                        std::uint64_t token, NodeId owner) {
  const std::uint32_t slot = take_slot(calls_, call_free_, kSlotMask + 1);
  CallSlot& c = calls_[slot];
  c.fn = std::move(fn);
  c.proc = proc;
  c.token = token;
  c.at = at;
  c.id = (next_seq() << kSlotBits) | slot;
  c.owner = owner;
  ++live_calls_;
  place(Ref{at, c.id, slot | kCallTag});
  return c.id;
}

void EventQueue::schedule_delivery(TimeNs at, ProcessDirectory* dir,
                                   Envelope env) {
  const std::uint64_t id = next_seq() << kSlotBits;
  const std::uint32_t slot = take_slot(deliveries_, delivery_free_, kCallTag);
  DeliverySlot& d = deliveries_[slot];
  d.env = std::move(env);
  d.env.delivered_at = at;
  d.dir = dir;
  d.id = id;
  place(Ref{at, id, slot});
}

void EventQueue::place(const Ref& ref) const {
  const std::uint64_t tick = tick_of(ref.at);
  if (tick <= drain_tick_) {
    // Same tick as (or earlier than) the bucket being drained: the bucket
    // is already sorted, so late arrivals go through the side heap.
    drain_extra_.push_back(ref);
    std::push_heap(drain_extra_.begin(), drain_extra_.end(), RefAfter{});
  } else if (tick - drain_tick_ <= kBucketCount) {
    link(ref.slot, tick);
  } else {
    far_.push_back(ref);
    std::push_heap(far_.begin(), far_.end(), RefAfter{});
  }
}

void EventQueue::link(std::uint32_t slot, std::uint64_t tick) const {
  const std::size_t idx = static_cast<std::size_t>(tick & kBucketMask);
  if (heads_[idx] == kNil) bucket_bits_[idx >> 6] |= 1ull << (idx & 63);
  next_of(slot) = heads_[idx];
  heads_[idx] = slot;
  ++wheel_count_;
}

bool EventQueue::cancel(std::uint64_t id) {
  const std::size_t slot = static_cast<std::size_t>(id & kSlotMask);
  if (slot >= calls_.size() || calls_[slot].id != id) return false;
  CallSlot& c = calls_[slot];
  c.id = kDeadId;   // its entry is skipped when it surfaces
  c.fn = nullptr;   // release captured state now
  c.proc = nullptr;
  --live_calls_;
  ++dead_pending_;
  return true;
}

void EventQueue::discard(const Ref& ref) const {
  call_free_.push_back(ref.slot & ~kCallTag);
  --dead_pending_;
}

std::uint64_t EventQueue::find_next_bucket_tick() const {
  // wheel_count_ > 0, so a set bit exists. Ring-scan the bitmap a word at
  // a time starting just past drain_tick_; the first set bit in ring order
  // is the earliest live tick because the window holds one tick per slot.
  const std::size_t start =
      static_cast<std::size_t>((drain_tick_ + 1) & kBucketMask);
  constexpr std::size_t kWords = kBucketCount / 64;
  std::size_t word = start >> 6;
  std::uint64_t bits = bucket_bits_[word] & (~0ull << (start & 63));
  for (std::size_t scanned = 0;;) {
    if (bits != 0) {
      const std::size_t idx =
          (word << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
      // Map the ring index back to the absolute tick in the window
      // (drain_tick_, drain_tick_ + kBucketCount].
      const std::uint64_t base = drain_tick_ + 1;
      std::uint64_t tick = (base & ~kBucketMask) + idx;
      if (tick < base) tick += kBucketCount;
      return tick;
    }
    word = (word + 1) & (kWords - 1);
    scanned += 64;
    LYRA_ASSERT(scanned <= kBucketCount, "wheel bitmap scan found no bucket");
    bits = bucket_bits_[word];
  }
}

bool EventQueue::refill() const {
  while (drain_sorted_.empty()) {
    if (wheel_count_ > 0) {
      // Pour the next bucket into the drain.
      const std::uint64_t tick = find_next_bucket_tick();
      const std::size_t idx = static_cast<std::size_t>(tick & kBucketMask);
      for (std::uint32_t s = heads_[idx]; s != kNil; s = next_of(s)) {
        const Ref ref = (s & kCallTag)
                            ? Ref{calls_[s & ~kCallTag].at,
                                  calls_[s & ~kCallTag].id, s}
                            : Ref{deliveries_[s].env.delivered_at,
                                  deliveries_[s].id, s};
        LYRA_ASSERT(tick_of(ref.at) == tick, "bucket holds a foreign tick");
        if (ref.id == kDeadId) {
          discard(ref);
        } else {
          drain_sorted_.push_back(ref);
        }
        --wheel_count_;
      }
      heads_[idx] = kNil;
      bucket_bits_[idx >> 6] &= ~(1ull << (idx & 63));
      std::sort(drain_sorted_.begin(), drain_sorted_.end(),
                [](const Ref& a, const Ref& b) { return RefAfter{}(b, a); });
      drain_tick_ = tick;
    } else if (!far_.empty()) {
      // The ring ran dry: re-anchor it just below the earliest spilled
      // event, so its horizon covers that event again.
      drain_tick_ = tick_of(far_.front().at) - 1;
    } else {
      return false;
    }
    // Move the spilled events the horizon now covers into the ring.
    while (!far_.empty() &&
           tick_of(far_.front().at) - drain_tick_ <= kBucketCount) {
      const Ref ref = far_.front();
      std::pop_heap(far_.begin(), far_.end(), RefAfter{});
      far_.pop_back();
      if (live(ref)) {
        link(ref.slot, tick_of(ref.at));
      } else {
        discard(ref);
      }
    }
  }
  return true;
}

bool EventQueue::peek(Ref& out) const {
  for (;;) {
    if (drain_extra_.empty() && !refill()) return false;
    // Side-heap entries sit at ticks <= drain_tick_, the ring after it and
    // the spill heap beyond the ring: the earliest event is the drain front
    // or the side-heap top.
    front_in_extra_ =
        drain_sorted_.empty() ||
        (!drain_extra_.empty() &&
         RefAfter{}(drain_sorted_[drain_pos_], drain_extra_.front()));
    const Ref front =
        front_in_extra_ ? drain_extra_.front() : drain_sorted_[drain_pos_];
    if (live(front)) {
      out = front;
      return true;
    }
    take_front();
    discard(front);
  }
}

void EventQueue::take_front() const {
  if (front_in_extra_) {
    std::pop_heap(drain_extra_.begin(), drain_extra_.end(), RefAfter{});
    drain_extra_.pop_back();
  } else if (++drain_pos_ == drain_sorted_.size()) {
    drain_sorted_.clear();
    drain_pos_ = 0;
  }
}

bool EventQueue::peek_next(TimeNs& at, std::uint64_t& id,
                           NodeId& owner) const {
  Ref ref;
  if (!peek(ref)) return false;
  at = ref.at;
  id = ref.id;
  owner = (ref.slot & kCallTag) ? calls_[ref.slot & ~kCallTag].owner
                                : deliveries_[ref.slot].env.to;
  return true;
}

void EventQueue::take(const Ref& ref, Popped& out) {
  take_front();
  out.at = ref.at;
  out.id = ref.id;
  out.is_delivery = !(ref.slot & kCallTag);
  // Slots are recycled before the event runs, so it can reuse them.
  if (out.is_delivery) {
    DeliverySlot& d = deliveries_[ref.slot];
    out.owner = d.env.to;
    out.env = std::move(d.env);
    out.dir = d.dir;
    delivery_free_.push_back(ref.slot);
    return;
  }
  CallSlot& c = calls_[ref.slot & ~kCallTag];
  out.owner = c.owner;
  out.fn = std::move(c.fn);
  c.fn = nullptr;
  out.proc = c.proc;
  out.token = c.token;
  c.id = kDeadId;
  call_free_.push_back(ref.slot & ~kCallTag);
  --live_calls_;
}

void EventQueue::run_call(Process* proc, std::uint64_t token, Callback& fn) {
  if (proc == nullptr) {
    fn();
  } else if (token == 0) {
    proc->pump();
  } else {
    proc->run_timer(token, fn);
  }
}

bool EventQueue::run_next_due(TimeNs deadline, TimeNs& clock) {
  Ref ref;
  if (!peek(ref) || ref.at > deadline) return false;
  Popped p;
  take(ref, p);
  clock = p.at;
  if (!p.is_delivery) {
    run_call(p.proc, p.token, p.fn);
    return true;
  }
  // Resolve the destination now: the process registered at send time may
  // have crashed (slot vacant -> drop) or restarted (new object).
  if (Process* dest = p.dir->process_at(p.env.to); dest != nullptr) {
    dest->deliver(std::move(p.env));
  } else {
    ++deliveries_dropped_;
  }
  return true;
}

}  // namespace lyra::sim
