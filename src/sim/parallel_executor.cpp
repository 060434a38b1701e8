#include "sim/parallel_executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "support/assert.hpp"

namespace lyra::sim {

namespace internal {
thread_local std::vector<Effect>* t_effect_log = nullptr;
}  // namespace internal

namespace {
/// The task currently executing on this thread (type-erased: Task is
/// private to ParallelExecutor). Used by the RNG gate. Set on workers and
/// on the scheduler while it executes a stolen head inline.
thread_local void* t_current_task = nullptr;
/// The worker this thread is (nullptr on the scheduler): where the RNG
/// gate's blocking path registers so the scheduler can wake exactly it.
thread_local void* t_worker = nullptr;
thread_local void* t_worker_counters = nullptr;

bool choose_inline_mode() {
  if (const char* env = std::getenv("LYRA_PARALLEL_INLINE")) {
    return env[0] == '1';
  }
  return std::thread::hardware_concurrency() <= 1;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

constexpr std::size_t kInboxCapacity = 1024;
constexpr std::size_t kCompletionCapacityPerWorker = 1024;
constexpr int kIdleSpins = 64;
/// Yields an idle worker donates to the scheduler before the full
/// park/notify round-trip. Refills usually land within a scheduler pass
/// or two, and on an oversubscribed host every avoided park saves a lock,
/// a notify, and two context switches.
constexpr int kIdleYields = 32;
}  // namespace

ParallelExecutor::ParallelExecutor(Simulation* sim, unsigned workers,
                                   TimeNs lookahead)
    : sim_(sim),
      worker_count_(workers == 0 ? 1 : workers),
      lookahead_(lookahead),
      inline_mode_(choose_inline_mode()),
      completions_(kCompletionCapacityPerWorker *
                   (workers == 0 ? 1 : workers)) {
  LYRA_ASSERT(lookahead_ > 0, "parallel executor needs a lookahead bound");
}

ParallelExecutor::~ParallelExecutor() {
  if (workers_started_) {
    stop_.store(true, std::memory_order_seq_cst);
    for (auto& w : workers_) {
      { std::lock_guard<std::mutex> lk(w->m); }
      w->cv.notify_all();
    }
    for (auto& w : workers_) w->thread.join();
  }
}

void ParallelExecutor::ensure_workers() {
  if (workers_started_) return;
  workers_started_ = true;
  workers_.reserve(worker_count_);
  worker_counters_.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i) {
    workers_.push_back(std::make_unique<Worker>(kInboxCapacity));
    worker_counters_.push_back(std::make_unique<WorkerCounters>());
  }
  // Start only after the vectors are fully built so worker_main never sees
  // a reallocating container.
  for (unsigned i = 0; i < worker_count_; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
}

ParallelExecutor::Task* ParallelExecutor::acquire_task() {
  if (!task_free_.empty()) {
    Task* t = task_free_.back();
    task_free_.pop_back();
    return t;
  }
  task_pool_.push_back(std::make_unique<Task>());
  return task_pool_.back().get();
}

void ParallelExecutor::recycle(Task* t) {
  t->fn = nullptr;
  t->proc = nullptr;
  t->token = 0;
  t->env = Envelope{};
  t->dir = nullptr;
  t->effects.clear();  // keeps capacity
  t->batch = nullptr;
  t->pos = 0;
  t->owner_seq = 0;
  task_free_.push_back(t);
}

ParallelExecutor::Batch* ParallelExecutor::acquire_batch() {
  if (!batch_free_.empty()) {
    Batch* b = batch_free_.back();
    batch_free_.pop_back();
    b->tasks.clear();  // keeps capacity
    b->first_seq = 0;
    b->epoch = nullptr;
    b->claim.store(Batch::kQueued, std::memory_order_relaxed);
    b->closed.store(false, std::memory_order_relaxed);
    b->settled = 0;
    b->handback_done = false;
    b->acked = false;
    b->finished = false;
    b->recycled = false;
    return b;
  }
  batch_pool_.push_back(std::make_unique<Batch>());
  return batch_pool_.back().get();
}

ParallelExecutor::OwnerState& ParallelExecutor::owner_state(NodeId owner) {
  if (owners_.size() <= owner) owners_.resize(owner + 1);
  OwnerState& os = owners_[owner];
  if (os.epoch == nullptr) os.epoch = std::make_unique<EpochCell>();
  return os;
}

void ParallelExecutor::cancel_event(std::uint64_t id) {
  if (sim_->queue_.cancel(id)) return;
  // The queue no longer knows the id: either the event already fired, or
  // it was popped into the holding/dispatch tiers. With nothing popped
  // and uncommitted, only "already fired" remains, and EventQueue::cancel
  // documents that as a harmless no-op — barrier-context cancels (which
  // only run at full drain) of fired ids land here. Recording them would
  // leave a tombstone no dispatch sweep ever consumes.
  if (held_keys_.empty() && inflight_.empty()) return;
  // Already popped into a holding heap. Timer cancels are always
  // same-owner (apply_cancel_timer, filtered through live_timers_), and
  // the worker-side stop rule closes a batch at the first cancel-timer
  // effect, so a cancellable event is never in an executed position: it
  // is either held now or will be handed back to the holding heap, where
  // the dispatch sweep drops it.
  cancelled_popped_.insert(id);
}

void ParallelExecutor::await_rng_turn() {
  Task* self = static_cast<Task*>(t_current_task);
  LYRA_ASSERT(self != nullptr, "rng gate called outside a task");
  // Inline mode executes in exact global order, so the running task is
  // the head by construction: every draw is already in serial order.
  if (inline_mode_) return;
  auto* c = static_cast<WorkerCounters*>(t_worker_counters);
  if (c != nullptr) c->gate_draws.fetch_add(1, std::memory_order_relaxed);
  // Lock-free fast path: the scheduler publishes the head event id, and
  // the head's holder sails through without a lock.
  if (head_id_.load(std::memory_order_seq_cst) == self->id) return;
  // The scheduler itself only executes the head (stolen batches), which
  // the fast path admits — a blocked caller is always a worker.
  Worker* w = static_cast<Worker*>(t_worker);
  LYRA_ASSERT(w != nullptr, "non-head rng draw outside a worker");
  c->gate_waits.fetch_add(1, std::memory_order_relaxed);
  c->locks.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lk(gate_m_);
  gate_waiting_.emplace(self->id, w);
  gate_waiter_count_.fetch_add(1, std::memory_order_seq_cst);
  w->gate_cv.wait(lk, [&] {
    return head_id_.load(std::memory_order_seq_cst) == self->id;
  });
  gate_waiter_count_.fetch_sub(1, std::memory_order_relaxed);
  gate_waiting_.erase(self->id);
}

void ParallelExecutor::publish_head(bool have, Key h) {
  const std::uint64_t id = have ? h.second : kNoHead;
  if (head_id_.load(std::memory_order_relaxed) == id) return;
  head_id_.store(id, std::memory_order_seq_cst);
  // Wake exactly the head's worker, if it is blocked in the gate. The
  // seq_cst store/load pairing with the waiter's registration guarantees
  // either we see its registration or it sees the new head.
  if (gate_waiter_count_.load(std::memory_order_seq_cst) == 0) return;
  ++sched_stats_.lock_acquisitions;
  std::lock_guard<std::mutex> lk(gate_m_);
  auto it = gate_waiting_.find(id);
  if (it != gate_waiting_.end()) {
    ++sched_stats_.condvar_notifies;
    ++sched_stats_.rng_gate_wakes;
    it->second->gate_cv.notify_one();
  }
}

void ParallelExecutor::execute(Task* t) {
  internal::t_effect_log = &t->effects;
  sim::internal::t_task_now = &t->at;
  t_current_task = t;
  if (t->is_delivery) {
    // Resolve the destination now, exactly where the serial path would:
    // attach/detach only happen in barrier events, which never overlap
    // worker execution.
    if (Process* dest = t->dir->process_at(t->env.to); dest != nullptr) {
      dest->deliver(std::move(t->env));
    } else {
      Effect e;
      e.kind = Effect::Kind::kDeliveryDropped;
      t->effects.push_back(std::move(e));
    }
    t->env = Envelope{};  // release the payload on this thread
  } else {
    EventQueue::run_call(t->proc, t->token, t->fn);
    t->fn = nullptr;
  }
  t_current_task = nullptr;
  sim::internal::t_task_now = nullptr;
  internal::t_effect_log = nullptr;
}

void ParallelExecutor::wake_scheduler_if_parked(WorkerCounters& c) {
  if (!sched_parked_.load(std::memory_order_seq_cst)) return;
  c.locks.fetch_add(1, std::memory_order_relaxed);
  { std::lock_guard<std::mutex> lk(park_m_); }
  c.notifies.fetch_add(1, std::memory_order_relaxed);
  park_cv_.notify_one();
}

void ParallelExecutor::push_completion(WorkerCounters& c, Batch* b) {
  int spins = 0;
  while (!completions_.try_push(b)) {
    // The scheduler drains the ring every pass while running, so fullness
    // is transient — except at teardown, when nobody will ever drain it
    // (the destructor is blocked joining this thread): the ack is
    // meaningless then, drop it. Past the spin budget, yield: on a
    // starved host the scheduler needs this core to do the draining.
    if (stop_.load(std::memory_order_relaxed)) return;
    if (++spins > kIdleSpins) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_scheduler_if_parked(c);
}

void ParallelExecutor::run_batch(WorkerCounters& c, Batch* b) {
  // Earliest same-owner event any executed member has created so far
  // (timers are delays off the member's time; pumps are absolute). If that
  // creation precedes the next member, the serial schedule would run it
  // first — stop and hand the tail back. A cancel-timer effect may target
  // a later member, so it also closes the batch. Equal times are safe to
  // continue: a created event always gets a larger id than the already-
  // queued member, so the member still runs first.
  TimeNs pending_min = std::numeric_limits<TimeNs>::max();
  bool saw_cancel = false;
  const std::size_t n = b->tasks.size();
  for (std::size_t i = 0; i < n; ++i) {
    Task* t = b->tasks[i];
    if (i > 0 && (saw_cancel || pending_min < t->at)) break;
    execute(t);
    for (const Effect& e : t->effects) {
      switch (e.kind) {
        case Effect::Kind::kSetTimer:
          pending_min = std::min(pending_min, t->at + e.t);
          break;
        case Effect::Kind::kSchedulePump:
          pending_min = std::min(pending_min, e.t);
          break;
        case Effect::Kind::kCancelTimer:
          saw_cancel = true;
          break;
        default:
          break;
      }
    }
    // Publish completion: the seq_cst increment pairs with the
    // scheduler's park protocol (it sets sched_parked_ before re-checking
    // the epoch, we bump the epoch before checking sched_parked_ — one
    // side always sees the other). The id must be captured first: once the
    // epoch is bumped the scheduler may commit and recycle *t under us.
    const std::uint64_t done_id = t->id;
    b->epoch->executed.fetch_add(1, std::memory_order_seq_cst);
    if (sched_parked_.load(std::memory_order_seq_cst) &&
        head_id_.load(std::memory_order_relaxed) == done_id) {
      wake_scheduler_if_parked(c);
    }
  }
  b->closed.store(true, std::memory_order_release);
  push_completion(c, b);
}

void ParallelExecutor::worker_main(unsigned index) {
  Worker& w = *workers_[index];
  WorkerCounters& c = *worker_counters_[index];
  t_worker = &w;
  t_worker_counters = &c;
  for (;;) {
    Batch* b = nullptr;
    if (!w.inbox.try_pop(b)) {
      for (int s = 0; s < kIdleSpins && !w.inbox.try_pop(b); ++s) {
        cpu_relax();
      }
    }
    if (b == nullptr && !stop_.load(std::memory_order_relaxed)) {
      for (int y = 0; y < kIdleYields && !w.inbox.try_pop(b); ++y) {
        std::this_thread::yield();
        if (stop_.load(std::memory_order_relaxed)) break;
      }
    }
    if (b == nullptr) {
      if (stop_.load(std::memory_order_relaxed)) return;
      c.locks.fetch_add(1, std::memory_order_relaxed);
      c.parks.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lk(w.m);
      w.parked.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      w.cv.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) || !w.inbox.empty();
      });
      w.parked.store(false, std::memory_order_relaxed);
      if (stop_.load(std::memory_order_relaxed)) return;
      continue;
    }
    std::uint8_t expected = Batch::kQueued;
    if (!b->claim.compare_exchange_strong(expected, Batch::kRunning,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      // The scheduler stole this batch before we started it; acknowledge
      // so it can be recycled.
      push_completion(c, b);
      continue;
    }
    run_batch(c, b);
  }
}

void ParallelExecutor::apply(Task* t) {
  sim_->now_ = t->at;
  for (Effect& e : t->effects) {
    switch (e.kind) {
      case Effect::Kind::kSend:
        e.transport->send(e.from, e.to, std::move(e.payload));
        break;
      case Effect::Kind::kSendAll:
        e.transport->send_all(e.from, std::move(e.payload));
        break;
      case Effect::Kind::kSetTimer:
        e.proc->apply_set_timer(e.token, e.t, std::move(e.fn));
        break;
      case Effect::Kind::kCancelTimer:
        e.proc->apply_cancel_timer(e.token);
        break;
      case Effect::Kind::kTimerFired:
        e.proc->apply_timer_fired(e.token);
        break;
      case Effect::Kind::kSchedulePump:
        e.proc->apply_schedule_pump(e.t);
        break;
      case Effect::Kind::kTrace:
        sim_->trace_.record(t->at, e.from, std::move(e.text_a),
                            std::move(e.text_b));
        break;
      case Effect::Kind::kDeliveryDropped:
        sim_->queue_.note_delivery_dropped();
        break;
    }
  }
}

void ParallelExecutor::settle(Batch* b, std::uint32_t count) {
  b->settled += count;
  LYRA_ASSERT(b->settled <= b->tasks.size(), "batch settled past its size");
  if (b->settled == b->tasks.size() && !b->finished) {
    for (Task* m : b->tasks) {
      // A member pointer may be stale (committed members are recycled and
      // reused while the batch lives on) — only a task that still claims
      // membership can expose a premature finish.
      LYRA_ASSERT(m->batch != b || inflight_.count(Key{m->at, m->id}) == 0,
                  "batch finished with a member still in flight");
    }
    b->finished = true;
    OwnerState& os = owner_state(b->owner);
    os.busy = false;
    if (!os.held.empty()) ready_.push_back(b->owner);
    try_recycle(b);
  }
}

void ParallelExecutor::try_recycle(Batch* b) {
  // Idempotent: both drain_completions and the settle that finishes the
  // batch can observe finished && acked for the same batch (the drain sets
  // acked before a handback whose settle may finish it) — the free list
  // must see it once.
  if (b->finished && b->acked && !b->recycled) {
    b->recycled = true;
    batch_free_.push_back(b);
  }
}

void ParallelExecutor::handback(Batch* b) {
  if (b->handback_done) return;
  b->handback_done = true;
  // closed was acquired-loaded (via the completion ring pop), so the epoch
  // value is the worker's final word on how far it got.
  const std::uint64_t executed =
      b->epoch->executed.load(std::memory_order_acquire) -
      (b->first_seq - 1);
  const std::size_t n = b->tasks.size();
  if (executed >= n) return;  // fully executed, nothing to hand back
  OwnerState& os = owner_state(b->owner);
  for (std::size_t i = executed; i < n; ++i) {
    Task* t = b->tasks[i];
    LYRA_ASSERT(t->batch == b, "handing back a task the batch does not own");
    const bool was = inflight_.erase(Key{t->at, t->id}) > 0;
    LYRA_ASSERT(was, "handed-back task was not in flight");
    t->batch = nullptr;
    t->owner_seq = 0;
    os.held.push(t);
    held_keys_.insert(Key{t->at, t->id});
  }
  // Rewind the dispatch ordinals so the re-dispatched tail lines up with
  // the owner's epoch again.
  const std::uint32_t returned = static_cast<std::uint32_t>(n - executed);
  os.next_seq -= returned;
  LYRA_ASSERT(os.next_seq == b->epoch->executed.load(),
              "handback rewind drifted from the owner's epoch");
  ++sched_stats_.batch_handbacks;
  sched_stats_.tasks_handed_back += returned;
  settle(b, returned);
}

void ParallelExecutor::drain_completions() {
  Batch* b = nullptr;
  while (completions_.try_pop(b)) {
    b->acked = true;
    if (b->claim.load(std::memory_order_acquire) == Batch::kStolen) {
      // Ack of a stolen batch: the steal path already re-helded and
      // settled its members; the worker has now dropped its reference.
      try_recycle(b);
      continue;
    }
    handback(b);  // no-op when every member was executed
    try_recycle(b);
  }
}

std::uint64_t ParallelExecutor::run_inline(TimeNs deadline,
                                           std::uint64_t max_events) {
  // No workers, no windows: pop the global minimum, run it through the
  // same execute/apply pipeline, commit immediately. Nothing is ever held
  // outside the queue, so cancels always resolve in the queue itself and
  // cancelled_popped_ stays empty.
  std::uint64_t executed = 0;
  for (;;) {
    TimeNs at;
    std::uint64_t id;
    NodeId owner;
    if (!sim_->queue_.peek_next(at, id, owner)) break;
    if (at > deadline) break;
    LYRA_ASSERT(executed < max_events,
                "event budget exhausted: livelock or unbounded protocol");
    EventQueue::Popped p;
    sim_->queue_.pop_next(p);
    if (owner == kNoNode) {
      LYRA_ASSERT(!p.is_delivery, "delivery events always have an owner");
      sim_->now_ = p.at;
      p.fn();
      ++executed;
      ++sched_stats_.barrier_events;
      continue;
    }
    Task* t = acquire_task();
    t->at = p.at;
    t->id = p.id;
    t->owner = p.owner;
    t->is_delivery = p.is_delivery;
    t->fn = std::move(p.fn);
    t->proc = p.proc;
    t->token = p.token;
    t->env = std::move(p.env);
    t->dir = p.dir;
    execute(t);
    apply(t);
    ++executed;
    ++sched_stats_.tasks_committed;
    recycle(t);
  }
  LYRA_ASSERT(cancelled_popped_.empty(),
              "inline run accumulated popped-event cancels");
  return executed;
}

std::uint64_t ParallelExecutor::run(TimeNs deadline,
                                    std::uint64_t max_events) {
  if (inline_mode_) return run_inline(deadline, max_events);
  ensure_workers();
  std::uint64_t executed = 0;
  for (;;) {
    bool progressed = false;

    // --- completion phase: drain the workers' ring. Closed batches that
    // stopped early hand their unexecuted tail back to the holding heaps
    // here, so a same-owner event created by an early member is dispatched
    // before the tail re-runs — exactly the serial order. ---
    drain_completions();

    // --- commit phase: apply finished tasks in global (at, id) order.
    // The oldest in-flight task is committable only when NO queued or held
    // event precedes it: an apply can create a timer or pump for a
    // now-idle owner at a time earlier than other in-flight tasks, and
    // that event must be dispatched and committed first. Per-task
    // completion is polled through the owner's atomic epoch counter — no
    // lock on this path. ---
    for (;;) {
      if (inflight_.empty()) break;
      auto it = inflight_.begin();
      Key other{};
      bool have_other = false;
      {
        TimeNs at;
        std::uint64_t id;
        NodeId owner;
        if (sim_->queue_.peek_next(at, id, owner)) {
          other = Key{at, id};
          have_other = true;
        }
      }
      if (!held_keys_.empty() &&
          (!have_other || *held_keys_.begin() < other)) {
        other = *held_keys_.begin();
        have_other = true;
      }
      if (have_other && other < it->first) break;
      Task* t = it->second;
      if (!task_done(t)) break;  // running or queued; steal/park decides
      LYRA_ASSERT(t->batch != nullptr && t->pos < t->batch->tasks.size() &&
                      t->batch->tasks[t->pos] == t,
                  "committing a task that is not a member of its batch");
      LYRA_ASSERT(executed < max_events,
                  "event budget exhausted: livelock or unbounded protocol");
      apply(t);
      ++executed;
      ++sched_stats_.tasks_committed;
      inflight_.erase(it);
      Batch* b = t->batch;
      recycle(t);
      settle(b, 1);
      progressed = true;
    }

    // --- refill phase: pop the queue into the holding heaps, bounded by
    // the lookahead window anchored at the oldest uncommitted event ---
    TimeNs window_base = 0;
    bool have_base = false;
    if (!inflight_.empty()) {
      window_base = inflight_.begin()->first.first;
      have_base = true;
    }
    if (!held_keys_.empty() &&
        (!have_base || held_keys_.begin()->first < window_base)) {
      window_base = held_keys_.begin()->first;
      have_base = true;
    }
    for (;;) {
      TimeNs at;
      std::uint64_t id;
      NodeId owner;
      if (!sim_->queue_.peek_next(at, id, owner)) break;
      if (at > deadline) break;
      if (owner == kNoNode) break;  // barrier fences the window
      // The window base is the oldest UNCOMMITTED event, and the queue
      // front is part of that minimum: a commit may have just created an
      // event older than everything held or in flight (a short self-
      // delivery, a fast timer), and anchoring the window above it would
      // pop events more than one delivery floor past it — events a send
      // of that older event's commit could still undercut. Pops arrive in
      // (time, id) order, so only the first can lower the base.
      if (!have_base || at < window_base) {
        window_base = at;
        have_base = true;
      }
      if (at - window_base >= lookahead_) break;
      Task* t = acquire_task();
      EventQueue::Popped p;
      sim_->queue_.pop_next(p);
      LYRA_ASSERT(p.id == id, "refill popped a different event than peeked");
      t->at = p.at;
      t->id = p.id;
      t->owner = p.owner;
      t->is_delivery = p.is_delivery;
      t->fn = std::move(p.fn);
      t->proc = p.proc;
      t->token = p.token;
      t->env = std::move(p.env);
      t->dir = p.dir;
      owner_state(owner).held.push(t);
      held_keys_.insert(Key{at, id});
      ready_.push_back(owner);
    }

    // --- dispatch phase: hand each ready idle owner its entire held
    // slice as one batch, through its worker's lock-free inbox ring ---
    bool pushed_any = false;
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      const NodeId owner = ready_[i];
      OwnerState& os = owner_state(owner);
      if (os.busy || os.held.empty()) continue;
      LYRA_ASSERT(os.next_seq == os.epoch->executed.load(),
                  "idle owner's dispatch ordinal drifted from its epoch");
      Batch* b = acquire_batch();
      b->owner = owner;
      b->epoch = os.epoch.get();
      b->first_seq = os.next_seq + 1;
      while (!os.held.empty()) {
        Task* t = os.held.top();
        os.held.pop();
        held_keys_.erase(Key{t->at, t->id});
        // A cancelled timer never runs and never counts. The check must be
        // per member, not just at the heap top: the cancelled event's key
        // is larger than its canceller's, so other held events can sit
        // above it in the heap.
        if (cancelled_popped_.erase(t->id) > 0) {
          recycle(t);
          continue;
        }
        t->owner_seq = ++os.next_seq;
        t->batch = b;
        t->pos = static_cast<std::uint32_t>(b->tasks.size());
        b->tasks.push_back(t);
        const bool fresh = inflight_.emplace(Key{t->at, t->id}, t).second;
        LYRA_ASSERT(fresh, "dispatched a task already in flight");
      }
      if (b->tasks.empty()) {
        batch_free_.push_back(b);  // every held event was a dead cancel
        continue;
      }
      os.busy = true;
      ++sched_stats_.batches_dispatched;
      sched_stats_.tasks_dispatched += b->tasks.size();
      Worker& w = *workers_[owner % worker_count_];
      // Preserve per-worker FIFO order: drain any spill-over first.
      if (!w.overflow.empty() || !w.inbox.try_push(b)) {
        w.overflow.push_back(b);
        ++sched_stats_.inbox_full_retries;
      } else {
        w.poked = true;
      }
      pushed_any = true;
      progressed = true;
    }
    ready_.clear();
    for (auto& wp : workers_) {
      while (!wp->overflow.empty() &&
             wp->inbox.try_push(wp->overflow.front())) {
        wp->overflow.pop_front();
        wp->poked = true;
        pushed_any = true;
      }
    }
    if (pushed_any) {
      // Dekker pairing with the worker park path: it sets parked before
      // re-checking its inbox; we push before checking parked.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      // Only workers whose inbox actually received a batch this pass can
      // need a wake; notifying every parked worker would pay a lock and a
      // notify per worker per pass for nothing.
      for (auto& wp : workers_) {
        if (!wp->poked) continue;
        wp->poked = false;
        if (wp->parked.load(std::memory_order_seq_cst)) {
          ++sched_stats_.lock_acquisitions;
          { std::lock_guard<std::mutex> lk(wp->m); }
          ++sched_stats_.condvar_notifies;
          wp->cv.notify_one();
        }
      }
    }

    // --- publish the head (oldest uncommitted event) for the RNG gate.
    // From here until that event commits, the scheduler creates no new
    // events, so the published id cannot be undercut. ---
    {
      TimeNs at;
      std::uint64_t id;
      NodeId owner;
      Key h{};
      bool have = false;
      if (sim_->queue_.peek_next(at, id, owner)) {
        h = Key{at, id};
        have = true;
      }
      if (!held_keys_.empty() && (!have || *held_keys_.begin() < h)) {
        h = *held_keys_.begin();
        have = true;
      }
      if (!inflight_.empty() && (!have || inflight_.begin()->first < h)) {
        h = inflight_.begin()->first;
        have = true;
      }
      publish_head(have, h);
    }

    // --- barrier / completion checks ---
    if (inflight_.empty() && held_keys_.empty()) {
      TimeNs at;
      std::uint64_t id;
      NodeId owner;
      if (!sim_->queue_.peek_next(at, id, owner)) break;  // drained
      if (at > deadline) break;
      if (owner == kNoNode) {
        // Every earlier event has committed: safe to run a control event
        // that may mutate anything (crash, restart, disk fault).
        LYRA_ASSERT(executed < max_events,
                    "event budget exhausted: livelock or unbounded protocol");
        EventQueue::Popped p;
        sim_->queue_.pop_next(p);
        LYRA_ASSERT(!p.is_delivery, "delivery events always have an owner");
        sim_->now_ = p.at;
        p.fn();
        ++executed;
        ++sched_stats_.barrier_events;
        continue;
      }
      continue;  // the next refill pass will pop it
    }

    if (!progressed) {
      LYRA_ASSERT(!inflight_.empty(),
                  "scheduler idle with no task in flight");
      Task* head = inflight_.begin()->second;
      if (task_done(head)) continue;  // finished since the commit phase
      Batch* hb = head->batch;
      std::uint8_t expected = Batch::kQueued;
      // The oldest in-flight task is only the global head when nothing
      // held or queued precedes it. A short timer committed off a busy
      // owner refills into that owner's holding heap ahead of everyone's
      // in-flight tasks (the creator's epoch bump is visible before its
      // batch's completion record arrives), and then the published head
      // is that held event: stealing would run a non-head inline, out of
      // RNG-gate order. The undercutting owner always has a completion in
      // flight — park below and let it unstick the heap.
      if (head_id_.load(std::memory_order_relaxed) == head->id &&
          hb->claim.compare_exchange_strong(expected, Batch::kStolen,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        // The head sits in a batch its worker has not started (the worker
        // is busy with other owners, possibly blocked in the RNG gate —
        // which only admits the head). Reclaim the whole batch: run the
        // head inline (it is always safe), hand the rest back. The worker
        // acks the stolen batch through the completion ring when it pops
        // it, which is what allows the batch's reuse.
        LYRA_ASSERT(head == hb->tasks.front(),
                    "head of an unstarted batch is not its first member");
        ++sched_stats_.head_steals;
        execute(head);
        hb->epoch->executed.fetch_add(1, std::memory_order_seq_cst);
        OwnerState& os = owner_state(hb->owner);
        const std::size_t n = hb->tasks.size();
        for (std::size_t i = 1; i < n; ++i) {
          Task* t = hb->tasks[i];
          inflight_.erase(Key{t->at, t->id});
          t->batch = nullptr;
          t->owner_seq = 0;
          os.held.push(t);
          held_keys_.insert(Key{t->at, t->id});
        }
        os.next_seq -= static_cast<std::uint64_t>(n - 1);
        LYRA_ASSERT(os.next_seq == hb->epoch->executed.load(),
                    "steal rewind drifted from the owner's epoch");
        hb->handback_done = true;
        settle(hb, static_cast<std::uint32_t>(n - 1));
        continue;  // the commit phase picks the head up
      }
      // The head's batch is running: its worker either is executing the
      // head now or reaches it next (every earlier member is committed).
      // Park until the head completes or a completion record arrives.
      ++sched_stats_.sched_parks;
      ++sched_stats_.lock_acquisitions;
      const auto park_start = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lk(park_m_);
      sched_parked_.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      park_cv_.wait(lk, [&] {
        return task_done(head) || !completions_.empty();
      });
      sched_parked_.store(false, std::memory_order_relaxed);
      sched_stats_.sched_idle_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        park_start)
              .count();
    }
  }
  drain_completions();
  publish_head(false, Key{});
  LYRA_ASSERT(held_keys_.empty() && cancelled_popped_.empty(),
              "parallel run finished with events still held");
  return executed;
}

ExecutorStats ParallelExecutor::stats() const {
  ExecutorStats s = sched_stats_;
  for (const auto& c : worker_counters_) {
    s.lock_acquisitions += c->locks.load(std::memory_order_relaxed);
    s.condvar_notifies += c->notifies.load(std::memory_order_relaxed);
    s.worker_parks += c->parks.load(std::memory_order_relaxed);
    s.rng_gate_draws += c->gate_draws.load(std::memory_order_relaxed);
    s.rng_gate_waits += c->gate_waits.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace lyra::sim
