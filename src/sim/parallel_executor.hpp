#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/executor_stats.hpp"
#include "sim/message.hpp"
#include "support/mpsc_ring.hpp"
#include "support/types.hpp"

namespace lyra::sim {

class Process;
class Simulation;
class Transport;

/// One engine side-effect recorded while a handler runs on a worker
/// thread, replayed on the scheduler thread when the event commits.
/// Handlers never touch shared engine state directly: everything they
/// would do to it is captured here, in call order.
struct Effect {
  enum class Kind : std::uint8_t {
    kSend,             // transport->send(from, to, payload)
    kSendAll,          // transport->send_all(from, payload)
    kSetTimer,         // proc arms timer `token` with `delay`, callback fn
    kCancelTimer,      // proc cancels timer `token`
    kTimerFired,       // timer `token` fired; drop its bookkeeping entry
    kSchedulePump,     // proc schedules its inbox pump at time `t`
    kTrace,            // trace record (text_a = category, text_b = text)
    kDeliveryDropped,  // delivery resolved to a vacant (crashed) slot
  };
  Kind kind = Kind::kSend;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  TimeNs t = 0;  // kSetTimer: delay; kSchedulePump: absolute time
  std::uint64_t token = 0;
  Process* proc = nullptr;
  Transport* transport = nullptr;
  PayloadPtr payload;
  EventQueue::Callback fn;
  std::string text_a, text_b;
};

namespace internal {
/// Effect log of the event currently executing on this worker thread;
/// nullptr on the scheduler thread and in serial mode. Process diverts its
/// engine calls here when set.
extern thread_local std::vector<Effect>* t_effect_log;
}  // namespace internal

inline std::vector<Effect>* current_effect_log() {
  return internal::t_effect_log;
}

/// Deterministic parallel executor: shard workers + in-order commit,
/// batched dispatch, lock-free handoff.
///
/// The scheduler (calling) thread keeps sole ownership of the event queue
/// and every piece of global engine state. It pops events in global
/// (time, id) order into per-owner holding heaps, hands each idle owner its
/// ENTIRE runnable slice of the lookahead window as one batch (a vector of
/// tasks in (time, id) order), and commits finished events in exactly the
/// global order by replaying their recorded effects (sends, timers,
/// traces). A handler therefore runs concurrently with other owners'
/// handlers, but every engine mutation, event id, and RNG draw happens on
/// the scheduler thread in the serial schedule's order: a parallel run is
/// bit-identical to the serial one.
///
/// Handoff is lock-free in the steady state. Batches travel to workers
/// through per-worker bounded SPSC rings (MpscRing) and come back through
/// one MPSC completion ring; per-event completion is published via a
/// per-owner atomic epoch counter the worker bumps after each task, which
/// the scheduler polls without a lock. Mutexes and condition variables are
/// only touched on the park/unpark slow paths (a worker out of work, the
/// scheduler waiting on the head) and in the RNG turn gate's blocking
/// path, so lock acquisitions and notifies amortize to far less than one
/// per event (docs/PERF.md §7 quantifies this against the one-event-per-
/// handoff design it replaces).
///
/// Safety of eager dispatch rests on the lookahead bound L (a lower bound
/// on every message delay): only events earlier than W + L are popped,
/// where W is the oldest uncommitted time, and committing an event at time
/// >= W can only create deliveries at >= W + L — never before a dispatched
/// event. Same-owner creations (timers, pumps) are ordered by a worker-
/// side stop rule: after each task the worker folds the task's timer/pump
/// effects into the earliest same-owner creation time, and stops the batch
/// before the first member that creation would precede (or after any
/// cancel-timer effect, which may target a later member). The unexecuted
/// tail is handed back to the scheduler and re-enters the holding heaps,
/// so the created event is dispatched first — exactly the serial order.
///
/// Ownerless events (harness control: crashes, restarts, disk faults) act
/// as barriers: they run inline on the scheduler once every earlier event
/// has committed, so they may mutate anything.
///
/// Hosts without usable parallelism (hardware_concurrency() <= 1, e.g. a
/// single-core CI container) get an inline mode: no worker threads are
/// spawned and the scheduler executes every task itself, in exact global
/// order, through the same effect-log/commit machinery. Dispatching real
/// threads there can only lose (each handoff is a context switch), so the
/// engine degrades to serial speed plus the effect-log overhead instead.
/// LYRA_PARALLEL_INLINE=0/1 overrides the automatic choice (used by the
/// equivalence tests to pin both paths regardless of the host).
class ParallelExecutor {
 public:
  /// `workers` >= 1 worker threads (the scheduler thread is not counted).
  ParallelExecutor(Simulation* sim, unsigned workers, TimeNs lookahead);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Runs every event with time <= deadline; returns the count executed.
  /// On return the holding tiers are empty — only events beyond the
  /// deadline remain, all still in the event queue — so serial and
  /// parallel runs may be freely interleaved.
  std::uint64_t run(TimeNs deadline, std::uint64_t max_events);

  /// Scheduler-thread cancellation that also reaches events already popped
  /// into the holding tier (the queue no longer knows their ids).
  void cancel_event(std::uint64_t id);

  /// Blocks the calling worker until its event is the oldest uncommitted
  /// one, making protocol RNG draws happen in serial order. The oldest
  /// in-flight event never blocks, so progress is guaranteed.
  void await_rng_turn();

  /// Counters accumulated since construction (across run() calls).
  ExecutorStats stats() const;

 private:
  struct Batch;

  struct Task {
    TimeNs at = 0;
    std::uint64_t id = 0;
    NodeId owner = kNoNode;
    bool is_delivery = false;
    EventQueue::Callback fn;
    Process* proc = nullptr;
    std::uint64_t token = 0;
    Envelope env;
    ProcessDirectory* dir = nullptr;
    std::vector<Effect> effects;
    Batch* batch = nullptr;
    std::uint32_t pos = 0;        // index within batch->tasks
    std::uint64_t owner_seq = 0;  // 1-based dispatch ordinal of its owner
  };
  /// Min-order on (at, id) for the per-owner holding heaps.
  struct TaskAfter {
    bool operator()(const Task* a, const Task* b) const {
      if (a->at != b->at) return a->at > b->at;
      return a->id > b->id;
    }
  };
  using Key = std::pair<TimeNs, std::uint64_t>;

  /// Per-owner completion epoch, heap-allocated so worker-held pointers
  /// survive owners_ resizes. executed counts this owner's finished tasks;
  /// task done <=> epoch >= task.owner_seq.
  struct alignas(64) EpochCell {
    std::atomic<std::uint64_t> executed{0};
  };

  /// One owner's runnable slice of the window, dispatched as a unit.
  /// claim arbitrates worker-vs-scheduler ownership: the worker CASes
  /// kQueued->kRunning when it starts the batch; the scheduler CASes
  /// kQueued->kStolen to reclaim an unstarted batch whose first member is
  /// the head. closed (set by the worker, with the owner epoch final)
  /// publishes "this worker is done with the batch" — members beyond the
  /// epoch were not executed and are handed back to the holding heaps.
  struct Batch {
    static constexpr std::uint8_t kQueued = 0;
    static constexpr std::uint8_t kRunning = 1;
    static constexpr std::uint8_t kStolen = 2;

    NodeId owner = kNoNode;
    std::vector<Task*> tasks;
    std::uint64_t first_seq = 0;  // owner_seq of tasks[0]
    EpochCell* epoch = nullptr;
    std::atomic<std::uint8_t> claim{kQueued};
    std::atomic<bool> closed{false};

    // Scheduler-side bookkeeping (never touched by workers).
    std::uint32_t settled = 0;     // members committed or re-helded
    bool handback_done = false;    // unexecuted tail already re-helded
    bool acked = false;            // worker has dropped its reference
    bool finished = false;         // settled == size (owner went idle)
    bool recycled = false;         // already on the free list
  };

  struct OwnerState {
    bool busy = false;  // has a dispatched, not fully settled batch
    std::priority_queue<Task*, std::vector<Task*>, TaskAfter> held;
    std::unique_ptr<EpochCell> epoch;
    std::uint64_t next_seq = 0;  // dispatch ordinal source
  };

  struct Worker {
    explicit Worker(std::size_t inbox_capacity) : inbox(inbox_capacity) {}
    MpscRing<Batch*> inbox;  // scheduler -> this worker (SPSC)
    std::atomic<bool> parked{false};
    std::mutex m;
    std::condition_variable cv;       // unpark (new inbox work / stop)
    std::condition_variable gate_cv;  // RNG turn gate, waits on gate_m_
    std::thread thread;
    // Scheduler-side spill-over for a full inbox ring, flushed first on
    // every dispatch pass so batch order per worker is preserved.
    std::deque<Batch*> overflow;
    // Scheduler-side: inbox received a batch this dispatch pass, so this
    // worker (and only it) is a wake candidate.
    bool poked = false;
  };

  /// Worker-thread counters, one cache line each, aggregated by stats().
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> locks{0};
    std::atomic<std::uint64_t> notifies{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> gate_draws{0};
    std::atomic<std::uint64_t> gate_waits{0};
  };

  void ensure_workers();
  void worker_main(unsigned index);
  void run_batch(WorkerCounters& c, Batch* b);
  void execute(Task* t);
  /// Worker -> scheduler: batch done/ack published; wake the scheduler if
  /// it is parked.
  void push_completion(WorkerCounters& c, Batch* b);
  void wake_scheduler_if_parked(WorkerCounters& c);

  /// Single-threaded drive of the same task/effect pipeline (inline mode).
  std::uint64_t run_inline(TimeNs deadline, std::uint64_t max_events);

  /// Replays a committed task's effects with the clock at its time.
  void apply(Task* t);

  /// True iff the worker finished executing this task (epoch poll).
  bool task_done(const Task* t) const {
    return t->batch->epoch->executed.load(std::memory_order_acquire) >=
           t->owner_seq;
  }

  /// Moves a closed batch's unexecuted tail back into the holding heap.
  void handback(Batch* b);
  /// Settles `count` more members of b; clears the owner's busy bit when
  /// the whole batch is accounted for.
  void settle(Batch* b, std::uint32_t count);
  void try_recycle(Batch* b);
  void drain_completions();
  void publish_head(bool have, Key h);

  Task* acquire_task();
  void recycle(Task* t);
  Batch* acquire_batch();

  OwnerState& owner_state(NodeId owner);

  Simulation* sim_;
  const unsigned worker_count_;
  const TimeNs lookahead_;
  const bool inline_mode_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<WorkerCounters>> worker_counters_;
  bool workers_started_ = false;
  std::atomic<bool> stop_{false};

  // Scheduler-thread state (no lock): holding heaps, the in-flight
  // (dispatched, uncommitted) task map, pools, cancels.
  std::vector<OwnerState> owners_;
  /// Keys of every held (popped, undispatched) task: its minimum joins the
  /// window base W alongside the oldest in-flight and queue-front keys.
  std::set<Key> held_keys_;
  std::vector<NodeId> ready_;  // owners to consider at the dispatch step
  std::unordered_set<std::uint64_t> cancelled_popped_;
  std::map<Key, Task*> inflight_;
  std::vector<std::unique_ptr<Task>> task_pool_;
  std::vector<Task*> task_free_;
  std::vector<std::unique_ptr<Batch>> batch_pool_;
  std::vector<Batch*> batch_free_;

  /// Workers -> scheduler: closed batches and stolen-batch acks. Also the
  /// scheduler's wakeup channel: a push to a parked scheduler notifies it.
  MpscRing<Batch*> completions_;

  /// Event id of the oldest uncommitted event (kNoHead when idle),
  /// republished once per scheduler pass. The RNG gate admits exactly this
  /// id's holder lock-free; between publication and that event's commit
  /// the scheduler creates no events, so the head cannot be undercut.
  static constexpr std::uint64_t kNoHead = ~0ull;
  std::atomic<std::uint64_t> head_id_{kNoHead};

  // Scheduler park/unpark (the only scheduler-side blocking).
  std::mutex park_m_;
  std::condition_variable park_cv_;
  std::atomic<bool> sched_parked_{false};

  // RNG turn gate slow path: waiting workers register (event id -> worker)
  // under gate_m_; the scheduler wakes exactly the head's worker.
  std::mutex gate_m_;
  std::unordered_map<std::uint64_t, Worker*> gate_waiting_;
  std::atomic<std::uint64_t> gate_waiter_count_{0};

  // Scheduler-side stats (plain: only the scheduler writes them).
  ExecutorStats sched_stats_;
};

}  // namespace lyra::sim
