#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "sim/event_queue.hpp"
#include "sim/executor_stats.hpp"
#include "sim/message.hpp"
#include "sim/trace.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace lyra::sim {

class ParallelExecutor;

namespace internal {
/// Set on parallel-executor worker threads while a handler runs: points at
/// the virtual time of the event being executed. nullptr on the scheduler
/// thread and in serial mode, so Simulation::now() stays a plain load
/// there.
extern thread_local const TimeNs* t_task_now;
}  // namespace internal

/// Discrete-event simulation driver: a virtual clock, the event queue, the
/// root RNG, and the trace sink. One Simulation instance per experiment run;
/// all protocol components hold a pointer to it.
///
/// Two RNG streams with distinct roles:
///  * rng() — protocol randomness drawn inside process handlers (VSS
///    encryption, Byzantine behaviour). Draws happen in event order, which
///    the parallel executor preserves by gating worker access (see
///    ParallelExecutor).
///  * net_rng() — engine-internal randomness (latency jitter, adversary
///    delays), drawn only on the scheduler thread while messages are
///    scheduled. Keeping it out of rng() means the handler-visible stream
///    is identical whether or not the network samples jitter.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimeNs now() const {
    if (parallel_active_.load(std::memory_order_relaxed)) {
      if (const TimeNs* t = internal::t_task_now) return *t;
    }
    return now_;
  }

  /// `owner` tags the event with the process whose state the callback
  /// touches; see EventQueue::schedule_at. Ownerless events act as barriers
  /// under parallel execution.
  std::uint64_t schedule_in(TimeNs delay, EventQueue::Callback fn,
                            NodeId owner = kNoNode) {
    return queue_.schedule_at(now() + delay, std::move(fn), owner);
  }

  std::uint64_t schedule_at(TimeNs at, EventQueue::Callback fn,
                            NodeId owner = kNoNode) {
    const TimeNs t = now();
    return queue_.schedule_at(at < t ? t : at, std::move(fn), owner);
  }

  /// Process-owned call at absolute time `at`; see EventQueue::schedule_for.
  std::uint64_t schedule_for(TimeNs at, Process* proc, std::uint64_t token,
                             EventQueue::Callback fn = {}) {
    return queue_.schedule_for(at, proc, token, std::move(fn));
  }

  void cancel(std::uint64_t event_id);

  /// Message-delivery fast path: no callback allocation per message. The
  /// destination (env.to) is resolved through `dir` at delivery time, so
  /// crashed processes drop their in-flight messages instead of dangling.
  void schedule_delivery_in(TimeNs delay, ProcessDirectory* dir,
                            Envelope env) {
    queue_.schedule_delivery(now() + delay, dir, std::move(env));
  }

  /// Runs events until the queue drains or the clock passes `deadline`.
  /// Events scheduled at exactly `deadline` still run. Returns the number
  /// of events executed.
  std::uint64_t run_until(TimeNs deadline);

  /// Runs until the queue drains; `max_events` guards against protocol
  /// livelock in tests.
  std::uint64_t run_all(std::uint64_t max_events = 500'000'000);

  /// Enables parallel event execution: `threads` worker threads (<= 1
  /// keeps the serial path) sharded by event owner, with the conservative
  /// lookahead window set to `lookahead` — a lower bound on every
  /// cross-process message delay, normally net::Network::delivery_floor().
  /// Must be called before the first run_* call; the run is equivalent,
  /// event for event, to the serial schedule (see docs/PERF.md).
  void set_parallelism(unsigned threads, TimeNs lookahead);
  unsigned threads() const { return threads_; }

  /// Hot-path counters of the parallel executor, accumulated across every
  /// run_* call so far. All-zero when the run is serial (threads <= 1).
  ExecutorStats executor_stats() const;

  /// Protocol randomness (handler context). In a parallel run a worker
  /// calling this blocks until its event is the oldest uncommitted one, so
  /// draws happen in exactly the serial order.
  Rng& rng() {
    if (parallel_active_.load(std::memory_order_relaxed) &&
        internal::t_task_now != nullptr) {
      await_rng_turn();
    }
    return rng_;
  }

  /// Engine-internal randomness (adversary schedules and other
  /// engine-side draws). Only touched on the scheduler thread; never
  /// gated. Latency jitter no longer draws from this shared stream — the
  /// network derives per-sender counter-based streams from seed() instead,
  /// so one sender's draw sequence does not depend on every other
  /// sender's traffic.
  Rng& net_rng() { return net_rng_; }

  /// The root seed this run was constructed with. Sharded consumers (the
  /// network's per-sender jitter streams) derive their own streams from it
  /// via derive_stream().
  std::uint64_t seed() const { return seed_; }

  Trace& trace() { return trace_; }

 private:
  friend class ParallelExecutor;

  void await_rng_turn();

  EventQueue queue_;
  TimeNs now_ = 0;
  std::uint64_t seed_;
  Rng rng_;
  Rng net_rng_;
  Trace trace_;

  unsigned threads_ = 1;
  TimeNs lookahead_ = 0;
  /// True while a parallel run is in flight. Relaxed reads are enough: the
  /// flag is constant for the duration of a run and flips only while the
  /// workers are parked (the dispatch mutex orders the flip against them).
  std::atomic<bool> parallel_active_{false};
  std::unique_ptr<ParallelExecutor> executor_;
};

}  // namespace lyra::sim
