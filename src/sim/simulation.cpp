#include "sim/simulation.hpp"

#include <limits>

#include "sim/parallel_executor.hpp"
#include "support/assert.hpp"

namespace lyra::sim {

namespace internal {
thread_local const TimeNs* t_task_now = nullptr;
}  // namespace internal

namespace {
/// Derives the engine-internal stream without consuming from the protocol
/// stream (Rng::split would perturb it): golden-pinned runs stay
/// bit-identical. The constant is the 64-bit golden-ratio increment.
constexpr std::uint64_t kNetStreamSalt = 0x9e3779b97f4a7c15ULL;
}  // namespace

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed), rng_(seed), net_rng_(seed ^ kNetStreamSalt) {}

Simulation::~Simulation() = default;

void Simulation::cancel(std::uint64_t event_id) {
  if (parallel_active_.load(std::memory_order_relaxed)) {
    // Scheduler-thread context (worker cancels are diverted into effect
    // logs): the event may already have been popped into the executor's
    // held tier, which the queue no longer knows about.
    executor_->cancel_event(event_id);
    return;
  }
  queue_.cancel(event_id);
}

void Simulation::set_parallelism(unsigned threads, TimeNs lookahead) {
  LYRA_ASSERT(!parallel_active_.load(std::memory_order_relaxed),
              "set_parallelism during a run");
  threads_ = threads == 0 ? 1 : threads;
  lookahead_ = lookahead;
  if (threads_ > 1) {
    LYRA_ASSERT(lookahead_ > 0,
                "parallel execution needs a positive lookahead bound");
  }
}

void Simulation::await_rng_turn() { executor_->await_rng_turn(); }

ExecutorStats Simulation::executor_stats() const {
  return executor_ != nullptr ? executor_->stats() : ExecutorStats{};
}

std::uint64_t Simulation::run_until(TimeNs deadline) {
  if (threads_ > 1) {
    if (executor_ == nullptr) {
      executor_ = std::make_unique<ParallelExecutor>(this, threads_ - 1,
                                                     lookahead_);
    }
    parallel_active_.store(true, std::memory_order_relaxed);
    const std::uint64_t executed =
        executor_->run(deadline, /*max_events=*/~0ull);
    parallel_active_.store(false, std::memory_order_relaxed);
    if (now_ < deadline) now_ = deadline;
    return executed;
  }
  std::uint64_t executed = 0;
  while (queue_.run_next_due(deadline, now_)) ++executed;
  if (now_ < deadline) now_ = deadline;
  return executed;
}

std::uint64_t Simulation::run_all(std::uint64_t max_events) {
  if (threads_ > 1) {
    if (executor_ == nullptr) {
      executor_ = std::make_unique<ParallelExecutor>(this, threads_ - 1,
                                                     lookahead_);
    }
    parallel_active_.store(true, std::memory_order_relaxed);
    const std::uint64_t executed = executor_->run(
        std::numeric_limits<TimeNs>::max(), max_events);
    parallel_active_.store(false, std::memory_order_relaxed);
    return executed;
  }
  std::uint64_t executed = 0;
  while (queue_.run_next_due(std::numeric_limits<TimeNs>::max(), now_)) {
    ++executed;
    LYRA_ASSERT(executed <= max_events,
                "event budget exhausted: livelock or unbounded protocol");
  }
  return executed;
}

}  // namespace lyra::sim
