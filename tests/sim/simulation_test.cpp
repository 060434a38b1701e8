#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/process.hpp"

namespace lyra::sim {
namespace {

class NullTransport final : public Transport {
 public:
  void send(NodeId, NodeId, PayloadPtr) override {}
  std::size_t node_count() const override { return 0; }
};

/// Logs "<id>:<from>" for every message it handles, then charges `cost`.
class Logger final : public Process {
 public:
  Logger(Simulation* sim, Transport* t, NodeId id,
         std::vector<std::string>* log)
      : Process(sim, t, id), log_(log) {}
  TimeNs cost = 0;

 protected:
  void on_message(const Envelope& env) override {
    log_->push_back(std::to_string(id()) + ":" + std::to_string(env.from));
    charge(cost);
  }

 private:
  std::vector<std::string>* log_;
};

class Directory final : public ProcessDirectory {
 public:
  Process* process_at(NodeId id) const override {
    return id < procs.size() ? procs[id] : nullptr;
  }
  std::vector<Process*> procs;
};

Envelope from_to(NodeId from, NodeId to) {
  Envelope env;
  env.from = from;
  env.to = to;
  return env;
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim(1);
  std::vector<TimeNs> observed;
  sim.schedule_in(ms(5), [&] { observed.push_back(sim.now()); });
  sim.schedule_in(ms(2), [&] { observed.push_back(sim.now()); });
  sim.run_all();
  EXPECT_EQ(observed, (std::vector<TimeNs>{ms(2), ms(5)}));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim(1);
  int ran = 0;
  sim.schedule_in(ms(1), [&] { ++ran; });
  sim.schedule_in(ms(10), [&] { ++ran; });
  sim.run_until(ms(5));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), ms(5));
  sim.run_until(ms(20));
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, RunUntilIncludesEventsAtDeadline) {
  Simulation sim(1);
  bool ran = false;
  sim.schedule_in(ms(5), [&] { ran = true; });
  sim.run_until(ms(5));
  EXPECT_TRUE(ran);
}

TEST(Simulation, ScheduleAtPastClampsToNow) {
  Simulation sim(1);
  sim.schedule_in(ms(10), [&] {
    // Scheduling in the past must not rewind the clock.
    sim.schedule_at(ms(1), [&] { EXPECT_GE(sim.now(), ms(10)); });
  });
  sim.run_all();
}

TEST(Simulation, CancelledEventDoesNotRun) {
  Simulation sim(1);
  bool ran = false;
  const auto id = sim.schedule_in(ms(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulation, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 10; ++i) draws.push_back(sim.rng().next_u64());
    return draws;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Simulation, TraceRecordsWhenEnabled) {
  Simulation sim(1);
  sim.trace().enable(true);
  sim.schedule_in(ms(1), [&] { sim.trace().record(sim.now(), 0, "cat", "x"); });
  sim.run_all();
  ASSERT_EQ(sim.trace().events().size(), 1u);
  EXPECT_EQ(sim.trace().events()[0].at, ms(1));
  EXPECT_EQ(sim.trace().by_category("cat").size(), 1u);
  EXPECT_TRUE(sim.trace().by_category("other").empty());
}

TEST(Simulation, TraceIgnoredWhenDisabled) {
  Simulation sim(1);
  sim.trace().record(0, 0, "cat", "x");
  EXPECT_TRUE(sim.trace().events().empty());
}

TEST(Simulation, EqualTimeTimersPumpsAndDeliveriesFireInInsertionOrder) {
  // At one instant T, inserted in this order: a timer, a CPU pump (P's
  // second message waits for the CPU its first one keeps busy until T), a
  // delivery and another timer. Whichever tier T lands in — the spill
  // heap (beyond the ~537 ms horizon), the ring, or the side heap (the
  // tick being drained) — they fire in insertion order.
  struct Case {
    TimeNs start, at;
  };
  for (const Case c : {Case{0, ms(2000)}, Case{0, ms(5)},
                       Case{us(10), us(20)}}) {
    Simulation sim(1);
    NullTransport net;
    std::vector<std::string> log;
    Logger p(&sim, &net, 0, &log);
    Logger q(&sim, &net, 1, &log);
    Directory dir;
    dir.procs = {&p, &q};
    sim.schedule_at(c.start, [&] {
      sim.schedule_at(c.at, [&] { log.push_back("timer-a"); });
      p.cost = c.at - sim.now();
      p.deliver(from_to(100, 0));  // idle CPU: handled inline
      p.deliver(from_to(101, 0));  // queued; pump armed at c.at
      sim.schedule_delivery_in(c.at - sim.now(), &dir, from_to(102, 1));
      sim.schedule_at(c.at, [&] { log.push_back("timer-b"); });
    });
    EXPECT_EQ(sim.run_all(), 5u) << "at " << c.at;
    EXPECT_EQ(log, (std::vector<std::string>{"0:100", "timer-a", "0:101",
                                             "1:102", "timer-b"}))
        << "at " << c.at;
    EXPECT_EQ(sim.now(), c.at);
  }
}

TEST(Simulation, PumpDisarmedByTeardownNeitherRunsNorCounts) {
  Simulation sim(1);
  NullTransport net;
  std::vector<std::string> log;
  auto p = std::make_unique<Logger>(&sim, &net, 0, &log);
  p->cost = ms(1);
  sim.schedule_at(0, [&] {
    p->deliver(from_to(100, 0));
    p->deliver(from_to(101, 0));  // pump armed at 1 ms
  });
  EXPECT_EQ(sim.run_until(us(500)), 1u);
  p.reset();  // crash: teardown disarms the pending pump
  EXPECT_EQ(sim.run_until(ms(10)), 0u);
  EXPECT_EQ(log, (std::vector<std::string>{"0:100"}));
}

TEST(Simulation, CancelRacesBatchedDispatch) {
  // Regression for the batched executor's cancel path: an ownerless event
  // (a barrier, running on the scheduler) cancels owned events that by
  // then sit in the executor's holding heaps or in a dispatched batch —
  // including below other held events of the same owner, the deep-heap
  // case a top-of-heap-only sweep would miss. The surviving execution
  // schedule must be identical to the serial run's.
  setenv("LYRA_PARALLEL_INLINE", "0", 1);
  auto run = [](unsigned threads) {
    Simulation sim(11);
    if (threads > 1) sim.set_parallelism(threads, us(200));
    constexpr NodeId kOwners = 3;
    // Handlers run on workers, so each owner may only touch its own slot;
    // per-owner execution is serialized by the executor.
    std::vector<std::vector<TimeNs>> ran(kOwners);
    std::vector<std::uint64_t> victims;
    for (NodeId owner = 0; owner < kOwners; ++owner) {
      for (int i = 0; i < 200; ++i) {
        const TimeNs at = us(10 + 7 * i + owner);
        const auto id = sim.schedule_at(
            at, [&ran, owner, &sim] { ran[owner].push_back(sim.now()); },
            owner);
        // Victims straddle the barrier's lookahead horizon: some are
        // already popped (held or dispatched) when the cancel runs, the
        // rest still live in the event queue.
        if (i % 5 == 3 && at > us(500)) victims.push_back(id);
      }
    }
    sim.schedule_at(us(500), [&sim, &victims] {
      for (std::uint64_t id : victims) sim.cancel(id);
    });
    sim.run_all();
    return ran;
  };

  const auto serial = run(1);
  std::size_t survivors = 0;
  for (const auto& owner_ran : serial) survivors += owner_ran.size();
  ASSERT_GT(survivors, 0u);
  ASSERT_LT(survivors, 600u);  // some victims actually died
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
  unsetenv("LYRA_PARALLEL_INLINE");
}

TEST(Simulation, CancelRacesBatchedDispatchAtEightThreads) {
  // The eight-worker variant with repeated cancel waves: each barrier
  // cancels a slice of the ids scheduled so far AND schedules a fresh
  // burst of owned events (barriers run on the scheduler, the only thread
  // allowed to touch the queue), so every dispatch round has events dying
  // while same-owner siblings sit in workers' batches, and later waves
  // race against events created by earlier waves. Cancel ids span events
  // long fired (must be no-ops), still live, and mid-dispatch. The
  // surviving schedule must match the serial run's exactly.
  setenv("LYRA_PARALLEL_INLINE", "0", 1);
  auto run = [](unsigned threads) {
    Simulation sim(23);
    if (threads > 1) sim.set_parallelism(threads, us(200));
    constexpr NodeId kOwners = 5;
    std::vector<std::vector<TimeNs>> ran(kOwners);
    auto victims = std::make_shared<std::vector<std::uint64_t>>();
    const auto burst = [&ran, &sim, victims](TimeNs base, int count) {
      for (NodeId owner = 0; owner < kOwners; ++owner) {
        for (int i = 0; i < count; ++i) {
          const TimeNs at = base + us(11 * i + owner);
          const auto id = sim.schedule_at(
              at, [&ran, owner, &sim] { ran[owner].push_back(sim.now()); },
              owner);
          if (i % 4 == 1) victims->push_back(id);
        }
      }
    };
    burst(us(10), 120);
    for (int wave = 0; wave < 3; ++wave) {
      sim.schedule_at(us(300 + 400 * wave), [&sim, victims, burst, wave] {
        // Kill every other victim accumulated so far, front to back, so
        // the set includes already-fired ids from previous bursts.
        for (std::size_t k = wave; k < victims->size(); k += 2) {
          sim.cancel((*victims)[k]);
        }
        burst(sim.now() + us(50), 40);
      });
    }
    sim.run_all();
    return ran;
  };

  const auto serial = run(1);
  std::size_t survivors = 0;
  for (const auto& owner_ran : serial) survivors += owner_ran.size();
  ASSERT_GT(survivors, 0u);
  EXPECT_EQ(run(8), serial);
  unsetenv("LYRA_PARALLEL_INLINE");
}

}  // namespace
}  // namespace lyra::sim
