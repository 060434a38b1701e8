#pragma once

// The benchmark's fixed workloads and the runner that drives one of them
// from outside the program: it builds the cluster through the harness,
// advances it with Simulation::run_until in fixed simulated slices, and
// reads results back through public accessors only.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "census.hpp"
#include "support/types.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Protocol { kLyra, kPompe };

struct Workload {
  std::string name;
  Protocol protocol = Protocol::kLyra;
  std::size_t n = 4;

  // Protocol shape; everything else keeps the Config defaults (lambda
  // 5 ms, commit-reveal on, 25 ms heartbeat).
  std::size_t batch_size = 800;

  // Closed loop: one pool per node with this many clients each.
  std::uint32_t clients_per_node = 0;
  lyra::TimeNs resubmit_timeout = 0;  ///< 0 = no client retries

  // Open loop (arrival_rate > 0): Poisson arrivals per node with bursts,
  // a fee-priority mempool, and one sandwich attacker on the last node.
  double arrival_rate = 0;
  double burst_every_ms = 0;
  double burst_len_ms = 0;
  std::size_t mempool_capacity = 0;

  // One crash of `crash_node` inside the window: its WAL is corrupted while
  // it is down and it restarts with delta state sync. Every node journals.
  bool crash = false;
  lyra::NodeId crash_node = 0;
  lyra::TimeNs crash_at = 0;
  lyra::TimeNs corrupt_at = 0;
  lyra::TimeNs restart_at = 0;

  // Timeline (simulated). Clients start at 900 ms, after the distance
  // warm-up; set-up ends at measure_from; the window runs to window_end in
  // 5 ms run_until slices.
  lyra::TimeNs measure_from = 0;
  lyra::TimeNs window_end = 0;
  /// A request uncommitted for longer than this at the window's end has
  /// failed (census.hpp). At most the window's length, and a multiple of
  /// the 5 ms slice, so the census cut falls on a slice boundary.
  lyra::TimeNs latency_limit = 0;
  /// A run whose goodput falls below this has lost liveness.
  double goodput_floor_tps = 0;

  bool open_loop() const { return arrival_rate > 0; }
  std::size_t f() const { return (n - 1) / 3; }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Everything one run of a workload produced.
struct RunOutput {
  // Host time, seconds.
  double setup_s = 0;  ///< build, start() and run_until(measure_from)
  double run_s = 0;    ///< the measurement window

  // Simulated outputs.
  std::uint64_t committed = 0;  ///< transactions committed in the window
  double goodput_tps = 0;
  std::vector<double> latencies_ms;
  double p50_ms = 0;
  Tail tail;
  Census census;
  double extracted_value = 0;
  double recovery_ms = 0;  ///< crash workload only
  /// Hash over commit count, latency samples and the reference node's
  /// ledger: equal digests mean the same simulated schedule.
  std::uint64_t digest = 0;

  /// Per-layer counters read back after the window (simulated quantities;
  /// identical in traced and untraced runs).
  std::map<std::string, double> layer;
  /// Self-check failures; empty when the run is valid.
  std::vector<std::string> failures;
};

/// Runs `w` once with inputs derived from `seed`. With a tracer, records
/// spans and message counts into it.
RunOutput run_workload(const Workload& w, std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench
