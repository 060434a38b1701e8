#include "scenario.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <type_traits>

#include "attacks/sandwich.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "workload/open_loop.hpp"

namespace perfbench {

using namespace lyra;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;

    // Paper operating point with commit-reveal on: the only workload that
    // loads crypto (VSS over 800-tx batches), the storage write path (a
    // journal append per commit) and the recovery read path (snapshot
    // load, delta state sync) together.
    Workload crash;
    crash.name = "lyra_crash_n31";
    crash.n = 31;
    crash.batch_size = 800;
    crash.clients_per_node = 2600;
    crash.resubmit_timeout = ms(1500);
    crash.crash = true;
    crash.crash_node = 7;
    crash.crash_at = ms(2600);
    crash.corrupt_at = ms(2700);
    crash.restart_at = ms(2800);
    crash.measure_from = ms(2400);
    crash.window_end = ms(5000);
    crash.latency_limit = ms(1500);
    crash.goodput_floor_tps = 20000;
    v.push_back(crash);

    // Open loop past the knee with a sandwich attacker: keeps the mempool,
    // backpressure, retry and economics layers busy; storage is bypassed.
    Workload open;
    open.name = "lyra_open_n16";
    open.n = 16;
    open.batch_size = 100;
    open.arrival_rate = 600;
    // Short, frequent 4x bursts (20% duty): many episodes per window keep
    // the offered load, and so goodput, from swinging with the seed.
    open.burst_every_ms = 250;
    open.burst_len_ms = 62.5;
    open.mempool_capacity = 256;
    open.measure_from = ms(2000);
    open.window_end = ms(5000);
    open.latency_limit = ms(1500);
    open.goodput_floor_tps = 1000;
    v.push_back(open);

    // The paper's baseline on the identical arrival stream and attacker:
    // the only workload that runs the pompe and hotstuff layers.
    Workload pompe = open;
    pompe.name = "pompe_open_n16";
    pompe.protocol = Protocol::kPompe;
    v.push_back(pompe);
    return v;
  }();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr TimeNs kClientStart = ms(900);  // after the distance warm-up
constexpr TimeNs kSlice = ms(5);          // recovery_ms resolution

template <class T>
void mix(std::uint64_t& h, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
}

/// Paper topology (§VI-A) with one client slot co-located with each node.
net::Topology client_topology(std::size_t n) {
  net::Topology t = net::three_continents(n, std::vector<net::Region>(n));
  for (std::size_t i = 0; i < n; ++i) t.placement[n + i] = t.placement[i];
  return t;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

workload::OpenLoopOptions open_loop_options(const Workload& w) {
  workload::OpenLoopOptions o;
  o.arrival_rate = w.arrival_rate;
  o.burst_every_ms = w.burst_every_ms;
  o.burst_len_ms = w.burst_len_ms;
  o.start_at = kClientStart;
  o.measure_from = w.measure_from;
  o.measure_to = w.window_end;
  return o;
}

harness::LyraClusterOptions lyra_options(const Workload& w, std::uint64_t seed,
                                         HandlerClock* clock) {
  harness::LyraClusterOptions o;
  o.config.n = w.n;
  o.config.f = w.f();
  o.config.delta = ms(160);  // 1.2x the longest one-way leg
  o.config.batch_size = w.batch_size;
  // Reveal catch-up serves payloads, and economics reads them.
  o.config.retain_payloads = w.crash || w.open_loop();
  o.config.mempool_capacity = w.mempool_capacity;
  o.topology = client_topology(w.n);
  o.seed = seed;
  o.durable_storage = w.crash;
  o.state_sync = w.crash;
  o.statesync_config.delta_transfer = w.crash;
  harness::NodeFactory attacker;
  if (w.open_loop()) {
    const NodeId last = static_cast<NodeId>(w.n - 1);
    attacker = [last](sim::Simulation* sim, net::Network* net, NodeId id,
                      const core::Config& cfg,
                      const crypto::KeyRegistry* reg)
        -> std::unique_ptr<core::LyraNode> {
      if (id != last) return nullptr;
      return std::make_unique<attacks::SandwichLyraNode>(
          sim, net, id, cfg, reg, attacks::SandwichOptions{});
    };
  }
  o.node_factory = lyra_node_factory(std::move(attacker), clock);
  return o;
}

harness::PompeClusterOptions pompe_options(const Workload& w,
                                           std::uint64_t seed,
                                           HandlerClock* clock) {
  harness::PompeClusterOptions o;
  o.config.n = w.n;
  o.config.f = w.f();
  o.config.delta = ms(160);
  o.config.batch_size = w.batch_size;
  o.config.initial_leader = 0;
  o.config.mempool_capacity = w.mempool_capacity;
  o.topology = client_topology(w.n);
  o.seed = seed;
  harness::PompeNodeFactory attacker;
  if (w.open_loop()) {
    const NodeId last = static_cast<NodeId>(w.n - 1);
    attacker = [last](sim::Simulation* sim, net::Network* net, NodeId id,
                      const pompe::PompeConfig& cfg,
                      const crypto::KeyRegistry* reg)
        -> std::unique_ptr<pompe::PompeNode> {
      if (id != last) return nullptr;
      return std::make_unique<attacks::SandwichPompeNode>(
          sim, net, id, cfg, reg, attacks::SandwichOptions{});
    };
  }
  o.node_factory = pompe_node_factory(std::move(attacker), clock);
  return o;
}

/// Per-node simulated CPU over the window, carried across a crash: the
/// crashed incarnation's share is banked before it is torn down.
class CpuLedger {
 public:
  void open(const std::vector<TimeNs>& at_start) { base_ = at_start; }
  void retire(std::size_t node, TimeNs used) {
    banked_ += used - base_[node];
    base_[node] = 0;
  }
  TimeNs total(const std::vector<TimeNs>& at_end) const {
    TimeNs sum = banked_;
    for (std::size_t i = 0; i < at_end.size(); ++i) sum += at_end[i] - base_[i];
    return sum;
  }

 private:
  std::vector<TimeNs> base_;
  TimeNs banked_ = 0;
};

template <class Cluster>
std::vector<TimeNs> node_cpu(Cluster& c, std::size_t n) {
  std::vector<TimeNs> cpu(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<Cluster, harness::LyraCluster>) {
      if (!c.node_alive(i)) continue;
    }
    cpu[i] = c.node(i).cpu_time_used();
  }
  return cpu;
}

template <class Cluster>
void mempool_totals(Cluster& c, std::size_t n, std::uint64_t& refused,
                    std::uint64_t& evicted) {
  for (NodeId i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<Cluster, harness::LyraCluster>) {
      if (!c.node_alive(i)) continue;
    }
    if (const workload::Mempool* mp = c.node(i).mempool()) {
      refused += mp->stats().rejected_full;
      evicted += mp->stats().evicted;
    }
  }
}

template <class Cluster>
RunOutput drive(const Workload& w, std::uint64_t seed, Tracer* tr) {
  constexpr bool kLyra = std::is_same_v<Cluster, harness::LyraCluster>;
  RunOutput out;
  SpanLog* log = tr != nullptr ? &tr->log : nullptr;
  HandlerClock* clock = nullptr;
  if (tr != nullptr) {
    clock = kLyra ? &tr->lyra_handlers : &tr->pompe_handlers;
  }
  const auto flush_handlers = [&] {
    if (tr == nullptr) return;
    tr->lyra_handlers.flush(tr->log, "lyra.on_message");
    tr->pompe_handlers.flush(tr->log, "pompe.on_message");
  };

  // ---- set-up: build, start, run to the window ----
  const std::int64_t t_setup = now_ns();
  std::unique_ptr<Cluster> cluster;
  {
    Scoped span(log, "harness.build");
    if constexpr (kLyra) {
      cluster = std::make_unique<Cluster>(lyra_options(w, seed, clock));
    } else {
      cluster = std::make_unique<Cluster>(pompe_options(w, seed, clock));
    }
    cluster->network().set_bandwidth(125e6);  // sustained WAN goodput
    if (tr != nullptr) {
      tr->adversary = std::make_unique<CountingAdversary>(&cluster->network());
      cluster->network().set_adversary(tr->adversary.get());
    }
    for (NodeId i = 0; i < w.n; ++i) {
      if (w.open_loop()) {
        cluster->add_open_loop_pool(i, open_loop_options(w), seed);
      } else {
        client::ClientPool& pool =
            cluster->add_client_pool(i, w.clients_per_node, kClientStart,
                                     w.measure_from, w.window_end);
        pool.set_resubmit_timeout(w.resubmit_timeout);
      }
    }
  }
  sim::Simulation& sim = cluster->simulation();
  {
    Scoped span(log, "harness.start");
    cluster->start();
  }
  // Commit and arrival counters at T - L, where the census splits young
  // in-flight requests from stale ones.
  const auto& open_pools = cluster->open_pools();
  const auto& closed_pools = cluster->pools();
  std::vector<OpenPoolObservation> open_obs(open_pools.size());
  std::vector<std::uint64_t> closed_at_cutoff(closed_pools.size(), 0);
  const TimeNs cutoff = w.window_end - w.latency_limit;
  const auto mark_cutoff = [&] {
    for (std::size_t i = 0; i < open_pools.size(); ++i) {
      open_obs[i].arrived_at_cutoff = open_pools[i]->stats().offered;
    }
    for (std::size_t i = 0; i < closed_pools.size(); ++i) {
      closed_at_cutoff[i] = closed_pools[i]->committed_total();
    }
  };
  {
    Scoped span(log, "harness.warmup");
    sim.run_until(w.measure_from);
    flush_handlers();
  }
  out.setup_s = seconds_since(t_setup);

  // ---- window-start snapshots (not timed work of the program) ----
  std::uint64_t wl_rejected0 = 0, wl_terminal0 = 0, wl_resub0 = 0;
  for (std::size_t i = 0; i < open_pools.size(); ++i) {
    const workload::OpenLoopStats& s = open_pools[i]->stats();
    open_obs[i].arrived_at_start = s.offered;
    wl_rejected0 += s.rejected_events;
    wl_terminal0 += s.terminal_rejects;
    wl_resub0 += s.resubmissions;
  }
  const std::uint64_t dropped0 = cluster->network().messages_dropped();
  CpuLedger cpu;
  cpu.open(node_cpu(*cluster, w.n));
  std::uint64_t disk0 = 0;
  std::uint64_t proofs0 = 0;
  if constexpr (kLyra) {
    if (w.crash) {
      for (NodeId i = 0; i < w.n; ++i) disk0 += cluster->disk(i)->bytes_written();
    }
  } else {
    for (NodeId i = 0; i < w.n; ++i) {
      proofs0 += cluster->node(i).stats().proof_verifications;
    }
  }
  std::uint64_t refused0 = 0, evicted0 = 0;
  mempool_totals(*cluster, w.n, refused0, evicted0);
  if (tr != nullptr) tr->adversary->reset();

  // ---- measurement window, in fixed simulated slices ----
  const std::int64_t t_window = now_ns();
  std::uint64_t events = 0;
  bool restarted = false;
  bool recovered = false;
  std::size_t recovery_target = 0;
  for (TimeNs t = w.measure_from; t < w.window_end;) {
    if constexpr (kLyra) {
      if (w.crash && t == w.crash_at) {
        cpu.retire(w.crash_node,
                   cluster->node(w.crash_node).cpu_time_used());
        cluster->crash_node(w.crash_node);
      }
      if (w.crash && t == w.corrupt_at) cluster->corrupt_wal(w.crash_node);
      if (w.crash && t == w.restart_at) {
        for (NodeId i = 0; i < w.n; ++i) {
          if (i != w.crash_node && cluster->node_alive(i)) {
            recovery_target =
                std::max(recovery_target, cluster->node(i).ledger().size());
          }
        }
        restarted = cluster->restart_node(w.crash_node);
        if (!restarted) out.failures.push_back("restart refused");
      }
    }
    const TimeNs next = std::min(t + kSlice, w.window_end);
    {
      Scoped span(log, "sim.run_until");
      events += sim.run_until(next);
      flush_handlers();
    }
    t = next;
    if (t == cutoff) mark_cutoff();
    if constexpr (kLyra) {
      if (restarted && !recovered &&
          cluster->node(w.crash_node).ledger().size() >= recovery_target) {
        recovered = true;
        out.recovery_ms = to_ms(t - w.restart_at);
      }
    }
  }
  out.run_s = seconds_since(t_window);

  // ---- read results back ----
  const double window_s = to_ms(w.window_end - w.measure_from) / 1000.0;
  std::vector<ClosedPoolObservation> closed_obs;
  double max_lag_ms = 0;
  std::uint64_t client_resub = 0;
  for (std::size_t i = 0; i < closed_pools.size(); ++i) {
    const client::ClientPool& p = *closed_pools[i];
    ClosedPoolObservation o;
    o.clients = w.clients_per_node;
    o.committed_in_window = p.committed_in_window();
    o.commits_recent = p.committed_total() - closed_at_cutoff[i];
    closed_obs.push_back(o);
    out.committed += p.committed_in_window();
    out.latencies_ms.insert(out.latencies_ms.end(),
                            p.latency_ms().values().begin(),
                            p.latency_ms().values().end());
    client_resub += p.resubmissions();
    max_lag_ms = std::max(max_lag_ms, to_ms(p.max_resubmit_lag()));
  }
  std::uint64_t offered = 0, wl_rejected = 0, wl_terminal = 0, wl_resub = 0;
  for (std::size_t i = 0; i < open_pools.size(); ++i) {
    const workload::OpenLoopClientPool& p = *open_pools[i];
    const workload::OpenLoopStats& s = p.stats();
    OpenPoolObservation& o = open_obs[i];
    o.arrived_at_end = s.offered;
    o.committed_in_window = s.committed_in_window;
    for (std::uint64_t id :
         p.unresolved_ids(std::numeric_limits<std::size_t>::max())) {
      // make_tx_id keeps the pool's arrival counter in the low 40 bits.
      o.unresolved.push_back(id & ((std::uint64_t{1} << 40) - 1));
    }
    out.committed += s.committed_in_window;
    out.latencies_ms.insert(out.latencies_ms.end(),
                            p.latency_ms().values().begin(),
                            p.latency_ms().values().end());
    offered += s.offered - o.arrived_at_start;
    wl_rejected += s.rejected_events;
    wl_terminal += s.terminal_rejects;
    wl_resub += s.resubmissions;
  }
  out.census = w.open_loop() ? open_loop_census(open_obs)
                             : closed_loop_census(closed_obs);
  out.goodput_tps = static_cast<double>(out.committed) / window_s;
  out.p50_ms = median(out.latencies_ms);
  out.tail = supported_tail(out.latencies_ms);

  std::map<std::string, double>& L = out.layer;
  const double tx = std::max<double>(1.0, static_cast<double>(out.committed));
  L["sim.events"] = static_cast<double>(events);
  L["sim.events_per_tx"] = static_cast<double>(events) / tx;
  L["net.dropped"] =
      static_cast<double>(cluster->network().messages_dropped() - dropped0);
  const double cpu_ms = to_ms(cpu.total(node_cpu(*cluster, w.n)));
  L["client.samples"] = static_cast<double>(out.latencies_ms.size());
  L["client.resubmissions"] = static_cast<double>(client_resub);
  L["client.max_resubmit_lag_ms"] = max_lag_ms;
  L["workload.offered"] = static_cast<double>(offered);
  L["workload.rejected"] = static_cast<double>(wl_rejected - wl_rejected0);
  L["workload.terminal_rejects"] =
      static_cast<double>(wl_terminal - wl_terminal0);
  L["workload.resubmissions"] = static_cast<double>(wl_resub - wl_resub0);

  std::uint64_t h = kFnvOffset;
  mix(h, out.committed);
  for (double v : out.latencies_ms) mix(h, v);
  mix(h, events);

  workload::EconomicsReport econ;
  std::uint64_t refused = 0, evicted = 0;
  mempool_totals(*cluster, w.n, refused, evicted);
  L["mempool.refused"] = static_cast<double>(refused - refused0);
  L["mempool.evicted"] = static_cast<double>(evicted - evicted0);

  if (!cluster->ledgers_prefix_consistent()) {
    out.failures.push_back("ledgers are not prefix-consistent");
  }
  if (out.goodput_tps < w.goodput_floor_tps) {
    out.failures.push_back("goodput below the liveness floor");
  }
  if (!out.tail.supported) {
    out.failures.push_back("too few latency samples for a supported tail");
  }

  if constexpr (kLyra) {
    harness::LyraCluster& c = *cluster;
    if (c.total_late_accepts() != 0) out.failures.push_back("late accepts");
    for (const core::CommittedBatch& b : c.node(0).ledger()) {
      mix(h, b.seq);
      mix(h, b.cipher_id);
      mix(h, b.tx_count);
      mix(h, b.committed_at);
      mix(h, b.revealed_at);
    }
    if (w.open_loop()) {
      workload::EconomicsParams params;
      econ = attacks::evaluate_lyra_economics(c.node(0), params);
      if (econ.extracted_value != 0.0) {
        out.failures.push_back("Lyra leaked value to the sandwich attacker");
      }
    }
    std::uint64_t ok = 0, rejected = 0;
    std::vector<double> rounds, batch_wait, consensus, commit_wait, reveal;
    for (NodeId i = 0; i < w.n; ++i) {
      if (!c.node_alive(i)) continue;
      const core::NodeStats& s = c.node(i).stats();
      ok += s.validations_ok;
      rejected += s.validations_rejected;
      const auto take = [](std::vector<double>& into, const Samples& from) {
        into.insert(into.end(), from.values().begin(), from.values().end());
      };
      take(rounds, s.decide_rounds);
      take(batch_wait, s.phase_batch_wait_ms);
      take(consensus, s.phase_consensus_ms);
      take(commit_wait, s.phase_commit_wait_ms);
      take(reveal, s.phase_reveal_ms);
    }
    L["lyra.sim_cpu_ms_per_tx"] = cpu_ms / tx;
    L["lyra.accept_rate"] =
        ok + rejected == 0 ? 0.0
                           : static_cast<double>(ok) /
                                 static_cast<double>(ok + rejected);
    double rounds_sum = 0;
    for (double r : rounds) rounds_sum += r;
    L["lyra.decide_rounds_mean"] =
        rounds.empty() ? 0.0 : rounds_sum / static_cast<double>(rounds.size());
    L["lyra.phase.batch_wait_p50_ms"] = median(batch_wait);
    L["lyra.phase.consensus_p50_ms"] = median(consensus);
    L["lyra.phase.commit_wait_p50_ms"] = median(commit_wait);
    L["lyra.phase.reveal_p50_ms"] = median(reveal);

    if (w.crash) {
      std::uint64_t disk = 0;
      for (NodeId i = 0; i < w.n; ++i) disk += c.disk(i)->bytes_written();
      L["storage.bytes_written_per_tx"] =
          static_cast<double>(disk - disk0) / tx;
      const harness::NodeRecoveryInfo& info = c.recovery_info(w.crash_node);
      L["storage.replayed_records"] =
          static_cast<double>(info.stats.replayed_records);
      const statesync::StateSyncStats sync = c.statesync_totals();
      L["statesync.chunks_fetched"] = static_cast<double>(sync.chunks_fetched);
      L["statesync.chunks_local"] = static_cast<double>(sync.chunks_local);
      L["statesync.bytes_transferred"] =
          static_cast<double>(sync.bytes_transferred);
      L["statesync.entries_installed"] =
          static_cast<double>(sync.entries_installed);
      L["statesync.catchup_reveals"] =
          static_cast<double>(sync.catchup_reveals);
      L["statesync.recovery_ms"] = out.recovery_ms;
      if (c.restarts() != 1 ||
          info.outcome != harness::RestartOutcome::kDeltaSync ||
          sync.syncs_completed != 1) {
        out.failures.push_back("expected exactly one completed delta sync");
      }
      if (!recovered) out.failures.push_back("restarted node never caught up");
      // A batch committed more than the latency limit before the end must
      // be revealed everywhere: anything else is a reveal hole.
      for (NodeId i = 0; i < w.n; ++i) {
        if (!c.node_alive(i)) continue;
        for (const core::CommittedBatch& b : c.node(i).ledger()) {
          if (b.revealed_at == 0 && b.committed_at < cutoff) {
            out.failures.push_back("unrevealed batch on node " +
                                   std::to_string(i));
            break;
          }
        }
      }
    }
  } else {
    harness::PompeCluster& c = *cluster;
    std::uint64_t proofs = 0;
    for (NodeId i = 0; i < w.n; ++i) {
      proofs += c.node(i).stats().proof_verifications;
    }
    std::uint64_t block_txs = 0;
    std::set<std::uint64_t> blocks;
    for (const pompe::PompeCommitted& b : c.node(0).ledger()) {
      mix(h, b.assigned_ts);
      mix(h, b.batch_digest);
      mix(h, b.proposer);
      mix(h, b.tx_count);
      mix(h, b.committed_at);
      mix(h, b.block_height);
      if (b.committed_at > w.measure_from && b.committed_at <= w.window_end) {
        block_txs += b.tx_count;
        blocks.insert(b.block_height);
      }
    }
    L["pompe.proof_verifications_per_tx"] =
        static_cast<double>(proofs - proofs0) / tx;
    L["pompe.sim_cpu_ms_per_tx"] = cpu_ms / tx;
    L["hotstuff.txs_per_block"] =
        blocks.empty() ? 0.0
                       : static_cast<double>(block_txs) /
                             static_cast<double>(blocks.size());
    if (w.open_loop()) {
      workload::EconomicsParams params;
      econ = attacks::evaluate_pompe_economics(c.node(0), params);
    }
  }
  out.extracted_value = econ.extracted_value;
  L["econ.extracted_value"] = econ.extracted_value;
  L["econ.victims_targeted"] = static_cast<double>(econ.victims_targeted);
  L["econ.frontruns_won"] = static_cast<double>(econ.frontrun_successes);
  L["econ.sandwiches_closed"] = static_cast<double>(econ.sandwich_completes);
  out.digest = h;

  if (tr != nullptr) {
    const CountingAdversary& a = *tr->adversary;
    L["net.msgs_per_tx"] = static_cast<double>(a.total_messages()) / tx;
    L["net.bytes_per_tx"] = static_cast<double>(a.total_bytes()) / tx;
    L["net.nic_backlog_max_ms"] = to_ms(a.nic_backlog_max());
    for (std::size_t k = 0; k <= kind_names().size(); ++k) {
      const std::string name =
          k < kind_names().size() ? kind_names()[k].name : "other";
      L["net.msgs." + name] = static_cast<double>(a.messages()[k]);
    }
    cluster->network().set_adversary(nullptr);
  }
  return out;
}

}  // namespace

RunOutput run_workload(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  return w.protocol == Protocol::kLyra
             ? drive<harness::LyraCluster>(w, seed, tracer)
             : drive<harness::PompeCluster>(w, seed, tracer);
}

}  // namespace perfbench
