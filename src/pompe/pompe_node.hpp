#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/verify_cache.hpp"
#include "hotstuff/hotstuff_core.hpp"
#include "lyra/batching.hpp"
#include "lyra/messages.hpp"  // client SubmitMsg / CommitNotifyMsg
#include "net/network.hpp"
#include "ordering/ordering_clock.hpp"
#include "pompe/messages.hpp"
#include "sim/process.hpp"
#include "support/stats.hpp"
#include "workload/mempool.hpp"

namespace lyra::pompe {

/// Parameters of a Pompē deployment: same batching and testbed knobs as
/// Lyra's Config so head-to-head runs compare like for like.
struct PompeConfig {
  std::size_t n = 4;
  std::size_t f = 1;
  TimeNs delta = ms(150);
  std::size_t batch_size = 800;
  TimeNs batch_timeout = ms(50);
  TimeNs clock_offset_spread = ms(2);  // NTP-grade skew
  NodeId initial_leader = 0;
  std::uint64_t max_block_bytes = 512 * 1024;
  crypto::CryptoCosts costs;
  double cpu_parallelism = 16.0;
  TimeNs message_overhead = us(1);

  /// Memoize per-node verification verdicts for timestamp signatures
  /// (same semantics as lyra::Config::memoize_verification: verdicts are
  /// unchanged, only cache-hit charges are skipped; off by default).
  bool memoize_verification = false;

  /// Bounded fee-priority mempool in front of batch formation — same
  /// semantics as lyra::Config::mempool_capacity, 0 = off (the default,
  /// bit-identical legacy behaviour).
  std::size_t mempool_capacity = 0;

  std::size_t quorum() const { return 2 * f + 1; }
};

struct PompeStats {
  std::uint64_t proposals = 0;        // phase-1 batches started
  std::uint64_t sequenced = 0;        // batches with a timestamp proof
  std::uint64_t committed_batches = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t proof_verifications = 0;  // individual timestamp sigs
  // Verification memoization (PompeConfig::memoize_verification).
  std::uint64_t verify_cache_hits = 0;
  std::uint64_t verify_cache_misses = 0;
};

/// One committed batch in Pompē's output, ordered by assigned timestamp
/// within each committed block.
struct PompeCommitted {
  SeqNum assigned_ts = kNoSeq;
  crypto::Digest batch_digest{};
  NodeId proposer = kNoNode;
  std::uint32_t tx_count = 0;
  TimeNs committed_at = 0;
  std::uint64_t block_height = 0;
};

/// A Pompē replica (Zhang et al., OSDI'20, rebuilt per DESIGN.md): phase 1
/// collects 2f+1 signed timestamps and assigns their median; phase 2 runs
/// the sequenced batches through chained HotStuff. Leader-based: the
/// HotStuff leader carries every batch to every replica.
class PompeNode : public sim::Process {
 public:
  PompeNode(sim::Simulation* sim, net::Network* network, NodeId id,
            const PompeConfig& config, const crypto::KeyRegistry* registry);

  void on_start() override;

  void submit_local(BytesView tx, NodeId reply_to = kNoNode,
                    TimeNs submitted_at = -1);

  const PompeConfig& config() const { return config_; }
  const std::vector<PompeCommitted>& ledger() const { return ledger_; }
  const PompeStats& stats() const { return stats_; }
  const hotstuff::HotStuffCore& hotstuff() const { return hotstuff_; }
  hotstuff::HotStuffCore& hotstuff() { return hotstuff_; }
  SeqNum clock_now() const { return clock_.now(); }

  /// Payload of a batch this node stores (empty if unknown). Used by the
  /// execution layer and the attack demos.
  const Bytes* batch_payload(const crypto::Digest& digest) const;

  /// Called for every committed batch in execution order.
  void set_commit_hook(std::function<void(const PompeCommitted&)> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Bounded fee-priority admission (nullptr unless mempool_capacity > 0).
  workload::Mempool* mempool() { return mempool_.get(); }
  const workload::Mempool* mempool() const { return mempool_.get(); }
  /// Runtime capacity change (fuzz admission-flap fault); shrink-evicted
  /// transactions earn their clients a MempoolReject.
  void set_mempool_capacity(std::size_t capacity);

 protected:
  void on_message(const sim::Envelope& env) override;

  // --- Byzantine/attack hooks ---
  /// Timestamp this node reports for a batch (Byzantine nodes may skew it).
  virtual SeqNum timestamp_for(const TsRequestMsg& m);
  /// Observation hook: every clear-text batch this node receives in
  /// phase 1 (the front-runner taps this).
  virtual void observe_batch(const TsRequestMsg& m) { (void)m; }

  void handle_submit(const sim::Envelope& env, const core::SubmitMsg& m);
  void maybe_propose();
  void flush_partial_batch();
  void propose_carved(core::BatchAssembler::Carved carved);
  void admit_workload(NodeId from,
                      const std::vector<workload::WorkloadTx>& txs);
  void send_mempool_rejects(
      const std::map<NodeId, std::vector<std::uint64_t>>& rejects);
  core::BatchAssembler::Carved carve_mempool(std::size_t max_txs);
  void arm_batch_timer();
  void handle_ts_request(const sim::Envelope& env, const TsRequestMsg& m);
  void handle_ts_reply(const sim::Envelope& env, const TsReplyMsg& m);
  void handle_sequence(const sim::Envelope& env, const SequenceMsg& m);
  void on_block_commit(const hotstuff::Block& block);

  crypto::Digest ts_message(const crypto::Digest& digest, SeqNum ts) const;
  TimeNs ccost(TimeNs base) const {
    return static_cast<TimeNs>(static_cast<double>(base) /
                               config_.cpu_parallelism);
  }
  /// Verifies one signed timestamp, optionally through the memo cache
  /// (charges the modeled verify cost only when actually verifying).
  /// `count_proof` ticks stats_.proof_verifications for computed checks.
  bool check_ts_sig(const crypto::Digest& batch_digest, SeqNum ts,
                    const crypto::Signature& sig, NodeId signer,
                    bool count_proof);

  PompeConfig config_;
  const crypto::KeyRegistry* registry_;
  crypto::Signer signer_;
  crypto::VerifyCache verify_cache_;
  ordering::OrderingClock clock_;
  hotstuff::HotStuffCore hotstuff_;

  // Proposer-side batch accumulation (same closed-loop client protocol as
  // Lyra).
  struct OwnBatch {
    Bytes payload;
    std::uint32_t tx_count = 0;
    std::uint64_t nominal_bytes = 0;
    std::vector<core::BatchAssembler::Chunk> chunks;
    std::vector<SignedTs> replies;
    std::vector<bool> replied;
    bool sequenced = false;
  };
  core::BatchAssembler assembler_;
  std::unique_ptr<workload::Mempool> mempool_;  // null = legacy direct path
  bool batch_timer_armed_ = false;

  std::unordered_map<crypto::Digest, OwnBatch, crypto::DigestHash>
      own_batches_;

  // Batches observed in phase 1 (payload store) and sequencing state.
  struct KnownBatch {
    Bytes payload;
    NodeId proposer = kNoNode;
    std::uint32_t tx_count = 0;
  };
  std::unordered_map<crypto::Digest, KnownBatch, crypto::DigestHash> known_;
  std::vector<hotstuff::BlockEntry> proposable_;
  std::unordered_set<crypto::Digest, crypto::DigestHash> seen_sequenced_;
  std::unordered_set<crypto::Digest, crypto::DigestHash> executed_;

  std::vector<PompeCommitted> ledger_;
  PompeStats stats_;
  std::function<void(const PompeCommitted&)> commit_hook_;
};

}  // namespace lyra::pompe
