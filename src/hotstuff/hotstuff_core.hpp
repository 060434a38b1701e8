#pragma once

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "crypto/cost_model.hpp"
#include "crypto/keys.hpp"
#include "hotstuff/block.hpp"
#include "hotstuff/messages.hpp"
#include "sim/message.hpp"

namespace lyra::hotstuff {

/// Event-driven chained HotStuff (Yin et al., PODC'19): the consensus
/// substrate under the Pompē baseline and the plain leader-based SMR used
/// by the censorship demo.
///
/// One block per quorum round-trip; a block commits when it heads a
/// three-chain of consecutive quorum certificates. The pacemaker rotates
/// the leader on timeout (NewView with the highest known QC). Votes are
/// threshold-signature shares; a QC is the combined signature.
///
/// The class is transport-agnostic: the owning sim::Process supplies hooks
/// for sending, timers, CPU accounting, command collection and commit
/// delivery, which keeps HotStuff reusable (PompeNode composes it).
class HotStuffCore {
 public:
  struct Hooks {
    std::function<void(sim::PayloadPtr)> broadcast;
    std::function<void(NodeId, sim::PayloadPtr)> send;
    std::function<void(TimeNs, std::function<void()>)> set_timer;
    std::function<void(TimeNs)> charge;
    /// Leader pulls proposable entries, up to `max_bytes` of payload.
    std::function<std::vector<BlockEntry>(std::uint64_t max_bytes)> collect;
    /// A block became committed (three-chain head). Called in height order.
    std::function<void(const Block&)> on_commit;
  };

  struct Options {
    std::size_t n = 4;
    std::size_t f = 1;
    NodeId self = 0;
    NodeId initial_leader = 0;
    std::uint64_t max_block_bytes = 512 * 1024;
    TimeNs view_timeout = 0;  // 0 = derived as 10 * delta by the caller
    crypto::CryptoCosts costs;
    double cpu_parallelism = 16.0;
  };

  HotStuffCore(Options options, const crypto::KeyRegistry* registry,
               Hooks hooks);

  void on_start();

  /// Routes HotStuff messages; returns false if the payload is not ours.
  bool handle(const sim::Envelope& env);

  /// New commands are available: the leader may propose.
  void kick();

  // --- introspection ---
  NodeId current_leader() const { return leader_of(view_); }
  std::uint64_t view() const { return view_; }
  std::uint64_t committed_height() const { return committed_height_; }
  std::uint64_t blocks_proposed() const { return blocks_proposed_; }
  std::uint64_t blocks_committed() const { return blocks_committed_; }
  const QuorumCert& high_qc() const { return high_qc_; }

  /// Overridden by a Byzantine-leader subclass to censor entries.
  std::function<void(std::vector<BlockEntry>&)> entry_filter;

 private:
  NodeId leader_of(std::uint64_t view) const {
    return static_cast<NodeId>((options_.initial_leader + view) %
                               options_.n);
  }
  bool is_leader() const { return current_leader() == options_.self; }

  void try_propose();
  void handle_proposal(const sim::Envelope& env, const ProposalMsg& m);
  void handle_vote(const sim::Envelope& env, const BlockVoteMsg& m);
  void handle_new_view(const sim::Envelope& env, const NewViewMsg& m);
  void update_high_qc(const QuorumCert& qc);
  void commit_chain(const Block& anchor);
  BlockPtr lookup(const crypto::Digest& d) const;
  crypto::Digest vote_message(std::uint64_t height,
                              const crypto::Digest& block) const;
  void arm_pacemaker();
  void on_pacemaker_timeout();
  TimeNs ccost(TimeNs base) const {
    return static_cast<TimeNs>(static_cast<double>(base) /
                               options_.cpu_parallelism);
  }

  Options options_;
  const crypto::KeyRegistry* registry_;
  crypto::Signer signer_;
  Hooks hooks_;

  std::unordered_map<crypto::Digest, BlockPtr, crypto::DigestHash> blocks_;
  crypto::Digest genesis_digest_{};
  QuorumCert high_qc_;
  QuorumCert locked_qc_;
  std::uint64_t voted_height_ = 0;
  std::uint64_t voted_view_ = 0;
  std::uint64_t view_ = 0;
  std::uint64_t committed_height_ = 0;
  std::uint64_t last_proposed_height_ = 0;
  std::uint64_t last_proposed_view_ = 0;
  std::uint64_t highest_nonempty_height_ = 0;

  // Leader vote aggregation per block digest.
  struct VotePool {
    std::uint64_t height = 0;
    std::vector<crypto::SigShare> shares;
    std::vector<bool> seen;
    bool formed = false;
  };
  std::unordered_map<crypto::Digest, VotePool, crypto::DigestHash> votes_;

  // NewView aggregation per view.
  std::map<std::uint64_t, std::vector<bool>> new_view_from_;
  std::map<std::uint64_t, std::size_t> new_view_count_;

  std::uint64_t pacemaker_generation_ = 0;
  TimeNs current_timeout_ = 0;

  std::uint64_t blocks_proposed_ = 0;
  std::uint64_t blocks_committed_ = 0;
};

}  // namespace lyra::hotstuff
