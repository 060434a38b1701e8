#include "hotstuff/hotstuff_core.hpp"

#include <algorithm>

#include "sim/payload_pool.hpp"
#include "support/pool.hpp"

#include "support/assert.hpp"

namespace lyra::hotstuff {

HotStuffCore::HotStuffCore(Options options,
                           const crypto::KeyRegistry* registry, Hooks hooks)
    : options_(options),
      registry_(registry),
      signer_(registry->signer_for(options.self)),
      hooks_(std::move(hooks)) {
  LYRA_ASSERT(options_.n > 3 * options_.f, "need n > 3f");
  LYRA_ASSERT(options_.view_timeout > 0, "view_timeout must be set");

  auto genesis = support::make_pooled<Block>();
  genesis->height = 0;
  genesis_digest_ = genesis->digest();
  blocks_.emplace(genesis_digest_, std::move(genesis));

  high_qc_.genesis = true;
  high_qc_.block = genesis_digest_;
  locked_qc_ = high_qc_;
  current_timeout_ = options_.view_timeout;
}

void HotStuffCore::on_start() {
  arm_pacemaker();
  if (is_leader()) try_propose();
}

bool HotStuffCore::handle(const sim::Envelope& env) {
  const sim::Payload& p = *env.payload;
  switch (p.kind()) {
    case sim::MsgKind::kHsProposal:
      handle_proposal(env, static_cast<const ProposalMsg&>(p));
      return true;
    case sim::MsgKind::kHsVote:
      handle_vote(env, static_cast<const BlockVoteMsg&>(p));
      return true;
    case sim::MsgKind::kHsNewView:
      handle_new_view(env, static_cast<const NewViewMsg&>(p));
      return true;
    default:
      return false;
  }
}

void HotStuffCore::kick() {
  if (is_leader()) try_propose();
}

void HotStuffCore::try_propose() {
  if (!is_leader()) return;
  const std::uint64_t next_height = high_qc_.height + 1;
  // One proposal per height per view: wait for the QC, unless a view
  // change made us leader again at the same height.
  if (next_height <= last_proposed_height_ && view_ <= last_proposed_view_) {
    return;
  }

  std::vector<BlockEntry> entries = hooks_.collect(options_.max_block_bytes);
  if (entry_filter) entry_filter(entries);
  if (entries.empty()) {
    // Propose an empty block only to flush the three-chain pipeline: block
    // h commits when replicas receive the proposal at h+3 (whose justify
    // completes the three-chain), so keep extending until everything
    // non-empty has committed.
    if (highest_nonempty_height_ <= committed_height_) return;
  }

  auto block = support::make_pooled<Block>();
  block->height = next_height;
  block->view = view_;
  block->proposer = options_.self;
  block->parent = high_qc_.block;
  block->justify = high_qc_;
  block->entries = std::move(entries);

  last_proposed_height_ = next_height;
  last_proposed_view_ = view_;
  ++blocks_proposed_;
  hooks_.charge(ccost(options_.costs.hash_cost(block->wire_bytes())));

  auto msg = sim::make_payload<ProposalMsg>();
  msg->block = block;
  hooks_.broadcast(std::move(msg));  // self-delivery makes the leader vote
}

void HotStuffCore::handle_proposal(const sim::Envelope& env,
                                   const ProposalMsg& m) {
  if (!m.block) return;
  const Block& b = *m.block;
  if (env.from != b.proposer) return;  // relayed proposals are not a thing
  if (b.proposer != leader_of(b.view)) return;
  if (b.parent != b.justify.block || b.height != b.justify.height + 1) {
    return;  // malformed chain
  }

  // Verify the justify QC (combined threshold signature, O(1)).
  if (!b.justify.genesis) {
    hooks_.charge(ccost(options_.costs.threshold_verify));
    if (!registry_->threshold_verify(
            b.justify.sig, vote_message(b.justify.height, b.justify.block))) {
      return;
    }
  }
  hooks_.charge(ccost(options_.costs.hash_cost(b.wire_bytes())));

  const crypto::Digest digest = b.digest();
  blocks_.emplace(digest, m.block);
  if (!b.entries.empty()) {
    highest_nonempty_height_ =
        std::max(highest_nonempty_height_, b.height);
  }
  if (b.view > view_) view_ = b.view;  // adopt the proposer's view

  update_high_qc(b.justify);

  // Locking rule: lock on the one-chain head b' = justify(justify(b*)).
  if (const BlockPtr parent = lookup(b.parent);
      parent && !parent->justify.genesis &&
      parent->justify.height > locked_qc_.height) {
    locked_qc_ = parent->justify;
  }

  // Commit rule: three consecutive QCs commit the tail.
  commit_chain(b);

  // Vote once per (view, height), and only on blocks that respect the
  // lock: extend the locked block or carry a higher justify.
  const bool fresh =
      std::pair{b.view, b.height} > std::pair{voted_view_, voted_height_};
  const bool extends_locked =
      locked_qc_.genesis || b.parent == locked_qc_.block ||
      b.justify.height > locked_qc_.height;
  if (fresh && extends_locked) {
    voted_view_ = b.view;
    voted_height_ = b.height;
    auto vote = sim::make_payload<BlockVoteMsg>();
    vote->height = b.height;
    vote->block = digest;
    hooks_.charge(ccost(options_.costs.share_sign));
    vote->share = signer_.share_sign(vote_message(b.height, digest));
    hooks_.send(b.proposer, std::move(vote));
  }

  arm_pacemaker();  // proposal = progress
  if (is_leader()) try_propose();
}

void HotStuffCore::handle_vote(const sim::Envelope& env,
                               const BlockVoteMsg& m) {
  if (env.from >= options_.n) return;
  VotePool& pool = votes_[m.block];
  if (pool.seen.empty()) pool.seen.assign(options_.n, false);
  if (pool.formed || pool.seen[env.from]) return;
  pool.seen[env.from] = true;
  pool.height = m.height;
  hooks_.charge(ccost(options_.costs.share_verify));
  pool.shares.push_back(m.share);

  if (pool.shares.size() < 2 * options_.f + 1) return;
  hooks_.charge(ccost(options_.costs.share_combine));
  const auto sig =
      registry_->share_combine(vote_message(m.height, m.block), pool.shares);
  if (!sig) return;  // bogus shares present; wait for more votes
  pool.formed = true;

  QuorumCert qc;
  qc.height = m.height;
  qc.block = m.block;
  qc.sig = *sig;
  update_high_qc(qc);
  try_propose();
}

void HotStuffCore::handle_new_view(const sim::Envelope& env,
                                   const NewViewMsg& m) {
  if (env.from >= options_.n || m.view < view_) return;
  update_high_qc(m.high_qc);
  // View synchronization: adopt the highest view observed, so timed-out
  // replicas converge instead of drifting apart on local backoffs.
  if (m.view > view_) {
    view_ = m.view;
    arm_pacemaker();
  }
  auto& seen = new_view_from_[m.view];
  if (seen.empty()) seen.assign(options_.n, false);
  if (seen[env.from]) return;
  seen[env.from] = true;
  if (++new_view_count_[m.view] >= 2 * options_.f + 1 &&
      leader_of(m.view) == options_.self) {
    try_propose();
  }
}

void HotStuffCore::update_high_qc(const QuorumCert& qc) {
  if (qc.genesis) return;
  if (high_qc_.genesis || qc.height > high_qc_.height) {
    high_qc_ = qc;
  }
}

void HotStuffCore::commit_chain(const Block& b_star) {
  // b* -> b'' (justify) -> b' -> b: commit b when b''..b are consecutive.
  const BlockPtr b2 = lookup(b_star.justify.block);
  if (!b2 || b2->justify.genesis) return;
  const BlockPtr b1 = lookup(b2->justify.block);
  if (!b1 || b1->justify.genesis) return;
  const BlockPtr b0 = lookup(b1->justify.block);
  if (!b0) return;
  if (b2->parent != b2->justify.block || b1->parent != b1->justify.block) {
    return;
  }
  if (b2->height != b1->height + 1 || b1->height != b0->height + 1) return;
  if (b0->height <= committed_height_) return;

  // Commit b0 and any uncommitted ancestors, oldest first.
  std::vector<BlockPtr> chain;
  BlockPtr cursor = b0;
  while (cursor && cursor->height > committed_height_) {
    chain.push_back(cursor);
    cursor = lookup(cursor->parent);
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    committed_height_ = (*it)->height;
    ++blocks_committed_;
    hooks_.on_commit(**it);
  }
  arm_pacemaker();
  current_timeout_ = options_.view_timeout;  // progress resets backoff
}

BlockPtr HotStuffCore::lookup(const crypto::Digest& d) const {
  const auto it = blocks_.find(d);
  return it == blocks_.end() ? nullptr : it->second;
}

crypto::Digest HotStuffCore::vote_message(std::uint64_t height,
                                          const crypto::Digest& block) const {
  return crypto::Hasher().add_str("hs-vote").add_u64(height).add(block)
      .digest();
}

void HotStuffCore::arm_pacemaker() {
  const std::uint64_t generation = ++pacemaker_generation_;
  hooks_.set_timer(current_timeout_, [this, generation] {
    if (generation == pacemaker_generation_) on_pacemaker_timeout();
  });
}

void HotStuffCore::on_pacemaker_timeout() {
  // No progress: move to the next view and hand the highest QC to its
  // leader. Exponential backoff keeps views long enough to converge.
  ++view_;
  current_timeout_ = std::min<TimeNs>(current_timeout_ * 2,
                                      options_.view_timeout * 16);
  // Broadcast so every replica converges on the new view (self-delivery
  // registers our own NewView with the counting logic).
  auto msg = sim::make_payload<NewViewMsg>();
  msg->view = view_;
  msg->high_qc = high_qc_;
  hooks_.broadcast(std::move(msg));
  arm_pacemaker();
}

}  // namespace lyra::hotstuff
