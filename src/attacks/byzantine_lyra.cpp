#include "attacks/byzantine_lyra.hpp"

#include "sim/payload_pool.hpp"

namespace lyra::attacks {

void SelectiveInitLyraNode::propose_selectively(BytesView payload) {
  const InstanceId inst{id(), next_proposal_index_++};
  auto msg = sim::make_payload<core::InitMsg>();
  msg->inst = inst;
  const SeqNum s_ref = clock_now();
  msg->predictions = build_predictions(s_ref);
  msg->tx_count = 1;
  msg->nominal_bytes = payload.size();
  msg->cipher = vss_.encrypt(payload, sim().rng());
  const crypto::Digest value_id =
      compute_value_id(inst, msg->cipher.cipher_id(), msg->predictions);
  msg->sig = signer_.sign(value_id);
  fill_status(msg->status, /*broadcast=*/false);
  for (NodeId to = 0; to < std::min<std::size_t>(recipients_, config_.n);
       ++to) {
    send(to, msg);
  }
}

ReplayInitLyraNode::ReplayInitLyraNode(sim::Simulation* sim,
                                       net::Network* network, NodeId id,
                                       const core::Config& config,
                                       const crypto::KeyRegistry* registry,
                                       TimeNs replay_every,
                                       std::size_t replay_burst)
    : core::LyraNode(sim, network, id, config, registry),
      replay_every_(replay_every),
      replay_burst_(replay_burst) {}

void ReplayInitLyraNode::on_start() {
  core::LyraNode::on_start();
  set_timer(replay_every_, [this] { replay_tick(); });
}

void ReplayInitLyraNode::on_message(const sim::Envelope& env) {
  if (env.payload->kind() == sim::MsgKind::kInit) {
    seen_.push_back(
        {now(), std::static_pointer_cast<const core::InitMsg>(env.payload)});
  }
  core::LyraNode::on_message(env);
}

void ReplayInitLyraNode::replay_tick() {
  // Only INITs whose instance every correct process has GC'd are worth
  // re-presenting: those re-join as fresh instances and re-verify. The
  // slack covers decide-time skew across nodes.
  const TimeNs ripe = config_.instance_gc_idle + config_.instance_gc_idle / 2;
  std::size_t replayable = 0;
  while (replayable < seen_.size() &&
         now() - seen_[replayable].seen_at >= ripe) {
    ++replayable;
  }
  // Bound the retained window: the attacker cycles a working set, it does
  // not hoard the whole run's traffic.
  constexpr std::size_t kMaxRetained = 256;
  while (replayable > kMaxRetained) {
    seen_.pop_front();
    --replayable;
    cursor_ = cursor_ > 0 ? cursor_ - 1 : 0;
  }
  for (std::size_t i = 0; i < replay_burst_ && replayable > 0; ++i) {
    if (cursor_ >= replayable) cursor_ = 0;
    auto relay = sim::make_payload<core::InitRelayMsg>();
    relay->inner = seen_[cursor_++].init;
    broadcast_msg(relay);
    ++replays_;
  }
  set_timer(replay_every_, [this] { replay_tick(); });
}

std::shared_ptr<core::InitMsg> EquivocatingLyraNode::make_init(
    const InstanceId& inst, BytesView payload) {
  auto msg = sim::make_payload<core::InitMsg>();
  msg->inst = inst;
  const SeqNum s_ref = clock_now();
  msg->predictions = build_predictions(s_ref);
  msg->tx_count = 1;
  msg->nominal_bytes = payload.size();
  msg->cipher = vss_.encrypt(payload, sim().rng());
  const crypto::Digest value_id =
      compute_value_id(inst, msg->cipher.cipher_id(), msg->predictions);
  msg->sig = signer_.sign(value_id);
  fill_status(msg->status, /*broadcast=*/false);
  return msg;
}

void EquivocatingLyraNode::equivocate(BytesView payload_even,
                                      BytesView payload_odd) {
  const InstanceId inst{id(), next_proposal_index_++};
  const auto even = make_init(inst, payload_even);
  const auto odd = make_init(inst, payload_odd);
  for (NodeId to = 0; to < config_.n; ++to) {
    send(to, to % 2 == 0 ? sim::PayloadPtr(even) : sim::PayloadPtr(odd));
  }
  ++equivocations_;
}

}  // namespace lyra::attacks
