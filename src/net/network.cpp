#include "net/network.hpp"

#include "support/assert.hpp"

namespace lyra::net {

namespace {
/// Separates the network's jitter-stream family from any other
/// derive_stream consumer of the same root seed.
constexpr std::uint64_t kJitterStreamSalt = 0x6e65746a69747472ULL;
}  // namespace

Network::Network(sim::Simulation* sim, std::unique_ptr<LatencyModel> latency,
                 std::size_t consensus_count)
    : sim_(sim),
      latency_(std::move(latency)),
      consensus_count_(consensus_count) {
  LYRA_ASSERT(sim_ != nullptr, "network needs a simulation");
  LYRA_ASSERT(latency_ != nullptr, "network needs a latency model");
  jitter_seed_ = derive_stream(sim_->seed(), kJitterStreamSalt, 0);
}

void Network::attach(sim::Process* process) {
  LYRA_ASSERT(process != nullptr, "cannot attach a null process");
  const NodeId id = process->id();
  if (processes_.size() <= id) processes_.resize(id + 1, nullptr);
  LYRA_ASSERT(processes_[id] == nullptr, "duplicate process id");
  processes_[id] = process;
}

void Network::detach(NodeId id) {
  LYRA_ASSERT(id < processes_.size() && processes_[id] != nullptr,
              "detach of a process that was never attached");
  processes_[id] = nullptr;
}

TimeNs Network::nic_book(NodeId from, std::uint64_t bytes) {
  if (bandwidth_ <= 0.0) return 0;
  if (nic_floor_.size() <= from) nic_floor_.resize(from + 1, 0);
  const auto serialize = static_cast<TimeNs>(
      static_cast<double>(bytes) / bandwidth_ *
      static_cast<double>(kNsPerSec));
  const TimeNs depart = std::max(sim_->now(), nic_floor_[from]) + serialize;
  nic_floor_[from] = depart;
  return depart - sim_->now();
}

void Network::deliver_one(NodeId from, NodeId to, sim::PayloadPtr payload,
                          TimeNs egress_delay) {
  LYRA_ASSERT(to < processes_.size(), "send to unknown process");
  if (processes_[to] == nullptr) {
    // Destination is down (crashed slot): the connection attempt fails and
    // the message is lost, as with TCP to a dead host.
    ++messages_dropped_;
    return;
  }
  sim::Envelope env;
  env.from = from;
  env.to = to;
  env.sent_at = sim_->now();
  env.payload = std::move(payload);

  // Sharded engine-internal stream: this message's latency and adversary
  // draws come from a throwaway Rng whose seed depends only on
  // (simulation seed, sender, sender's message ordinal). Besides keeping
  // jitter out of the handler-visible rng(), this makes each sender's
  // jitter sequence independent of every other sender's traffic — adding
  // or removing one flow does not reshuffle the rest of the run the way a
  // single shared stream would (docs/PERF.md §7).
  if (jitter_counter_.size() <= from) jitter_counter_.resize(from + 1, 0);
  Rng jitter(derive_stream(jitter_seed_, from, jitter_counter_[from]++));
  TimeNs delay = latency_->sample(from, to, jitter);
  if (adversary_ != nullptr) {
    delay = adversary_->delay(env, delay, jitter);
  }
  LYRA_ASSERT(delay >= 0, "negative message delay");
  delay += egress_delay;

  // FIFO channel: a message never overtakes an earlier one on the same
  // directed pair.
  if (channel_floor_.size() <= from) channel_floor_.resize(from + 1);
  std::vector<TimeNs>& row = channel_floor_[from];
  if (row.size() <= to) row.resize(processes_.size(), 0);
  TimeNs& floor = row[to];
  const TimeNs deliver_at = std::max(sim_->now() + delay, floor);
  floor = deliver_at;
  delay = deliver_at - sim_->now();

  ++messages_delivered_;
  sim_->schedule_delivery_in(delay, this, std::move(env));
}

void Network::send(NodeId from, NodeId to, sim::PayloadPtr payload) {
  const TimeNs egress = nic_book(from, payload->wire_size());
  deliver_one(from, to, std::move(payload), egress);
}

void Network::send_all(NodeId from, sim::PayloadPtr payload) {
  // One NIC booking for the whole fan-out: every copy departs when the
  // broadcast finishes serializing, as fair packet interleaving across
  // flows produces in practice.
  const TimeNs egress =
      nic_book(from, payload->wire_size() *
                         static_cast<std::uint64_t>(consensus_count_));
  for (NodeId to = 0; to < consensus_count_; ++to) {
    deliver_one(from, to, payload, egress);
  }
}

TimeNs Network::nic_backlog(NodeId from) const {
  if (from >= nic_floor_.size()) return 0;
  const TimeNs floor = nic_floor_[from];
  return floor > sim_->now() ? floor - sim_->now() : 0;
}

}  // namespace lyra::net
