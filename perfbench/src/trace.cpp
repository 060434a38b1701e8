#include "trace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "lyra/lyra_node.hpp"
#include "pompe/pompe_node.hpp"

namespace perfbench {

using lyra::sim::MsgKind;

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].duration_ns =
      now_ns() - spans_[static_cast<std::size_t>(index)].start_ns;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::add_group(std::string name, std::int64_t count,
                        std::int64_t total_ns) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.duration_ns = total_ns;
  s.count = count;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
}

std::int64_t SpanLog::self_ns(int index) const {
  std::int64_t children = 0;
  for (const Span& s : spans_) {
    if (s.parent == index) children += s.duration_ns;
  }
  return spans_[static_cast<std::size_t>(index)].duration_ns - children;
}

std::int64_t SpanLog::total_ns(const std::string& name) const {
  std::int64_t sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.duration_ns;
  }
  return sum;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"duration_ns\": %lld, "
                 "\"count\": %lld}%s\n",
                 i, s.parent, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.duration_ns),
                 static_cast<long long>(s.count),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void HandlerClock::flush(SpanLog& log, const char* name) {
  if (calls == 0) return;
  log.add_group(name, calls, busy_ns);
  busy_ns = 0;
  calls = 0;
}

namespace {

template <class Base, class Config>
class Timed : public Base {
 public:
  Timed(lyra::sim::Simulation* sim, lyra::net::Network* net, lyra::NodeId id,
        const Config& cfg, const lyra::crypto::KeyRegistry* reg,
        HandlerClock* clock)
      : Base(sim, net, id, cfg, reg), clock_(clock) {}

 protected:
  void on_message(const lyra::sim::Envelope& env) override {
    const std::size_t depth = this->inbox_depth();
    if (depth > clock_->inbox_max) clock_->inbox_max = depth;
    const std::int64_t t0 = now_ns();
    Base::on_message(env);
    clock_->busy_ns += now_ns() - t0;
    ++clock_->calls;
  }

 private:
  HandlerClock* clock_;
};

}  // namespace

lyra::harness::NodeFactory lyra_node_factory(lyra::harness::NodeFactory inner,
                                             HandlerClock* clock) {
  return [inner = std::move(inner), clock](
             lyra::sim::Simulation* sim, lyra::net::Network* net,
             lyra::NodeId id, const lyra::core::Config& cfg,
             const lyra::crypto::KeyRegistry* reg)
             -> std::unique_ptr<lyra::core::LyraNode> {
    if (inner) {
      auto node = inner(sim, net, id, cfg, reg);
      if (node != nullptr) return node;
    }
    if (clock == nullptr) {
      return std::make_unique<lyra::core::LyraNode>(sim, net, id, cfg, reg);
    }
    return std::make_unique<Timed<lyra::core::LyraNode, lyra::core::Config>>(
        sim, net, id, cfg, reg, clock);
  };
}

lyra::harness::PompeNodeFactory pompe_node_factory(
    lyra::harness::PompeNodeFactory inner, HandlerClock* clock) {
  return [inner = std::move(inner), clock](
             lyra::sim::Simulation* sim, lyra::net::Network* net,
             lyra::NodeId id, const lyra::pompe::PompeConfig& cfg,
             const lyra::crypto::KeyRegistry* reg)
             -> std::unique_ptr<lyra::pompe::PompeNode> {
    if (inner) {
      auto node = inner(sim, net, id, cfg, reg);
      if (node != nullptr) return node;
    }
    if (clock == nullptr) {
      return std::make_unique<lyra::pompe::PompeNode>(sim, net, id, cfg, reg);
    }
    return std::make_unique<
        Timed<lyra::pompe::PompeNode, lyra::pompe::PompeConfig>>(
        sim, net, id, cfg, reg, clock);
  };
}

const std::vector<KindName>& kind_names() {
  static const std::vector<KindName> names = {
      {MsgKind::kInit, "init"},
      {MsgKind::kVote, "vote"},
      {MsgKind::kDeliver, "deliver"},
      {MsgKind::kEst, "est"},
      {MsgKind::kCoord, "coord"},
      {MsgKind::kAux, "aux"},
      {MsgKind::kShares, "shares"},
      {MsgKind::kHeartbeat, "heartbeat"},
      {MsgKind::kProbe, "probe"},
      {MsgKind::kProbeReply, "probe_reply"},
      {MsgKind::kReqInit, "req_init"},
      {MsgKind::kInitRelay, "init_relay"},
      {MsgKind::kResyncReq, "resync_req"},
      {MsgKind::kResyncReply, "resync_reply"},
      {MsgKind::kSubmit, "submit"},
      {MsgKind::kCommitNotify, "commit_notify"},
      {MsgKind::kMempoolReject, "mempool_reject"},
      {MsgKind::kHsProposal, "hs_proposal"},
      {MsgKind::kHsVote, "hs_vote"},
      {MsgKind::kHsNewView, "hs_new_view"},
      {MsgKind::kTsRequest, "ts_request"},
      {MsgKind::kTsReply, "ts_reply"},
      {MsgKind::kSequence, "sequence"},
      {MsgKind::kSyncManifestReq, "sync_manifest_req"},
      {MsgKind::kSyncManifestReply, "sync_manifest_reply"},
      {MsgKind::kSyncChunkReq, "sync_chunk_req"},
      {MsgKind::kSyncChunkReply, "sync_chunk_reply"},
      {MsgKind::kRevealReq, "reveal_req"},
      {MsgKind::kRevealReply, "reveal_reply"},
  };
  return names;
}

namespace {

constexpr std::size_t kKindSpace = 512;

/// MsgKind value -> kind_names() slot; unknown kinds map to the last slot.
const std::array<std::uint8_t, kKindSpace>& slot_table() {
  static const std::array<std::uint8_t, kKindSpace> table = [] {
    std::array<std::uint8_t, kKindSpace> t{};
    t.fill(static_cast<std::uint8_t>(kind_names().size()));
    for (std::size_t i = 0; i < kind_names().size(); ++i) {
      t[static_cast<std::size_t>(kind_names()[i].kind)] =
          static_cast<std::uint8_t>(i);
    }
    return t;
  }();
  return table;
}

}  // namespace

lyra::TimeNs CountingAdversary::delay(const lyra::sim::Envelope& env,
                                      lyra::TimeNs base_delay, lyra::Rng&) {
  const auto kind = static_cast<std::size_t>(env.payload->kind());
  const std::size_t slot =
      kind < kKindSpace ? slot_table()[kind] : kind_names().size();
  ++messages_[slot];
  bytes_ += env.payload->wire_size();
  const lyra::TimeNs backlog = network_->nic_backlog(env.from);
  if (backlog > nic_backlog_max_) nic_backlog_max_ = backlog;
  return base_delay;
}

void CountingAdversary::reset() {
  std::fill(messages_.begin(), messages_.end(), 0);
  bytes_ = 0;
  nic_backlog_max_ = 0;
}

std::uint64_t CountingAdversary::total_messages() const {
  std::uint64_t sum = 0;
  for (std::uint64_t m : messages_) sum += m;
  return sum;
}

}  // namespace perfbench
