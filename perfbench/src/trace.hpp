#pragma once

// Outside-in tracing for the benchmark's traced run. Every span is taken by
// the benchmark around a call into a public function of the program: the
// harness calls, Simulation::run_until slices, and each correct node's
// on_message (through NodeFactory subclasses). Nothing here reaches into
// the program, and none of it draws randomness, so a traced run executes
// exactly the schedule of an untraced one.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "net/adversary.hpp"
#include "sim/message.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log, written out once the run is over. A span may stand
/// for many calls of one kind (`count` > 1): per-message handler spans are
/// summed into one child of their run_until slice, which keeps the log to
/// a few thousand entries when a run delivers tens of millions of
/// messages.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t duration_ns = 0;  ///< summed over `count` calls
    std::int64_t count = 1;
    int parent = -1;
  };

  /// Opens a span under the innermost open span; returns its index.
  int open(std::string name);
  void close(int index);
  /// Records `count` calls that took `total_ns` together, as a child of
  /// the innermost open span.
  void add_group(std::string name, std::int64_t count, std::int64_t total_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `index` minus the time its direct children cover.
  std::int64_t self_ns(int index) const;
  /// Summed duration of every span with this name.
  std::int64_t total_ns(const std::string& name) const;

  /// Writes the log as one JSON document.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span over one call.
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name)
      : log_(log), index_(log ? log->open(std::move(name)) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Handler time accumulated by the timed nodes between two slice
/// boundaries, plus the deepest inbox seen on entry.
struct HandlerClock {
  std::int64_t busy_ns = 0;
  std::int64_t calls = 0;
  std::size_t inbox_max = 0;

  /// Moves the accumulated time into `log` as one group span.
  void flush(SpanLog& log, const char* name);
};

/// Node factories: `inner` (may be empty) builds the attacker slots and
/// returns nullptr elsewhere; every other slot gets a correct node. With a
/// clock, correct nodes time each on_message call into it; the sandwich
/// attackers are `final` and stay untimed.
lyra::harness::NodeFactory lyra_node_factory(lyra::harness::NodeFactory inner,
                                             HandlerClock* clock);
lyra::harness::PompeNodeFactory pompe_node_factory(
    lyra::harness::PompeNodeFactory inner, HandlerClock* clock);

/// Message-kind slots: one per MsgKind the program defines, plus "other".
struct KindName {
  lyra::sim::MsgKind kind;
  const char* name;
};
const std::vector<KindName>& kind_names();

/// Pass-through network adversary: returns the honest delay unchanged and
/// draws nothing, and counts messages and bytes per kind on the way.
class CountingAdversary final : public lyra::net::Adversary {
 public:
  explicit CountingAdversary(const lyra::net::Network* network)
      : network_(network) {}

  lyra::TimeNs delay(const lyra::sim::Envelope& env, lyra::TimeNs base_delay,
                     lyra::Rng& rng) override;

  /// Per kind_names() slot; the last slot is every other kind.
  const std::vector<std::uint64_t>& messages() const { return messages_; }
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const { return bytes_; }
  lyra::TimeNs nic_backlog_max() const { return nic_backlog_max_; }
  /// Zeroes every count (called when the measurement window opens).
  void reset();

 private:
  const lyra::net::Network* network_;
  std::vector<std::uint64_t> messages_ =
      std::vector<std::uint64_t>(kind_names().size() + 1, 0);
  std::uint64_t bytes_ = 0;
  lyra::TimeNs nic_backlog_max_ = 0;
};

/// Everything a traced run records. The scenario runner owns the cluster;
/// it reports into this object when one is passed.
struct Tracer {
  SpanLog log;
  HandlerClock lyra_handlers;
  HandlerClock pompe_handlers;
  std::unique_ptr<CountingAdversary> adversary;
};

}  // namespace perfbench
