#include "census.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

Tail supported_tail(std::vector<double> samples, std::size_t beyond) {
  Tail t;
  t.samples = samples.size();
  if (samples.size() <= beyond) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = samples.size() - beyond - 1;
  t.value = samples[rank];
  t.percentile = 100.0 * static_cast<double>(samples.size() - beyond) /
                 static_cast<double>(samples.size());
  t.supported = true;
  return t;
}

Census closed_loop_census(const std::vector<ClosedPoolObservation>& pools) {
  Census c;
  for (const ClosedPoolObservation& p : pools) {
    const std::uint64_t stale =
        p.clients > p.commits_recent ? p.clients - p.commits_recent : 0;
    c.attempted += p.committed_in_window + stale;
    c.failed += stale;
  }
  return c;
}

Census open_loop_census(const std::vector<OpenPoolObservation>& pools) {
  Census c;
  for (const OpenPoolObservation& p : pools) {
    std::uint64_t unresolved_in_window = 0;
    std::uint64_t stale = 0;
    for (const std::uint64_t ordinal : p.unresolved) {
      if (ordinal <= p.arrived_at_start) continue;  // arrived before F
      ++unresolved_in_window;
      if (ordinal <= p.arrived_at_cutoff) ++stale;
    }
    const std::uint64_t arrivals = p.arrived_at_end - p.arrived_at_start;
    const std::uint64_t censored = unresolved_in_window - stale;
    // Every arrival in the window was committed, refused for good, or is
    // still unresolved; the refusals are what remains.
    const std::uint64_t settled = p.committed_in_window + unresolved_in_window;
    const std::uint64_t refused = arrivals > settled ? arrivals - settled : 0;
    c.attempted += arrivals - censored;
    c.failed += refused + stale;
  }
  return c;
}

}  // namespace perfbench
