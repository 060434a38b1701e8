#pragma once

// Pure functions that turn client-side observations into the benchmark's
// end-to-end request metrics. Kept free of simulator types so the tests
// can pin their definitions with hand-made inputs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> values);

/// The highest percentile of a latency sample that still has at least
/// `beyond` samples above it, so the tail is never set by a single outlier.
struct Tail {
  double value = 0;       ///< the sample with exactly `beyond` above it
  double percentile = 0;  ///< its rank, in percent
  std::size_t samples = 0;
  bool supported = false;  ///< false when there are not `beyond`+1 samples
};
Tail supported_tail(std::vector<double> samples, std::size_t beyond = 10);

/// Requests attempted and failed inside a measurement window. A request
/// fails if it was refused for good, or if it is still uncommitted and
/// older than the workload's latency limit when the window closes. A
/// request still in flight at the end and younger than the limit is
/// censored: it counts as neither attempted nor failed.
struct Census {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// One closed-loop client pool at the window's end (time T). Every client
/// keeps exactly one request in flight, and a client resubmits the moment
/// its previous request commits. A client therefore holds a request older
/// than the limit L exactly when it saw no commit in (T-L, T].
struct ClosedPoolObservation {
  std::uint64_t clients = 0;              ///< width x targets
  std::uint64_t committed_in_window = 0;  ///< transactions
  /// Transactions committed in (T-L, T]. Each client that committed in
  /// that span contributes at least one, so `clients - commits_recent` is
  /// the number of stale clients when each committed at most once, and a
  /// lower bound otherwise. A pool whose target stalls for the whole span
  /// is counted exactly.
  std::uint64_t commits_recent = 0;
};
Census closed_loop_census(const std::vector<ClosedPoolObservation>& pools);

/// One open-loop pool. Arrival ordinals count from 1 in arrival order, so
/// the arrival counter at time t tells which ordinals had arrived by t.
struct OpenPoolObservation {
  std::uint64_t arrived_at_start = 0;   ///< arrivals by the window start F
  std::uint64_t arrived_at_cutoff = 0;  ///< arrivals by T - L
  std::uint64_t arrived_at_end = 0;     ///< arrivals by T
  std::uint64_t committed_in_window = 0;  ///< of arrivals in (F, T]
  /// Ordinals still neither committed nor refused for good at T.
  std::vector<std::uint64_t> unresolved;
};
Census open_loop_census(const std::vector<OpenPoolObservation>& pools);

}  // namespace perfbench
