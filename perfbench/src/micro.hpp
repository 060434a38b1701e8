#pragma once

// Layer microbenchmarks: public calls of the crypto, network and storage
// layers timed at one workload's sizes. Repetition counts are fixed here,
// so two builds always time the same amount of work.

#include <cstddef>
#include <map>
#include <string>

#include "trace.hpp"

namespace perfbench {

struct MicroSizes {
  std::size_t n = 4;            ///< consensus nodes
  std::size_t f = 1;
  std::size_t batch_bytes = 0;  ///< one full batch of 32-byte transactions
};

/// Runs every microbenchmark, recording one span per benchmark in `log`,
/// and returns the per-layer metrics they produce (crypto.*, net.send_ns,
/// net.send_all_ns, storage.append_us).
std::map<std::string, double> run_microbenchmarks(const MicroSizes& sizes,
                                                  SpanLog& log);

}  // namespace perfbench
