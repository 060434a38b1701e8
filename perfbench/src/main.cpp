// perfbench: end-to-end and per-layer benchmark of the Lyra/Pompē
// simulation stack (README.md in this directory).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 repeats the workload untraced until S seconds of set-up and
// window time have been measured (at least kMinReps times), checks every
// repetition, and reports the end-to-end metrics as medians over the
// repetitions. --trace 1 runs the workload once untraced and once traced,
// checks that both simulated the same schedule, runs the layer
// microbenchmarks, and reports the per-layer metrics. The last line of
// standard output is one JSON object; the exit code is 0 only when every
// check passed.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "census.hpp"
#include "micro.hpp"
#include "scenario.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 40;
/// Stop repeating once this much host time has passed, whatever --seconds
/// says, so a run always ends well inside its time limit.
constexpr double kHardStopS = 120.0;

struct MetricDef {
  std::string name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"run_s", "s"},         {"setup_s", "s"},
      {"peak_rss_mb", "MB"},  {"commit_p50_ms", "ms"},
      {"commit_tail_ms", "ms"}, {"goodput_tps", "tx/s"},
      {"served_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"harness.build_s", "s"},
        {"harness.warmup_s", "s"},
        {"sim.events", "count"},
        {"sim.events_per_tx", "events/tx"},
        {"sim.self_s", "s"},
        {"net.msgs_per_tx", "msgs/tx"},
        {"net.bytes_per_tx", "B/tx"},
        {"net.dropped", "count"},
        {"net.nic_backlog_max_ms", "ms"},
        {"net.send_ns", "ns"},
        {"net.send_all_ns", "ns"},
    };
    for (const KindName& k : kind_names()) {
      d.push_back({std::string("net.msgs.") + k.name, "count"});
    }
    d.push_back({"net.msgs.other", "count"});
    const std::vector<MetricDef> rest = {
        {"lyra.handler_s", "s"},
        {"lyra.handler_ns_per_msg", "ns"},
        {"lyra.sim_cpu_ms_per_tx", "ms/tx"},
        {"lyra.accept_rate", "ratio"},
        {"lyra.decide_rounds_mean", "rounds"},
        {"lyra.inbox_max", "count"},
        {"lyra.phase.batch_wait_p50_ms", "ms"},
        {"lyra.phase.consensus_p50_ms", "ms"},
        {"lyra.phase.commit_wait_p50_ms", "ms"},
        {"lyra.phase.reveal_p50_ms", "ms"},
        {"pompe.handler_s", "s"},
        {"pompe.handler_ns_per_msg", "ns"},
        {"pompe.proof_verifications_per_tx", "1/tx"},
        {"pompe.sim_cpu_ms_per_tx", "ms/tx"},
        {"hotstuff.txs_per_block", "tx/block"},
        {"crypto.sha256_ns_per_kb", "ns/KiB"},
        {"crypto.sign_ns", "ns"},
        {"crypto.verify_ns", "ns"},
        {"crypto.vss_encrypt_us", "us"},
        {"crypto.vss_decrypt_us", "us"},
        {"storage.bytes_written_per_tx", "B/tx"},
        {"storage.replayed_records", "count"},
        {"storage.append_us", "us"},
        {"statesync.chunks_fetched", "count"},
        {"statesync.chunks_local", "count"},
        {"statesync.bytes_transferred", "B"},
        {"statesync.entries_installed", "count"},
        {"statesync.catchup_reveals", "count"},
        {"statesync.recovery_ms", "ms"},
        {"client.samples", "count"},
        {"client.resubmissions", "count"},
        {"client.max_resubmit_lag_ms", "ms"},
        {"client.failed_frac", "ratio"},
        {"workload.offered", "count"},
        {"workload.rejected", "count"},
        {"workload.resubmissions", "count"},
        {"workload.terminal_rejects", "count"},
        {"mempool.refused", "count"},
        {"mempool.evicted", "count"},
        {"econ.extracted_value", "value"},
        {"econ.victims_targeted", "count"},
        {"econ.frontruns_won", "count"},
        {"econ.sandwiches_closed", "count"},
        {"proc.user_s", "s"},
        {"proc.sys_s", "s"},
        {"proc.minor_faults", "count"},
        {"proc.invol_csw", "count"},
        {"host.nproc", "count"},
        {"host.loadavg_1m", "load"},
        {"trace.overhead_s", "s"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] - '0';
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

double loadavg_1m() {
  double load[3] = {0, 0, 0};
  return getloadavg(load, 3) >= 1 ? load[0] : -1.0;
}

/// Returns memory freed by the previous repetition to the system and
/// restarts the kernel's peak-RSS counter, so each repetition's peak is
/// its own.
void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  double kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      unsigned long long v = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) {
        kb = static_cast<double>(v);
        break;
      }
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

struct Usage {
  double user_s = 0, sys_s = 0, minor_faults = 0, invol_csw = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.invol_csw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

void print_context(const Args& a, const Workload& w) {
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"host_nproc\": %ld, \"loadavg_1m_at_start\": %.2f, "
      "\"build_type\": \"%s\", \"asserts\": %s}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
      sysconf(_SC_NPROCESSORS_ONLN), loadavg_1m(), PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
      "false"
#else
      "true"
#endif
  );
}

/// Host context at the end of a run: a contended run shows involuntary
/// context switches and a raised load average.
void print_host_usage() {
  std::printf("host {\"invol_csw\": %.0f, \"loadavg_1m_at_end\": %.2f}\n",
              usage_now().invol_csw, loadavg_1m());
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + num + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void report_failures(const char* what, const RunOutput& r) {
  for (const std::string& f : r.failures) {
    std::printf("check failed (%s): %s\n", what, f.c_str());
  }
}

int run_untraced(const Args& a, const Workload& w) {
  std::vector<double> run_s, setup_s, rss_mb;
  RunOutput first;
  int attempted = 0;
  int failed = 0;
  double measured = 0;
  const std::int64_t t0 = now_ns();
  while (attempted < kMaxReps &&
         (attempted < kMinReps || measured < a.seconds) &&
         static_cast<double>(now_ns() - t0) / 1e9 < kHardStopS) {
    reset_peak_rss();
    RunOutput r = run_workload(w, a.seed, nullptr);
    rss_mb.push_back(peak_rss_mb());
    ++attempted;
    measured += r.setup_s + r.run_s;
    if (attempted == 1) {
      first = r;
    } else if (r.digest != first.digest) {
      r.failures.push_back("simulated outputs differ between repetitions");
    }
    if (!r.failures.empty()) {
      ++failed;
      report_failures("repetition", r);
      continue;
    }
    run_s.push_back(r.run_s);
    setup_s.push_back(r.setup_s);
    std::printf("rep %d: setup_s=%.4f run_s=%.4f peak_rss_mb=%.1f\n",
                attempted, r.setup_s, r.run_s, rss_mb.back());
  }
  const double failed_frac = first.census.failed_frac();
  std::map<std::string, double> m = {
      {"run_s", median(run_s)},
      {"setup_s", median(setup_s)},
      {"peak_rss_mb", median(rss_mb)},
      {"commit_p50_ms", first.p50_ms},
      {"commit_tail_ms", first.tail.value},
      {"goodput_tps", first.goodput_tps},
      {"served_frac", 1.0 - failed_frac},
  };
  std::printf("%-16s %14s  %s\n", "metric", "value", "unit");
  for (const MetricDef& d : end_to_end_metrics()) {
    std::printf("%-16s %14.6g  %s\n", d.name.c_str(), m[d.name], d.unit);
  }
  std::printf("%-16s %14.6g  %s  (%llu of %llu attempted)\n", "failed_frac",
              failed_frac, "ratio",
              static_cast<unsigned long long>(first.census.failed),
              static_cast<unsigned long long>(first.census.attempted));
  if (w.open_loop()) {
    std::printf("%-16s %14.6g  %s\n", "extracted_value",
                first.extracted_value, "value");
  } else {
    std::printf("%-16s %14s  (open-loop workloads only)\n", "extracted_value",
                "n/a");
  }
  if (w.crash) {
    std::printf("%-16s %14.6g  %s\n", "recovery_ms", first.recovery_ms, "ms");
  } else {
    std::printf("%-16s %14s  (crash workload only)\n", "recovery_ms", "n/a");
  }
  std::printf("tail is p%.3f over %zu samples\n", first.tail.percentile,
              first.tail.samples);
  print_host_usage();
  const bool correct = failed == 0 && !run_s.empty();
  print_result(correct, attempted, failed, end_to_end_metrics(), m);
  return correct ? 0 : 1;
}

int run_traced(const Args& a, const Workload& w) {
  const Usage u0 = usage_now();
  const RunOutput plain = run_workload(w, a.seed, nullptr);
  const Usage u1 = usage_now();
  Tracer tracer;
  const RunOutput traced = run_workload(w, a.seed, &tracer);
  int failed = 0;
  report_failures("untraced", plain);
  report_failures("traced", traced);
  if (!plain.failures.empty()) ++failed;
  if (!traced.failures.empty()) ++failed;
  bool same = plain.digest == traced.digest;
  for (const auto& [k, v] : plain.layer) {
    const auto it = traced.layer.find(k);
    same = same && it != traced.layer.end() && it->second == v;
  }
  if (!same) {
    std::printf("check failed: tracing moved the simulated schedule\n");
    ++failed;
  }

  std::map<std::string, double> m = traced.layer;
  const SpanLog& log = tracer.log;
  m["harness.build_s"] = static_cast<double>(log.total_ns("harness.build")) / 1e9;
  m["harness.warmup_s"] =
      static_cast<double>(log.total_ns("harness.start") +
                          log.total_ns("harness.warmup")) / 1e9;
  std::int64_t sim_self = 0;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    if (log.spans()[i].name == "sim.run_until") {
      sim_self += log.self_ns(static_cast<int>(i));
    }
  }
  m["sim.self_s"] = static_cast<double>(sim_self) / 1e9;
  for (const char* layer : {"lyra", "pompe"}) {
    // Handler time inside the window: groups whose parent is a slice.
    std::int64_t busy = 0, calls = 0;
    const std::string group = std::string(layer) + ".on_message";
    for (const SpanLog::Span& s : log.spans()) {
      if (s.name == group && s.parent >= 0 &&
          log.spans()[static_cast<std::size_t>(s.parent)].name ==
              "sim.run_until") {
        busy += s.duration_ns;
        calls += s.count;
      }
    }
    m[std::string(layer) + ".handler_s"] = static_cast<double>(busy) / 1e9;
    m[std::string(layer) + ".handler_ns_per_msg"] =
        calls == 0 ? 0.0
                   : static_cast<double>(busy) / static_cast<double>(calls);
  }
  m["lyra.inbox_max"] = static_cast<double>(tracer.lyra_handlers.inbox_max);
  m["client.failed_frac"] = traced.census.failed_frac();
  m["proc.user_s"] = u1.user_s - u0.user_s;
  m["proc.sys_s"] = u1.sys_s - u0.sys_s;
  m["proc.minor_faults"] = u1.minor_faults - u0.minor_faults;
  m["proc.invol_csw"] = u1.invol_csw - u0.invol_csw;
  m["host.nproc"] = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  m["host.loadavg_1m"] = loadavg_1m();
  m["trace.overhead_s"] = traced.run_s - plain.run_s;

  MicroSizes sizes;
  sizes.n = w.n;
  sizes.f = w.f();
  sizes.batch_bytes = w.batch_size * 32;
  for (const auto& [k, v] : run_microbenchmarks(sizes, tracer.log)) m[k] = v;

  for (const auto& [k, v] : m) {
    bool listed = false;
    for (const MetricDef& d : per_layer_metrics()) listed |= k == d.name;
    if (!listed) std::printf("note: unlisted per-layer value %s\n", k.c_str());
  }
  if (!a.spans_path.empty() && !tracer.log.write_json(a.spans_path)) {
    std::printf("note: could not write spans to %s\n", a.spans_path.c_str());
  }
  print_host_usage();
  std::printf("untraced run_s=%.4f traced run_s=%.4f overhead_s=%.4f\n",
              plain.run_s, traced.run_s, traced.run_s - plain.run_s);
  print_result(failed == 0, 2, failed, per_layer_metrics(), m);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const Workload& k : workloads()) {
      std::fprintf(stderr, " %s", k.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  print_context(args, *w);
  return args.trace == 0 ? run_untraced(args, *w) : run_traced(args, *w);
}
