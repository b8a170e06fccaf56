// The repository benchmark. One workload per invocation:
//
//   perfbench --workload <log_all13|streaks_dbp16>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--spans-out <file>] [--size <full|tiny>]
//
// --trace 0 times the workload's legs back to back (a closed loop: each
// pass starts when the previous one ends) and prints the end-to-end
// metrics; --trace 1 runs the traced decomposition and prints the
// per-layer metrics. Every pass is checked against a reference computed
// during set-up. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 iff every pass matched its reference.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/alloc_hooks.h"  // allocation counters; one TU per binary
#include "spans.h"
#include "workload.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunContext& ctx) {
  if (name == "log_all13") return MakeLogWorkload(ctx);
  if (name == "streaks_dbp16") return MakeStreakWorkload(ctx);
  return nullptr;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Set-ups per timed run; setup_s is their median.
constexpr int kSetups = 3;

/// Untimed warm-up of the legs, in turn, between set-up and timing.
/// Set-up keeps one vCPU busy; on a shared-host VM the first
/// multi-threaded passes after that often got no parallel speedup
/// (their threads stacked on one vCPU for 1 to 3 passes).
constexpr double kWarmupSeconds = 3;

/// The ledger's end-to-end metrics. The serial and t1 legs are timed
/// and printed with the others, but are not in the ledger: on a shared
/// host their rates drift with the host's load over minutes, more than
/// tN's (in 10 back-to-back runs of streaks_dbp16, serial fell 26% and
/// tN 20%), so the middle half of 10 runs spread past any usable bound.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s.tN", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, in ledger order. A workload that does not
/// exercise a layer reports 0 for it: that layer did no work there.
const MetricDef kPerLayer[] = {
    {"chunk_source.busy_s", "s"},
    {"chunk_source.mb", "MB"},
    {"chunk_source.chunks", "count"},
    {"ingest.extract_ns_per_line", "ns"},
    {"ingest.query_lines", "count"},
    {"ingest.noise_lines", "count"},
    {"sparql.parse_ns_per_query", "ns"},
    {"sparql.parse_allocs_per_query", "allocs"},
    {"sparql.malformed_frac", "ratio"},
    {"sparql.hash_ns_per_query", "ns"},
    {"dedup.ns_per_query", "ns"},
    {"dedup.unique_frac", "ratio"},
    {"analysis.ns_per_query", "ns"},
    {"analysis.allocs_per_query", "allocs"},
    {"graph.canonical_ns_per_query", "ns"},
    {"graph.shape_ns_per_query", "ns"},
    {"width.treewidth_ns_per_query", "ns"},
    {"width.ghw_ns_per_query", "ns"},
    {"fragments.classify_ns_per_query", "ns"},
    {"pipeline.chunk_queue_wait_s", "s"},
    {"pipeline.shard_queue_wait_s", "s"},
    {"pipeline.shard_skew", "ratio"},
    {"pipeline.merge_s", "s"},
    {"streaks.window_ns_per_query", "ns"},
    {"streaks.tracker_ns_per_query", "ns"},
    {"streaks.pairs", "count"},
    {"streaks.dp_calls", "count"},
    {"streaks.dp_frac", "ratio"},
    {"streaks.length_rejects", "count"},
    {"streaks.charmap_rejects", "count"},
    {"streaks.histogram_rejects", "count"},
    {"streaks.abandoned_pairs", "count"},
    {"streak_stage.chunks", "count"},
    {"streak_stage.warmup_pairs", "count"},
    {"streak_stage.warmup_frac", "ratio"},
    {"streak_stage.chunk_skew", "ratio"},
    {"journal.segments", "count"},
    {"journal.overhead_s", "s"},
    {"snapshot.save_s", "s"},
    {"snapshot.load_s", "s"},
    {"snapshot.bytes_per_query", "B"},
    {"trace.overhead_s", "s"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string spans_out;
  Size size = Size::kFull;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      args.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && !args.workdir.empty() && args.seconds > 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Resets the process's RSS high-water mark (Linux: VmHWM restarts at
/// the current RSS). Returns false where that is not supported.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  return static_cast<bool>(clear << "5" << std::flush);
}

/// RSS high-water mark in MB since the last ResetPeakRss, or the
/// process lifetime's (getrusage) where the reset is unsupported.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<MetricDef, double>> metrics;

  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// Human-readable lines, then the JSON result line.
  void Print() const {
    for (const auto& [def, value] : metrics) {
      std::cout << def.name << " " << Number(value) << " " << def.unit << "\n";
    }
    std::cout << "error_rate "
              << Number(attempted ? static_cast<double>(failed) /
                                        static_cast<double>(attempted)
                                  : 0.0)
              << " (" << failed << " of " << attempted << " operations)\n";
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const auto& [def, value] = metrics[i];
      std::cout << (i ? ", " : "") << "\"" << def.name << "\": {\"value\": "
                << Number(value) << ", \"unit\": \"" << def.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }
};

uint64_t ElapsedNs(uint64_t t0) { return NowNs() - t0; }

/// --trace 0: set up kSetups times (each with one untimed warm-up pass
/// per leg), warm up for kWarmupSeconds, then run the legs back to back
/// until `seconds` have elapsed.
bool RunTimed(const Args& args, const RunContext& ctx, Ledger& ledger) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl;
  for (int k = 0; k < kSetups; ++k) {
    wl.reset();  // free the previous inputs before generating again
    const uint64_t t0 = NowNs();
    wl = MakeWorkload(args.workload, ctx);
    if (!wl->Setup()) return false;
    for (const Leg& leg : wl->Legs()) ledger.Count(leg.run());
    setup_s.push_back(static_cast<double>(ElapsedNs(t0)) * 1e-9);
  }
  {
    const std::vector<Leg> warmup = wl->Legs();
    const uint64_t t0 = NowNs();
    for (size_t step = 0; ElapsedNs(t0) < kWarmupSeconds * 1e9; ++step) {
      ledger.Count(warmup[step % warmup.size()].run());
    }
  }
  const std::vector<Leg> legs = wl->Legs();
  std::vector<std::vector<double>> rates(legs.size());
  std::vector<std::vector<double>> peaks(legs.size());
  const double items = static_cast<double>(wl->items());
  // Every leg gets an equal share of the measuring time: the next leg
  // to run is the one with the least time so far, so a faster leg
  // collects more samples instead of fewer seconds.
  std::vector<double> spent(legs.size(), 0.0);
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9);
  for (size_t step = 0; step < legs.size() || ElapsedNs(start) < budget;
       ++step) {
    const size_t l =
        step < legs.size()
            ? step
            : static_cast<size_t>(
                  std::min_element(spent.begin(), spent.end()) -
                  spent.begin());
    ResetPeakRss();
    const uint64_t t0 = NowNs();
    const bool ok = legs[l].run();
    const double s = static_cast<double>(ElapsedNs(t0)) * 1e-9;
    ledger.Count(ok);
    spent[l] += s;
    rates[l].push_back(items / s);
    peaks[l].push_back(PeakRssMb());
  }
  std::cout << "workload " << args.workload << ": " << wl->items()
            << " items per leg, N = " << ctx.threads_n << " threads\n";
  for (size_t l = 0; l < legs.size(); ++l) {
    std::cout << "  " << legs[l].metric << ": median "
              << Number(Median(rates[l])) << ", quartiles "
              << Number(Quantile(rates[l], 0.25)) << " .. "
              << Number(Quantile(rates[l], 0.75)) << " (n=" << rates[l].size()
              << "); peak RSS median " << Number(Median(peaks[l])) << " MB\n";
  }
  for (const MetricDef& def : kEndToEnd) {
    const std::string name = def.name;
    double value = 0;
    if (name == "setup_s") {
      value = Median(setup_s);
    } else if (name == "peak_rss_mb") {
      // The leg with the highest median per-leg peak.
      for (const std::vector<double>& p : peaks) {
        value = std::max(value, Median(p));
      }
    } else {
      for (size_t l = 0; l < legs.size(); ++l) {
        if (legs[l].metric == name) value = Median(rates[l]);
      }
    }
    ledger.metrics.push_back({def, value});
  }
  return true;
}

/// --trace 1: alternate untraced and traced passes of the workload's
/// decomposition; per-layer metrics are medians over the traced passes,
/// and trace.overhead_s is the traced minus the untraced median wall.
bool RunTraced(const Args& args, const RunContext& ctx, Ledger& ledger) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, ctx);
  if (!wl->Setup()) return false;
  SpanRecorder off(false);
  SpanRecorder on(true);
  LayerValues unused;
  ledger.Count(wl->TracedPass(off, unused));  // warm-up
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> traced_s, untraced_s;
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(args.seconds * 1e9);
  for (size_t pass = 0; pass == 0 || ElapsedNs(start) < budget; ++pass) {
    for (int half = 0; half < 2; ++half) {
      const bool traced = (pass + half) % 2 == 1;
      LayerValues values;
      if (traced) on.Clear();  // keep the last traced pass's spans
      const uint64_t t0 = NowNs();
      ledger.Count(wl->TracedPass(traced ? on : off, values));
      const double s = static_cast<double>(ElapsedNs(t0)) * 1e-9;
      (traced ? traced_s : untraced_s).push_back(s);
      for (const auto& [name, value] : values) samples[name].push_back(value);
    }
  }
  std::cout << "workload " << args.workload << ": " << traced_s.size()
            << " traced and " << untraced_s.size() << " untraced passes, "
            << on.spans().size() << " spans in the last traced pass\n";
  if (!args.spans_out.empty() && !on.WriteTsv(args.spans_out)) {
    std::cerr << "cannot write " << args.spans_out << "\n";
    return false;
  }
  for (const MetricDef& def : kPerLayer) {
    const std::string name = def.name;
    double value = 0;
    if (name == "trace.overhead_s") {
      value = Median(traced_s) - Median(untraced_s);
    } else if (auto it = samples.find(name); it != samples.end()) {
      value = Median(it->second);
    }
    ledger.metrics.push_back({def, value});
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--spans-out <file>] "
                 "[--size <full|tiny>]\n";
    return 2;
  }
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.size = args.size;
  ctx.threads_n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ctx.workdir = args.workdir;
  if (MakeWorkload(args.workload, ctx) == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  std::filesystem::remove_all(ctx.workdir);
  std::filesystem::create_directories(ctx.workdir);
  Ledger ledger;
  const bool ran = args.trace ? RunTraced(args, ctx, ledger)
                              : RunTimed(args, ctx, ledger);
  std::filesystem::remove_all(ctx.workdir);
  if (!ran) {
    std::cerr << "run failed before any result\n";
    return 1;
  }
  ledger.Print();
  return ledger.failed == 0 ? 0 : 1;
}
