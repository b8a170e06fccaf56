#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Input size. kTiny exists for the benchmark's self-test only.
enum class Size { kFull, kTiny };

struct RunContext {
  /// The workload seed from the command line; every generator seed is
  /// derived from it (DeriveSeed), nothing else feeds the inputs.
  uint64_t seed = 0;
  Size size = Size::kFull;
  /// N for the items_per_s.tN leg: the machine's hardware concurrency.
  int threads_n = 1;
  /// Scratch directory for the log file, journals and snapshots; owned
  /// and removed by the caller.
  std::string workdir;
};

/// SplitMix64 over (seed, stream): independent generator seeds for the
/// workloads and for each dataset profile within one.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// num / den, or 0 when the layer did no work (den == 0).
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// One leg of a pass: a complete run of the job through one of the
/// library's entry points. Returns false if its output differs from the
/// reference (the caller counts that as a failed operation).
struct Leg {
  std::string metric;  // end-to-end metric the leg's rate feeds
  std::function<bool()> run;
};

/// Per-layer values of one traced pass, by metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs, writes files, and computes the reference
  /// outputs every pass is checked against.
  virtual bool Setup() = 0;

  /// Items one leg processes: raw log lines, or queries for streaks.
  virtual uint64_t items() const = 0;

  /// The timed legs, in a fixed order.
  virtual std::vector<Leg> Legs() = 0;

  /// One pass of the traced decomposition. Opens spans on `rec` around
  /// every library call; when `rec` is enabled, fills `values` with the
  /// per-layer metrics this workload exercises. Returns false on an
  /// output mismatch.
  virtual bool TracedPass(SpanRecorder& rec, LayerValues& values) = 0;
};

/// The workload named `name`, or nullptr if there is none.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunContext& ctx);

/// Factories behind MakeWorkload.
std::unique_ptr<Workload> MakeLogWorkload(const RunContext& ctx);
std::unique_ptr<Workload> MakeStreakWorkload(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
