// streaks_dbp16: single-day DBpedia16-profile logs with planted
// refinement sessions, through the Section 8 streak analysis.

#include <iostream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "obs/metrics.h"
#include "pipeline/streak_stage.h"
#include "streaks/streaks.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sparqlog;

constexpr uint64_t kStreakStream = 2;
/// Share of queries that belong to a planted refinement session.
constexpr double kSessionRate = 0.3;
/// Single-day logs per run (Section 8 analyzes one day at a time). A
/// day's cost depends on its few longest sessions, so one day alone
/// makes the figures follow the seed; the legs rotate over the days.
constexpr size_t kDays = 4;

size_t QueriesPerDay(Size size) { return size == Size::kTiny ? 200 : 16000; }

bool CheckReport(const streaks::StreakReport& got,
                 const streaks::StreakReport& ref, const char* what) {
  if (got == ref) return true;
  std::cerr << "FAIL " << what << ": StreakReport differs (streaks "
            << got.total_streaks << " vs " << ref.total_streaks << ", longest "
            << got.longest << " vs " << ref.longest << ")\n";
  return false;
}

/// One day's log and its StreakDetector reference.
struct Day {
  std::vector<std::string> queries;
  streaks::StreakReport reference;
  uint64_t serial_pairs = 0;
};

class StreakWorkload : public Workload {
 public:
  explicit StreakWorkload(const RunContext& ctx) : ctx_(ctx) {}

  bool Setup() override {
    const std::vector<corpus::DatasetProfile> profiles =
        corpus::PaperProfiles();
    const uint64_t seed = DeriveSeed(ctx_.seed, kStreakStream);
    days_.resize(kDays);
    for (size_t d = 0; d < kDays; ++d) {
      Day& day = days_[d];
      day.queries = corpus::GenerateStreakLog(
          corpus::ProfileByName(profiles, "DBpedia16"),
          QueriesPerDay(ctx_.size), kSessionRate, DeriveSeed(seed, d));
      streaks::StreakDetector detector;
      for (const std::string& q : day.queries) detector.Add(q);
      day.reference = detector.Finish();
      day.serial_pairs = detector.prefilter_stats().pairs;
      if (day.reference.queries_processed != QueriesPerDay(ctx_.size)) {
        return false;
      }
    }
    return true;
  }

  uint64_t items() const override { return QueriesPerDay(ctx_.size); }

  /// Each leg processes the next day of its own rotation.
  std::vector<Leg> Legs() override {
    return {
        {"items_per_s.serial",
         [this, next = size_t{0}]() mutable {
           return RunDetector(days_[next++ % kDays]);
         }},
        {"items_per_s.t1",
         [this, next = size_t{0}]() mutable {
           return RunStage(days_[next++ % kDays], 1);
         }},
        {"items_per_s.tN",
         [this, next = size_t{0}]() mutable {
           return RunStage(days_[next++ % kDays], ctx_.threads_n);
         }},
    };
  }

  /// All days, so the counters cover the same input on every pass.
  bool TracedPass(SpanRecorder& rec, LayerValues& values) override {
    Totals totals;
    for (const Day& day : days_) {
      if (!TraceSerial(day, rec, totals) || !TraceStage(day, rec, totals)) {
        return false;
      }
    }
    if (rec.enabled()) totals.Report(rec, values);
    return true;
  }

 private:
  /// Counters summed over the days of one traced pass.
  struct Totals {
    uint64_t queries = 0;
    streaks::PrefilterStats prefilter;
    uint64_t stage_chunks = 0;
    uint64_t stage_pairs = 0;
    uint64_t serial_pairs = 0;
    /// Sum over days of the day's slowest chunk / mean chunk.
    double chunk_skew_sum = 0;

    void Report(const SpanRecorder& rec, LayerValues& values) const {
      const std::vector<double> self = rec.SelfSeconds();
      const double n = static_cast<double>(queries);
      const streaks::PrefilterStats& p = prefilter;
      values["streaks.window_ns_per_query"] =
          Ratio(self[static_cast<size_t>(Layer::kWindow)] * 1e9, n);
      values["streaks.tracker_ns_per_query"] =
          Ratio(self[static_cast<size_t>(Layer::kTracker)] * 1e9, n);
      values["streaks.pairs"] = static_cast<double>(p.pairs);
      values["streaks.dp_calls"] = static_cast<double>(p.levenshtein_calls);
      values["streaks.dp_frac"] =
          Ratio(static_cast<double>(p.levenshtein_calls),
                static_cast<double>(p.pairs));
      values["streaks.length_rejects"] = static_cast<double>(p.length_rejects);
      values["streaks.charmap_rejects"] =
          static_cast<double>(p.charmap_rejects);
      values["streaks.histogram_rejects"] =
          static_cast<double>(p.histogram_rejects);
      values["streaks.abandoned_pairs"] =
          static_cast<double>(p.abandoned_pairs);
      const double warmup = static_cast<double>(stage_pairs - serial_pairs);
      values["streak_stage.chunks"] = static_cast<double>(stage_chunks);
      values["streak_stage.warmup_pairs"] = warmup;
      values["streak_stage.warmup_frac"] =
          Ratio(warmup, static_cast<double>(stage_pairs));
      values["streak_stage.chunk_skew"] = chunk_skew_sum / kDays;
    }
  };

  static bool RunDetector(const Day& day) {
    streaks::StreakDetector detector;
    for (const std::string& q : day.queries) detector.Add(q);
    return CheckReport(detector.Finish(), day.reference, "serial");
  }

  static bool RunStage(const Day& day, int threads) {
    pipeline::StreakStageOptions options;
    options.threads = threads;
    return CheckReport(pipeline::StreakStage(options).Run(day.queries).report,
                       day.reference, threads == 1 ? "t1" : "tN");
  }

  /// The serial detector taken apart: SimilarityWindow::Add, then
  /// StreakChainTracker::Add, per query.
  static bool TraceSerial(const Day& day, SpanRecorder& rec, Totals& totals) {
    const streaks::StreakOptions options;
    streaks::SimilarityWindow window(options);
    streaks::StreakChainTracker tracker(options.window);
    std::vector<uint32_t> gaps;
    for (size_t i = 0; i < day.queries.size(); ++i) {
      {
        SpanRecorder::Scope span(rec, Layer::kWindow, i);
        window.Add(day.queries[i], gaps);
      }
      SpanRecorder::Scope span(rec, Layer::kTracker, i);
      tracker.Add(gaps.data(), gaps.size());
    }
    if (!CheckReport(tracker.Finish(), day.reference, "traced serial")) {
      return false;
    }
    totals.queries += day.queries.size();
    totals.prefilter.Merge(window.stats());
    totals.serial_pairs += day.serial_pairs;
    return true;
  }

  /// The N-thread stage, with its own chunk-latency telemetry on.
  bool TraceStage(const Day& day, SpanRecorder& rec, Totals& totals) const {
    pipeline::StreakStageOptions options;
    options.threads = ctx_.threads_n;
    options.telemetry.metrics = rec.enabled();
    pipeline::StreakStageResult result;
    {
      SpanRecorder::Scope span(rec, Layer::kStreakStage, 0);
      result = pipeline::StreakStage(options).Run(day.queries);
    }
    if (!CheckReport(result.report, day.reference, "traced tN")) return false;
    totals.stage_chunks += result.chunks;
    totals.stage_pairs += result.prefilter.pairs;
    if (result.telemetry.has_value()) {
      const obs::LatencyHistogram& chunk_ns =
          result.telemetry->stage(obs::kStageStreak).chunk_ns;
      totals.chunk_skew_sum +=
          Ratio(static_cast<double>(chunk_ns.max_ns()), chunk_ns.MeanNs());
    }
    return true;
  }

  RunContext ctx_;
  std::vector<Day> days_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreakWorkload(const RunContext& ctx) {
  return std::make_unique<StreakWorkload>(ctx);
}

}  // namespace perfbench
