#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder for the traced run. The benchmark opens a
// span around each call into a library layer; nothing inside the
// library is instrumented. A span holds its layer, start and end, the
// span that was open when it started (its parent), and an id shared by
// the spans of one chunk or one query. Spans stay in memory until the
// run writes them out.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span names: one per layer boundary the benchmark wraps.
enum class Layer : uint16_t {
  kChunkSource,    // ChunkSource::NextChunk (decorator, reader thread)
  kExtract,        // corpus::ExtractQueryText
  kParse,          // sparql::Parser::Parse(text, ParserScratch&)
  kHash,           // sparql::CanonicalHash
  kDedup,          // corpus::LogIngestor::Ingest
  kAnalysis,       // corpus::CorpusAnalyzer::AddQuery (the unique sink)
  kFragments,      // fragments::ClassifyFragment
  kCanonical,      // graph::BuildCanonicalGraph / BuildCanonicalHypergraph
  kShape,          // graph::ClassifyShape
  kTreewidth,      // width::Treewidth
  kGhw,            // width::GeneralizedHypertreeWidth
  kPipelineRun,    // pipeline::ParallelLogPipeline::Run(source, shards)
  kMerge,          // pipeline::MergeShards
  kWindow,         // streaks::SimilarityWindow::Add
  kTracker,        // streaks::StreakChainTracker::Add
  kStreakStage,    // pipeline::StreakStage::Run
  kJournalRun,     // pipeline::RunWithJournal
  kSnapshotSave,   // util::snapshot::SnapshotStore::Save
  kSnapshotLoad,   // util::snapshot::SnapshotStore::LoadGeneration
  kCount
};

const char* LayerName(Layer layer);

struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  Layer layer = Layer::kCount;
  uint32_t parent = kNoParent;
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Single-threaded recorder. Disabled, it reads no clock and stores
/// nothing, so the same instrumented code path runs traced and
/// untraced and the difference between the two is the tracing cost.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction. Spans
  /// opened while it is alive become its children.
  class Scope {
   public:
    Scope(SpanRecorder& rec, Layer layer, uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of this span in the recorder (kNoParent when disabled).
    uint32_t index() const { return index_; }

   private:
    SpanRecorder& rec_;
    uint32_t index_;
  };

  /// Appends spans recorded elsewhere (the chunk-source decorator runs
  /// on the pipeline's reader thread) as children of `parent`. Call
  /// only after the recording thread has been joined.
  void Adopt(const std::vector<Span>& spans, uint32_t parent);

  /// Per-layer self time in seconds: each span's duration minus the
  /// part of it covered by its children's intervals.
  std::vector<double> SelfSeconds() const;

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

  /// Writes the spans as tab-separated rows (layer, id, parent,
  /// start_ns, end_ns). Returns false if the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
