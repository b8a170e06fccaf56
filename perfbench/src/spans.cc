#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kChunkSource: return "chunk_source.next";
    case Layer::kExtract: return "ingest.extract";
    case Layer::kParse: return "sparql.parse";
    case Layer::kHash: return "sparql.hash";
    case Layer::kDedup: return "dedup.ingest";
    case Layer::kAnalysis: return "analysis.add_query";
    case Layer::kFragments: return "fragments.classify";
    case Layer::kCanonical: return "graph.canonical";
    case Layer::kShape: return "graph.shape";
    case Layer::kTreewidth: return "width.treewidth";
    case Layer::kGhw: return "width.ghw";
    case Layer::kPipelineRun: return "pipeline.run";
    case Layer::kMerge: return "pipeline.merge";
    case Layer::kWindow: return "streaks.window";
    case Layer::kTracker: return "streaks.tracker";
    case Layer::kStreakStage: return "streak_stage.run";
    case Layer::kJournalRun: return "journal.run";
    case Layer::kSnapshotSave: return "snapshot.save";
    case Layer::kSnapshotLoad: return "snapshot.load";
    case Layer::kCount: break;
  }
  return "?";
}

SpanRecorder::Scope::Scope(SpanRecorder& rec, Layer layer, uint64_t id)
    : rec_(rec), index_(Span::kNoParent) {
  if (!rec_.enabled_) return;
  Span s;
  s.layer = layer;
  s.parent = rec_.open_.empty() ? Span::kNoParent : rec_.open_.back();
  s.id = id;
  index_ = static_cast<uint32_t>(rec_.spans_.size());
  rec_.spans_.push_back(s);
  rec_.open_.push_back(index_);
  rec_.spans_[index_].start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (index_ == Span::kNoParent) return;
  rec_.spans_[index_].end_ns = NowNs();
  rec_.open_.pop_back();
}

void SpanRecorder::Adopt(const std::vector<Span>& spans, uint32_t parent) {
  if (!enabled_) return;
  for (Span s : spans) {
    s.parent = parent;
    spans_.push_back(s);
  }
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  const size_t n = spans_.size();
  // Children grouped by parent, as (start, end) intervals.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(n);
  for (const Span& s : spans_) {
    if (s.parent != Span::kNoParent) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(static_cast<size_t>(Layer::kCount), 0.0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    uint64_t covered = 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, s.start_ns);
      e = std::min(e, s.end_ns);
      if (e <= b) continue;
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = b;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_start;
    const uint64_t dur = s.end_ns - s.start_ns;
    self[static_cast<size_t>(s.layer)] +=
        static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
  }
  return self;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "layer\tid\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << LayerName(s.layer) << '\t' << s.id << '\t'
        << (s.parent == Span::kNoParent ? -1 : static_cast<int64_t>(s.parent))
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
