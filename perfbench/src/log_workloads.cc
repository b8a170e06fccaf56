// log_all13: the 13 paper-profile logs, concatenated into one file, from
// file to Tables 1-5 statistics. Its traced run also covers the journal
// and snapshot layers on the same file.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "corpus/analysis_scratch.h"
#include "corpus/dictionary.h"
#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "corpus/report.h"
#include "fragments/fragment.h"
#include "graph/canonical.h"
#include "graph/shapes.h"
#include "obs/alloc_tracker.h"
#include "pipeline/chunk_source.h"
#include "pipeline/journal.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "pipeline/shard.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "util/snapshot_io.h"
#include "width/hypertree.h"
#include "width/treewidth.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sparqlog;
namespace fs = std::filesystem;
namespace snap = util::snapshot;

/// Log entries generated per dataset profile (13 profiles).
uint64_t EntriesPerProfile(Size size) {
  return size == Size::kTiny ? 120 : 3000;
}

/// Lines per reader chunk for the serial legs: the pipeline's default
/// chunk size.
const size_t kChunkLines = pipeline::PipelineOptions().chunk_size;

/// Checkpoint cadence of the traced journaled run, in reader chunks per
/// segment: 6 checkpoints per run. Every checkpoint waits on fsync, whose
/// latency varies widely on shared disks; at 8 chunks (11 checkpoints)
/// one seed's journaled N-thread rate varied from 81k to 143k lines/s
/// across three runs, at 16 from 155k to 164k.
constexpr size_t kChunksPerSegment = 16;

/// Snapshot section ids of the benchmark's own final-state snapshot.
constexpr uint64_t kDictionarySection = 1;
constexpr uint64_t kShardSectionBase = 100;

/// Generator seed stream of the log file.
constexpr uint64_t kLogStream = 1;

/// The input: the file, plus the serial reference outputs.
struct LogInput {
  std::string path;
  uint64_t lines = 0;
  corpus::CorpusStats stats;
  std::vector<uint64_t> digest;
};

bool SameStats(const corpus::CorpusStats& a, const corpus::CorpusStats& b) {
  return a.total == b.total && a.valid == b.valid && a.unique == b.unique &&
         a.malformed == b.malformed && a.abandoned == b.abandoned &&
         a.quarantined == b.quarantined;
}

/// Checks one pass's statistics against the reference.
bool CheckStats(const LogInput& ref, const corpus::CorpusStats& stats,
                const corpus::CorpusAnalyzer& analysis, const char* what) {
  if (!stats.Conserved()) {
    std::cerr << "FAIL " << what << ": accounting not conserved\n";
    return false;
  }
  if (stats.quarantined != 0) {
    std::cerr << "FAIL " << what << ": " << stats.quarantined
              << " lines quarantined\n";
    return false;
  }
  if (!SameStats(stats, ref.stats)) {
    std::cerr << "FAIL " << what << ": CorpusStats differ from reference"
              << " (total " << stats.total << " vs " << ref.stats.total
              << ", valid " << stats.valid << " vs " << ref.stats.valid
              << ", unique " << stats.unique << " vs " << ref.stats.unique
              << ")\n";
    return false;
  }
  if (pipeline::StatisticsDigest(analysis) != ref.digest) {
    std::cerr << "FAIL " << what << ": StatisticsDigest differs\n";
    return false;
  }
  return true;
}

bool CheckPipeline(const LogInput& ref, const pipeline::PipelineResult& r,
                   const char* what) {
  if (!r.source_status.ok()) {
    std::cerr << "FAIL " << what << ": source error "
              << r.source_status.ToString() << "\n";
    return false;
  }
  if (r.quarantine.count != 0 || r.lines != ref.lines) {
    std::cerr << "FAIL " << what << ": " << r.lines << " lines read, "
              << r.quarantine.count << " quarantined\n";
    return false;
  }
  return CheckStats(ref, r.stats, r.analysis, what);
}

/// Generates the 13 profile logs from `seed`, writes them as one file,
/// and computes the reference with the serial in-memory path.
bool BuildLogInput(const RunContext& ctx, LogInput& out) {
  const uint64_t log_seed = DeriveSeed(ctx.seed, kLogStream);
  std::vector<std::string> lines;
  const std::vector<corpus::DatasetProfile> profiles = corpus::PaperProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    corpus::GeneratorOptions gen;
    gen.scale = 0;
    gen.min_entries = EntriesPerProfile(ctx.size);
    gen.seed = DeriveSeed(log_seed, i);
    std::vector<std::string> log =
        corpus::SyntheticLogGenerator(profiles[i], gen).GenerateLog();
    lines.insert(lines.end(), std::make_move_iterator(log.begin()),
                 std::make_move_iterator(log.end()));
  }
  out.path = ctx.workdir + "/all13.log";
  {
    std::ofstream file(out.path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) file << line << '\n';
    if (!file.flush()) {
      std::cerr << "cannot write " << out.path << "\n";
      return false;
    }
  }
  corpus::LogIngestor ingestor;
  corpus::CorpusAnalyzer analyzer;
  ingestor.set_unique_sink(
      [&analyzer](const sparql::Query& q) { analyzer.AddQuery(q, "all"); });
  ingestor.ProcessLog(lines);
  out.lines = lines.size();
  out.stats = ingestor.stats();
  out.digest = pipeline::StatisticsDigest(analyzer);
  if (!out.stats.Conserved() || out.stats.total == 0) {
    std::cerr << "reference run is inconsistent\n";
    return false;
  }
  return true;
}

std::unique_ptr<pipeline::MmapChunkSource> OpenLog(const std::string& path) {
  auto source = pipeline::MmapChunkSource::Open(path);
  if (!source.ok()) {
    std::cerr << "cannot open " << path << ": " << source.status().ToString()
              << "\n";
    return nullptr;
  }
  return std::move(source).value();
}

/// ChunkSource decorator: times NextChunk and counts chunks and bytes.
/// NextChunk runs on the pipeline's reader thread; the spans it records
/// are adopted by the main thread's recorder after the run has joined.
class TimedChunkSource : public pipeline::ChunkSource {
 public:
  TimedChunkSource(pipeline::ChunkSource& inner, bool record)
      : inner_(inner), record_(record) {}

  bool NextChunk(size_t max_lines, pipeline::LineChunk& out) override {
    if (!record_) return inner_.NextChunk(max_lines, out);
    Span span;
    span.layer = Layer::kChunkSource;
    span.id = chunks_;
    span.start_ns = NowNs();
    const bool more = inner_.NextChunk(max_lines, out);
    span.end_ns = NowNs();
    spans_.push_back(span);
    busy_ns_ += span.end_ns - span.start_ns;
    if (more) {
      ++chunks_;
      bytes_ += out.bytes;
    }
    return more;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Report(LayerValues& values) const {
    values["chunk_source.busy_s"] = static_cast<double>(busy_ns_) * 1e-9;
    values["chunk_source.mb"] = static_cast<double>(bytes_) * 1e-6;
    values["chunk_source.chunks"] = static_cast<double>(chunks_);
  }

 private:
  pipeline::ChunkSource& inner_;
  bool record_;
  std::vector<Span> spans_;
  uint64_t busy_ns_ = 0;
  uint64_t bytes_ = 0;
  uint64_t chunks_ = 0;
};

double Seconds(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// The serial leg: LogIngestor + CorpusAnalyzer over the mmap'ed file.
bool RunSerial(const LogInput& ref) {
  auto source = OpenLog(ref.path);
  if (!source) return false;
  corpus::LogIngestor ingestor;
  corpus::CorpusAnalyzer analyzer;
  ingestor.set_unique_sink(
      [&analyzer](const sparql::Query& q) { analyzer.AddQuery(q, "all"); });
  pipeline::LineChunk chunk;
  std::string line;
  uint64_t lines = 0;
  while (source->NextChunk(kChunkLines, chunk)) {
    for (std::string_view view : chunk.lines) {
      line.assign(view);
      ingestor.ProcessLine(line);
    }
    lines += chunk.lines.size();
  }
  if (lines != ref.lines) {
    std::cerr << "FAIL serial: " << lines << " lines read\n";
    return false;
  }
  return CheckStats(ref, ingestor.stats(), analyzer, "serial");
}

bool RunParallel(const LogInput& ref, int threads, const char* what) {
  auto source = OpenLog(ref.path);
  if (!source) return false;
  pipeline::PipelineOptions options;
  options.threads = threads;
  pipeline::ParallelLogPipeline pipe(options);
  return CheckPipeline(ref, pipe.Run(*source), what);
}

/// Runs the structural-analysis kernels the analyzer runs on `q`, each
/// under its own span, on the benchmark's own scratch.
void RunKernels(SpanRecorder& rec, const sparql::Query& q, uint64_t id,
                corpus::AnalysisScratch& s) {
  fragments::FragmentClass fc;
  {
    SpanRecorder::Scope span(rec, Layer::kFragments, id);
    fc = fragments::ClassifyFragment(q);
  }
  if (!(fc.cq || fc.cqf || fc.cqof)) return;
  if (fc.var_predicate) {
    if (!fc.cqof) return;
    {
      SpanRecorder::Scope span(rec, Layer::kCanonical, id);
      s.triples.clear();
      s.filters.clear();
      graph::CollectTriplesAndFilters(q.where, s.triples, s.filters);
      graph::BuildCanonicalHypergraph(s.triples, s.filters,
                                      graph::CanonicalOptions(), s.canonical,
                                      s.hypergraph);
    }
    SpanRecorder::Scope span(rec, Layer::kGhw, id);
    width::GeneralizedHypertreeWidth(s.hypergraph, s.ghw, 4);
    return;
  }
  {
    SpanRecorder::Scope span(rec, Layer::kCanonical, id);
    s.triples.clear();
    s.filters.clear();
    graph::CollectTriplesAndFilters(q.where, s.triples, s.filters);
    graph::BuildCanonicalGraph(s.triples, s.filters, graph::CanonicalOptions(),
                               s.canonical, s.graph);
  }
  if (!s.graph.valid) return;
  {
    SpanRecorder::Scope span(rec, Layer::kShape, id);
    graph::ClassifyShape(s.graph.graph, s.shape);
  }
  SpanRecorder::Scope span(rec, Layer::kTreewidth, id);
  width::Treewidth(s.graph.graph, s.treewidth);
}

/// The serial job taken apart at its layer boundaries: extract, parse,
/// hash, dedup (LogIngestor::Ingest), with the analysis sink and the
/// analysis kernels as children of the dedup span.
bool TraceSerial(const LogInput& ref, SpanRecorder& rec, LayerValues& values) {
  auto source = OpenLog(ref.path);
  if (!source) return false;
  const sparql::Parser parser;
  sparql::ParserScratch scratch;
  std::string decode_buf;
  corpus::LogIngestor ingestor;
  corpus::CorpusAnalyzer analyzer;
  corpus::AnalysisScratch kernel_scratch;
  uint64_t line_id = 0, query_lines = 0, parse_allocs = 0, analysis_allocs = 0;
  ingestor.set_unique_sink([&](const sparql::Query& q) {
    {
      SpanRecorder::Scope span(rec, Layer::kAnalysis, line_id);
      const uint64_t a0 = obs::ThreadAllocationCount();
      analyzer.AddQuery(q, "all");
      analysis_allocs += obs::ThreadAllocationCount() - a0;
    }
    RunKernels(rec, q, line_id, kernel_scratch);
  });
  pipeline::LineChunk chunk;
  while (source->NextChunk(kChunkLines, chunk)) {
    for (std::string_view line : chunk.lines) {
      std::optional<std::string_view> text;
      {
        SpanRecorder::Scope span(rec, Layer::kExtract, line_id);
        text = corpus::ExtractQueryText(line, decode_buf);
      }
      if (text.has_value()) {
        ++query_lines;
        scratch.Reset();
        corpus::ParsedLine parsed;
        parsed.is_query = true;
        std::optional<util::Result<sparql::Query>> q;
        {
          SpanRecorder::Scope span(rec, Layer::kParse, line_id);
          const uint64_t a0 = obs::ThreadAllocationCount();
          q.emplace(parser.Parse(*text, scratch));
          parse_allocs += obs::ThreadAllocationCount() - a0;
        }
        if (q->ok()) {
          parsed.valid = true;
          SpanRecorder::Scope span(rec, Layer::kHash, line_id);
          parsed.canonical_hash = sparql::CanonicalHash(q->value());
        } else {
          parsed.line_hash = corpus::HashBytes(line);
        }
        if (parsed.valid) parsed.query = std::move(*q).value();
        SpanRecorder::Scope span(rec, Layer::kDedup, line_id);
        ingestor.Ingest(parsed);
      }
      ++line_id;
    }
  }
  if (line_id != ref.lines) {
    std::cerr << "FAIL traced serial: " << line_id << " lines read\n";
    return false;
  }
  if (!CheckStats(ref, ingestor.stats(), analyzer, "traced serial")) {
    return false;
  }
  if (!rec.enabled()) return true;
  const std::vector<double> self = rec.SelfSeconds();
  auto ns = [&](Layer layer) {
    return self[static_cast<size_t>(layer)] * 1e9;
  };
  const corpus::CorpusStats& st = ingestor.stats();
  const double lines = static_cast<double>(line_id);
  const double queries = static_cast<double>(st.total);
  const double unique = static_cast<double>(st.unique);
  values["ingest.extract_ns_per_line"] = Ratio(ns(Layer::kExtract), lines);
  values["ingest.query_lines"] = static_cast<double>(query_lines);
  values["ingest.noise_lines"] = lines - static_cast<double>(query_lines);
  values["sparql.parse_ns_per_query"] = Ratio(ns(Layer::kParse), queries);
  values["sparql.parse_allocs_per_query"] =
      Ratio(static_cast<double>(parse_allocs), queries);
  values["sparql.malformed_frac"] =
      Ratio(static_cast<double>(st.malformed), queries);
  values["sparql.hash_ns_per_query"] =
      Ratio(ns(Layer::kHash), static_cast<double>(st.valid));
  values["dedup.ns_per_query"] = Ratio(ns(Layer::kDedup), queries);
  values["dedup.unique_frac"] = Ratio(unique, static_cast<double>(st.valid));
  values["analysis.ns_per_query"] = Ratio(ns(Layer::kAnalysis), unique);
  values["analysis.allocs_per_query"] =
      Ratio(static_cast<double>(analysis_allocs), unique);
  values["graph.canonical_ns_per_query"] = Ratio(ns(Layer::kCanonical), unique);
  values["graph.shape_ns_per_query"] = Ratio(ns(Layer::kShape), unique);
  values["width.treewidth_ns_per_query"] = Ratio(ns(Layer::kTreewidth), unique);
  values["width.ghw_ns_per_query"] = Ratio(ns(Layer::kGhw), unique);
  values["fragments.classify_ns_per_query"] =
      Ratio(ns(Layer::kFragments), unique);
  return true;
}

/// Runs the N-thread pipeline over caller-owned shards, then times a
/// separate MergeShards of those shards.
bool TraceParallel(const LogInput& ref, int threads, SpanRecorder& rec,
                   LayerValues& values) {
  auto mapped = OpenLog(ref.path);
  if (!mapped) return false;
  TimedChunkSource source(*mapped, rec.enabled());
  pipeline::PipelineOptions options;
  options.threads = threads;
  options.telemetry.metrics = rec.enabled();
  pipeline::ParallelLogPipeline pipe(options);
  std::vector<std::unique_ptr<pipeline::Shard>> shards;
  pipeline::PipelineResult result;
  uint32_t run_span = Span::kNoParent;
  {
    SpanRecorder::Scope span(rec, Layer::kPipelineRun, 0);
    run_span = span.index();
    result = pipe.Run(source, shards);
  }
  rec.Adopt(source.spans(), run_span);
  if (!CheckPipeline(ref, result, "traced tN")) return false;
  pipeline::PipelineResult merged;
  {
    SpanRecorder::Scope span(rec, Layer::kMerge, 0);
    merged = pipeline::MergeShards(shards);
  }
  if (pipeline::StatisticsDigest(merged.analysis) != ref.digest) {
    std::cerr << "FAIL traced merge: StatisticsDigest differs\n";
    return false;
  }
  if (!rec.enabled()) return true;
  source.Report(values);
  if (result.telemetry.has_value()) {
    values["pipeline.chunk_queue_wait_s"] =
        static_cast<double>(result.telemetry->chunk_queue.pop_wait_ns) * 1e-9;
    values["pipeline.shard_queue_wait_s"] =
        static_cast<double>(result.telemetry->shard_queues.push_block_ns) *
        1e-9;
  }
  double max_entries = 0, sum_entries = 0;
  for (const auto& shard : shards) {
    const double n = static_cast<double>(shard->stats().total);
    max_entries = std::max(max_entries, n);
    sum_entries += n;
  }
  values["pipeline.shard_skew"] =
      Ratio(max_entries, sum_entries / static_cast<double>(shards.size()));
  values["pipeline.merge_s"] =
      rec.SelfSeconds()[static_cast<size_t>(Layer::kMerge)];
  return true;
}

class LogWorkload : public Workload {
 public:
  explicit LogWorkload(const RunContext& ctx) : ctx_(ctx) {}

  bool Setup() override { return BuildLogInput(ctx_, input_); }
  uint64_t items() const override { return input_.lines; }

  std::vector<Leg> Legs() override {
    return {
        {"items_per_s.serial", [this] { return RunSerial(input_); }},
        {"items_per_s.t1", [this] { return RunParallel(input_, 1, "t1"); }},
        {"items_per_s.tN",
         [this] { return RunParallel(input_, ctx_.threads_n, "tN"); }},
    };
  }

  /// The serial and parallel decompositions, then the journal and
  /// snapshot layers: a journaled N-thread run, the same run without a
  /// journal, and a save and load of its final shard state.
  bool TracedPass(SpanRecorder& rec, LayerValues& values) override {
    double journaled_s = 0;
    return TraceSerial(input_, rec, values) &&
           TraceParallel(input_, ctx_.threads_n, rec, values) &&
           RunJournaled(rec, values, journaled_s) &&
           TraceUnjournaledAndSnapshot(rec, values, journaled_s);
  }

 private:
  /// A fresh, empty directory per journaled pass: RunWithJournal
  /// resumes from an existing manifest, so reusing a path would let a
  /// pass resume a finished run and time almost nothing.
  std::string FreshDir(const char* kind) {
    std::string dir = ctx_.workdir + "/" + kind + "-" + std::to_string(pass_++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  /// One journaled N-thread run into a fresh journal directory.
  /// Reports the journal layer into `values` and the run's wall time
  /// into `wall_s`.
  bool RunJournaled(SpanRecorder& rec, LayerValues& values, double& wall_s) {
    auto mapped = OpenLog(input_.path);
    if (!mapped) return false;
    pipeline::PipelineOptions options;
    options.threads = ctx_.threads_n;
    pipeline::JournalOptions journal;
    const std::string dir = FreshDir("journal");
    journal.path = dir + "/run.journal";
    journal.chunks_per_segment = kChunksPerSegment;
    std::optional<util::Result<pipeline::JournalRunResult>> run;
    const uint64_t t0 = NowNs();
    {
      SpanRecorder::Scope span(rec, Layer::kJournalRun, 0);
      run.emplace(pipeline::RunWithJournal(options, *mapped, journal));
    }
    wall_s = Seconds(t0, NowNs());
    fs::remove_all(dir);
    if (!run->ok()) {
      std::cerr << "FAIL journal: " << run->status().ToString() << "\n";
      return false;
    }
    const pipeline::JournalRunResult& jr = run->value();
    if (!jr.complete || jr.resumed || jr.recovered_previous_generation) {
      std::cerr << "FAIL journal: complete=" << jr.complete
                << " resumed=" << jr.resumed << " recovered="
                << jr.recovered_previous_generation << "\n";
      return false;
    }
    // Segment count depends only on the input and the cadence.
    if (segments_ == 0) segments_ = jr.segments;
    if (jr.segments != segments_) {
      std::cerr << "FAIL journal: " << jr.segments << " segments, expected "
                << segments_ << "\n";
      return false;
    }
    if (!CheckPipeline(input_, jr.result, "journal")) return false;
    if (rec.enabled()) {
      values["journal.segments"] = static_cast<double>(jr.segments);
    }
    return true;
  }

  /// The same run without a journal (for journal.overhead_s), then a
  /// SnapshotStore save and load of its final shard state.
  bool TraceUnjournaledAndSnapshot(SpanRecorder& rec, LayerValues& values,
                                   double journaled_s) {
    auto mapped = OpenLog(input_.path);
    if (!mapped) return false;
    pipeline::PipelineOptions options;
    options.threads = ctx_.threads_n;
    pipeline::ParallelLogPipeline pipe(options);
    std::vector<std::unique_ptr<pipeline::Shard>> shards;
    pipeline::PipelineResult result;
    const uint64_t t0 = NowNs();
    {
      SpanRecorder::Scope span(rec, Layer::kPipelineRun, 0);
      result = pipe.Run(*mapped, shards);
    }
    const double plain_s = Seconds(t0, NowNs());
    if (!CheckPipeline(input_, result, "unjournaled tN")) return false;

    snap::SnapshotWriter writer;
    corpus::TermDictionary dict;
    for (size_t i = 0; i < shards.size(); ++i) {
      std::string blob;
      shards[i]->SaveState(blob, dict);
      writer.AddSection(kShardSectionBase + i, std::move(blob));
    }
    std::string dict_blob;
    dict.EncodeTo(dict_blob);
    writer.AddSection(kDictionarySection, std::move(dict_blob));

    const std::string dir = FreshDir("snapshot");
    snap::SnapshotStore store(dir + "/state");
    std::optional<util::Result<uint64_t>> gen;
    {
      SpanRecorder::Scope span(rec, Layer::kSnapshotSave, 0);
      gen.emplace(store.Save(writer));
    }
    bool ok = gen->ok();
    uint64_t file_bytes = 0;
    if (ok) {
      std::optional<util::Result<snap::Snapshot>> loaded;
      {
        SpanRecorder::Scope span(rec, Layer::kSnapshotLoad, 0);
        loaded.emplace(
            store.LoadGeneration(gen->value(), snap::LoadMode::kStream));
      }
      ok = loaded->ok() && RestoresReference(loaded->value(), pipe);
      if (ok) file_bytes = loaded->value().file_bytes();
    }
    fs::remove_all(dir);
    if (!ok) {
      std::cerr << "FAIL snapshot: save/load did not restore the reference\n";
      return false;
    }
    if (!rec.enabled()) return true;
    const std::vector<double> self = rec.SelfSeconds();
    values["journal.overhead_s"] = journaled_s - plain_s;
    values["snapshot.save_s"] =
        self[static_cast<size_t>(Layer::kSnapshotSave)];
    values["snapshot.load_s"] =
        self[static_cast<size_t>(Layer::kSnapshotLoad)];
    values["snapshot.bytes_per_query"] =
        Ratio(static_cast<double>(file_bytes),
              static_cast<double>(input_.stats.total));
    return true;
  }

  /// Restores fresh shards from `loaded` and checks the merged state.
  bool RestoresReference(const snap::Snapshot& loaded,
                         const pipeline::ParallelLogPipeline& pipe) const {
    const std::string_view* dict_view = loaded.section(kDictionarySection);
    corpus::TermDictionary dict;
    std::string_view cursor = dict_view ? *dict_view : std::string_view();
    if (dict_view == nullptr || !dict.DecodeFrom(cursor)) return false;
    std::vector<std::unique_ptr<pipeline::Shard>> shards = pipe.MakeShards();
    for (size_t i = 0; i < shards.size(); ++i) {
      const std::string_view* view = loaded.section(kShardSectionBase + i);
      if (view == nullptr) return false;
      std::string_view in = *view;
      if (!shards[i]->LoadState(in, dict) || !in.empty()) return false;
    }
    pipeline::PipelineResult merged = pipeline::MergeShards(shards);
    return SameStats(merged.stats, input_.stats) &&
           pipeline::StatisticsDigest(merged.analysis) == input_.digest;
  }

  RunContext ctx_;
  LogInput input_;
  uint64_t pass_ = 0;
  uint64_t segments_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeLogWorkload(const RunContext& ctx) {
  return std::make_unique<LogWorkload>(ctx);
}

}  // namespace perfbench
