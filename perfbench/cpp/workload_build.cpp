// build_cold: one cold PipelineContext build per operation — the paper's
// corpus -> stores pipeline — plus the traced build replay every
// workload's traced run uses.

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common.hpp"
#include "core/checkpoint.hpp"
#include "embed/embedding_cache.hpp"
#include "exam/astro_exam.hpp"
#include "parallel/dag.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

/// One record's trace lane, as the overlapped executor's fused trace
/// task leaves it.
struct Lane {
  bool kept = false;
  trace::TraceRecord trace;
  std::string retrieval;
  embed::Vector vector;
};

struct Rows {
  std::vector<std::string> ids;
  std::vector<std::string> texts;
  std::vector<embed::Vector> vectors;
};

}  // namespace

BuildReplay traced_build(const core::PipelineConfig& config,
                         std::uint64_t expected_digest,
                         double untraced_build_s, Report& report) {
  BuildReplay out;
  out.t0_ns = now_ns();
  std::size_t docs_total = 0;
  std::size_t escalated = 0;
  std::size_t chunk_count = 0;
  std::size_t embeds = 0;
  std::size_t rows_total = 0;
  std::size_t candidates = 0;
  std::size_t accepted = 0;
  std::size_t kept_total = 0;
  double hit_rate = 0.0;
  double root_s = 0.0;
  {
    // The root closes before the digest: checking is not build work.
    std::optional<Span> root;
    root.emplace("build", Layer::kCore);
    const std::int64_t root_t0 = now_ns();

    // --- corpus: knowledge base, matcher, documents -------------------------
    std::optional<corpus::KnowledgeBase> kb;
    std::optional<corpus::FactMatcher> matcher;
    corpus::SyntheticCorpus corpus;
    {
      const Span phase("corpus", Layer::kCorpus, true);
      {
        const Span s("KnowledgeBase::generate", Layer::kCorpus);
        kb.emplace(corpus::KnowledgeBase::generate(config.kb));
        matcher.emplace(*kb);
      }
      const Span s("build_corpus", Layer::kCorpus);
      corpus = corpus::build_corpus(*kb, config.corpus, config.threads);
    }
    const auto& docs = corpus.documents;
    docs_total = docs.size();

    parallel::ThreadPool pool(config.threads);
    const embed::HashedNGramEmbedder base = embed::make_biomed_encoder();
    const embed::CachingEmbedder embedder(base);
    const llm::TeacherModel teacher(*kb, *matcher);
    const parse::AdaptiveParser parser(config.parser);
    const chunk::SemanticChunker chunker(embedder, config.chunker);
    const qgen::BenchmarkBuilder builder(teacher, config.builder);
    const trace::TraceGenerator tracer(teacher, config.tracegen);

    // --- parse ----------------------------------------------------------------
    std::vector<parse::ParseOutcome> outcomes(docs.size());
    {
      const Span phase("parse", Layer::kParse, true);
      parallel::parallel_for(pool, 0, docs.size(), [&](std::size_t i) {
        const Span s("AdaptiveParser::parse", Layer::kParse);
        outcomes[i] = parser.parse(docs[i].bytes);
      });
    }
    core::ParsedArtifact parsed;
    parsed.total_documents = docs.size();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      auto& o = outcomes[i];
      auto& r = parsed.routing;
      ++r.total;
      r.compute_cost += o.compute_cost;
      r.always_accurate_cost += 8.0;  // AccurateSpdfParser::cost
      if (o.route == "fast") ++r.fast_routed;
      else if (o.route == "accurate") ++r.accurate_routed;
      else if (o.route == "fast->accurate") ++r.escalated;
      else if (o.route == "markdown" || o.route == "text") ++r.non_spdf;
      if (!o.ok) {
        ++r.failed;
        ++parsed.parse_failures;
        continue;
      }
      if (o.document.doc_id.empty()) o.document.doc_id = docs[i].doc_id;
      parsed.documents.push_back(std::move(o.document));
    }
    escalated = parsed.routing.escalated;

    // --- chunk ----------------------------------------------------------------
    std::vector<std::vector<chunk::Chunk>> per_doc(parsed.documents.size());
    {
      const Span phase("chunk", Layer::kChunk, true);
      parallel::parallel_for(pool, 0, per_doc.size(), [&](std::size_t i) {
        const Span s("SemanticChunker::chunk", Layer::kChunk);
        per_doc[i] = chunker.chunk(parsed.documents[i]);
      });
    }
    std::vector<chunk::Chunk> chunks;
    for (auto& doc_chunks : per_doc) {
      for (auto& c : doc_chunks) chunks.push_back(std::move(c));
    }
    chunk_count = chunks.size();

    // --- embed the chunk rows -------------------------------------------------
    Rows chunk_rows;
    chunk_rows.vectors.resize(chunks.size());
    {
      const Span phase("embed", Layer::kEmbed, true);
      parallel::parallel_for(pool, 0, chunks.size(), [&](std::size_t c) {
        const Span s("Embedder::embed", Layer::kEmbed);
        chunk_rows.vectors[c] = embedder.embed(chunks[c].text);
      });
    }
    embeds += chunks.size();
    for (const auto& c : chunks) {
      chunk_rows.ids.push_back(c.chunk_id);
      chunk_rows.texts.push_back(c.text);
    }

    // --- question generation --------------------------------------------------
    std::vector<std::optional<qgen::McqRecord>> drafts(chunks.size());
    qgen::FunnelCounters tally;
    {
      const Span phase("qgen", Layer::kQgen, true);
      parallel::parallel_for(pool, 0, chunks.size(), [&](std::size_t c) {
        const Span s("BenchmarkBuilder::build_one", Layer::kQgen);
        drafts[c] = builder.build_one(chunks[c], tally);
      });
    }
    core::BenchmarkArtifact bench;
    for (auto& d : drafts) {
      if (d.has_value()) bench.records.push_back(std::move(*d));
    }
    bench.funnel.chunks = chunks.size();
    bench.funnel.candidates = tally.candidates.load();
    bench.funnel.rejected_no_fact = tally.rejected_no_fact.load();
    bench.funnel.rejected_quality = tally.rejected_quality.load();
    bench.funnel.rejected_relevance = tally.rejected_relevance.load();
    bench.funnel.accepted = bench.records.size();
    candidates = bench.funnel.candidates;
    accepted = bench.records.size();

    // --- trace lanes: generate + grade + retrieval text + embed ---------------
    const std::size_t modes = trace::kTraceModeCount;
    std::vector<Lane> lanes(bench.records.size() * modes);
    std::atomic<std::size_t> trace_embeds{0};
    {
      const Span phase("trace", Layer::kTrace, true);
      parallel::parallel_for(pool, 0, lanes.size(), [&](std::size_t j) {
        Lane& lane = lanes[j];
        const auto mode = static_cast<trace::TraceMode>(j % modes);
        {
          const Span s("TraceGenerator::generate", Layer::kTrace);
          lane.trace = tracer.generate(bench.records[j / modes], mode);
        }
        {
          const Span s("grade_trace", Layer::kTrace);
          trace::grade_trace(lane.trace);
        }
        if (!lane.trace.grading.is_correct) return;
        lane.kept = true;
        {
          const Span s("TraceRecord::retrieval_text", Layer::kTrace);
          lane.retrieval = lane.trace.retrieval_text();
        }
        const Span s("Embedder::embed", Layer::kEmbed);
        lane.vector = embedder.embed(lane.retrieval);
        trace_embeds.fetch_add(1, std::memory_order_relaxed);
      });
    }
    embeds += trace_embeds.load();
    std::array<core::TraceArtifact, trace::kTraceModeCount> traces;
    std::array<Rows, trace::kTraceModeCount> trace_rows;
    for (std::size_t j = 0; j < lanes.size(); ++j) {
      Lane& lane = lanes[j];
      if (!lane.kept) continue;
      const std::size_t m = j % modes;
      trace_rows[m].ids.push_back(lane.trace.trace_id);
      trace_rows[m].texts.push_back(std::move(lane.retrieval));
      trace_rows[m].vectors.push_back(std::move(lane.vector));
      traces[m].traces.push_back(std::move(lane.trace));
      ++kept_total;
    }

    // --- stores ---------------------------------------------------------------
    index::VectorStore chunk_store(embedder, config.index_kind);
    std::vector<std::unique_ptr<index::VectorStore>> trace_stores;
    {
      const Span phase("index", Layer::kIndex, true);
      {
        const Span s("VectorStore::add_precomputed", Layer::kIndex);
        chunk_store.add_precomputed(std::move(chunk_rows.ids),
                                    std::move(chunk_rows.texts),
                                    chunk_rows.vectors);
        for (auto& rows : trace_rows) {
          trace_stores.push_back(
              std::make_unique<index::VectorStore>(embedder, config.index_kind));
          trace_stores.back()->add_precomputed(
              std::move(rows.ids), std::move(rows.texts), rows.vectors);
        }
      }
      parallel::TaskGroup builds(pool);
      builds.spawn([&]() {
        const Span s("VectorStore::build", Layer::kIndex);
        chunk_store.build();
      });
      for (auto& store : trace_stores) {
        builds.spawn([&store]() {
          const Span s("VectorStore::build", Layer::kIndex);
          store->build();
        });
      }
      builds.wait();
    }
    rows_total = chunk_store.size();
    for (const auto& store : trace_stores) rows_total += store->size();

    // --- exam, retrieval wiring, students (PipelineContext's finalize) --------
    {
      const Span phase("finalize", Layer::kCore, true);
      const Span s("finalize", Layer::kCore);
      std::unordered_set<corpus::FactId> covered;
      for (const auto& record : bench.records) covered.insert(record.fact);
      const exam::Exam exam = exam::AstroExamBuilder(*kb, config.exam).build(covered);
      const auto exam_all = exam.usable();
      const auto no_math = exam::MathClassifier().no_math_subset(exam);
      rag::RetrievalStores stores;
      stores.chunks = &chunk_store;
      for (std::size_t m = 0; m < modes; ++m) stores.traces[m] = trace_stores[m].get();
      const rag::RagPipeline rag(*kb, *matcher, stores, config.rag);
      std::vector<std::unique_ptr<llm::StudentModel>> students;
      for (const auto& card : llm::student_registry()) {
        students.push_back(std::make_unique<llm::StudentModel>(card, config.sim));
      }
    }
    hit_rate = embedder.stats().hit_rate();
    root.reset();
    root_s = static_cast<double>(now_ns() - root_t0) * 1e-9;

    std::uint64_t h = util::fnv1a64(core::serialize_parsed(parsed));
    h = util::hash_combine(h, util::fnv1a64(core::serialize_chunks(chunks)));
    h = util::hash_combine(h, util::fnv1a64(chunk_store.save()));
    h = util::hash_combine(h, util::fnv1a64(core::serialize_benchmark(bench)));
    for (std::size_t m = 0; m < modes; ++m) {
      h = util::hash_combine(h, util::fnv1a64(core::serialize_traces(traces[m])));
      h = util::hash_combine(h, util::fnv1a64(trace_stores[m]->save()));
    }
    out.digest = h;
  }
  out.t1_ns = now_ns();
  report.check("traced build replay == PipelineContext artifacts",
               out.digest == expected_digest);

  const std::vector<SpanRecord> spans = spans_between(out.t0_ns, out.t1_ns);
  const LayerSummary sum = summarize(spans);
  out.wall_s = root_s;

  const auto busy = [&](Layer l) { return sum.busy_s[static_cast<std::size_t>(l)]; };
  const auto wall = [&](Layer l) { return sum.wall_s[static_cast<std::size_t>(l)]; };
  PerLayer& L = report.layers;
  L.corpus_wall_s = wall(Layer::kCorpus);
  L.corpus_docs = static_cast<double>(docs_total);
  L.parse_busy_s = busy(Layer::kParse);
  L.parse_docs = static_cast<double>(docs_total);
  L.parse_escalated_frac =
      docs_total ? static_cast<double>(escalated) / static_cast<double>(docs_total) : 0.0;
  L.chunk_busy_s = busy(Layer::kChunk);
  L.chunk_chunks = static_cast<double>(chunk_count);
  L.embed_busy_s = busy(Layer::kEmbed);
  L.embed_texts = static_cast<double>(embeds);
  L.embed_cache_hit_frac = hit_rate;
  L.index_build_s = wall(Layer::kIndex);
  L.index_rows = static_cast<double>(rows_total);
  L.qgen_busy_s = busy(Layer::kQgen);
  L.qgen_candidates = static_cast<double>(candidates);
  L.qgen_accept_frac =
      chunk_count ? static_cast<double>(accepted) / static_cast<double>(chunk_count) : 0.0;
  L.trace_busy_s = busy(Layer::kTrace);
  L.trace_records = static_cast<double>(accepted * trace::kTraceModeCount);
  L.trace_kept_frac = accepted ? static_cast<double>(kept_total) /
                                     static_cast<double>(accepted * trace::kTraceModeCount)
                               : 0.0;
  L.core_build_s = root_s;
  L.build_sum_frac = root_s > 0 ? sum.phase_wall_s / root_s : 0.0;
  L.build_overhead_frac = untraced_build_s > 0 ? root_s / untraced_build_s - 1.0 : 0.0;
  report.check("build layer walls within 5% of the traced wall",
               within_5_percent(L.build_sum_frac));

  json::Value layers = json::Value::object();
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (sum.items[l] == 0) continue;
    json::Value row = json::Value::object();
    row["busy_s"] = sum.busy_s[l];
    row["wall_s"] = sum.wall_s[l];
    row["calls"] = sum.items[l];
    layers[layer_name(static_cast<Layer>(l))] = std::move(row);
  }
  report.detail["build_layers"] = std::move(layers);
  report.detail["build_traced_s"] = root_s;
  report.detail["build_untraced_s"] = untraced_build_s;
  return out;
}

void run_build_cold(const Options& opt, Report& report) {
  const core::PipelineConfig cfg = workload_config(derive_seeds(opt.seed));

  // Set-up: the reference build whose digest every timed build must
  // reproduce.  It runs at 2 threads, so the timed 4-thread builds also
  // check that the bytes do not depend on the thread count.
  core::PipelineConfig two = cfg;
  two.threads = 2;
  std::uint64_t reference = 0;
  const double setup_s = time_s([&]() {
    const core::PipelineContext ctx(two);
    reference = artifact_digest(ctx);
  });

  bool stable = true;
  std::vector<double> untraced_ms;
  std::size_t ops = 0;
  std::vector<SpanRecord> last_spans;
  double last_traced_s = 0.0;
  const std::vector<double> op_ms = run_for(opt.seconds, [&]() {
    const util::Stopwatch watch;
    auto ctx = std::make_unique<core::PipelineContext>(cfg);
    const double ms = watch.millis();
    stable = stable && artifact_digest(*ctx) == reference;
    report.detail["documents"] = ctx->stats().documents;
    ctx.reset();
    ++ops;
    if (opt.trace) {
      untraced_ms.push_back(ms);
      const BuildReplay replay =
          traced_build(cfg, reference, median(untraced_ms) * 1e-3, report);
      if (report.export_until_ns == 0) report.export_until_ns = replay.t1_ns;
      last_spans = spans_between(replay.t0_ns, replay.t1_ns);
      last_traced_s = replay.wall_s;
    }
    return ms;
  });
  report.attempt(ops);
  report.check("4-thread build digests == the 2-thread reference", stable);
  report.detail["artifact_digest"] = std::to_string(reference);

  if (opt.trace) {
    report_op_layers(report, last_spans, last_traced_s, median(untraced_ms) * 1e-3);
    report.check("operation layer walls within 5% of the traced wall",
                 within_5_percent(report.layers.op_sum_frac));
    return;
  }
  report_end_to_end(report, setup_s, op_ms);
}

}  // namespace perfbench
