// mcqa — command-line front end for the benchmark pipeline.
//
//   mcqa pipeline [--scale S] [--out DIR]      build + export artifacts
//   mcqa eval     [--scale S] [--model NAME] [--set SET] [--condition C]
//   mcqa inspect  [--scale S] [--id RECORD_ID | --n INDEX]
//   mcqa models                                 list the registry
//   mcqa serve    [--requests N] [--shards K] [--workers W]
//                                               serve a synthetic workload
//                                               on a pool, measured
//   mcqa train    [--scale S] [--source traces|chunks] [--epochs N]
//                 [--dim D] [--context W] [--minibatch B] [--out PATH]
//                                               train the log-bilinear
//                                               student and report
//                                               held-out perplexity +
//                                               MCQA accuracy
//   mcqa cache    [--dir PATH] [--scale S] [--prune 1] [--prune-eval 1]
//                 [--json 1]                    checkpoint-cache inventory,
//                                               coverage and mark-and-sweep
//                                               pruning (DESIGN.md §17)
//
// SET: synthetic | astro | astro-nomath.  C: baseline | chunks |
// rt-detail | rt-focused | rt-efficient | all.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/provenance.hpp"
#include "eval/judge.hpp"
#include "eval/report.hpp"
#include "index/kernels.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/engine.hpp"
#include "util/histogram.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace mcqa;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  static Args parse(int argc, char** argv) {
    Args args;
    if (argc > 1) args.command = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) break;
      args.flags[argv[i] + 2] = argv[i + 1];
    }
    return args;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
};

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  mcqa models\n"
      "  mcqa pipeline [--scale S] [--out DIR]\n"
      "  mcqa eval     [--scale S] [--model NAME|all] "
      "[--set synthetic|astro|astro-nomath] [--condition C|all]\n"
      "  mcqa inspect  [--scale S] [--n INDEX | --id RECORD_ID]\n"
      "  mcqa provenance [--scale S] [--n INDEX | --id RECORD_ID]\n"
      "  mcqa serve    [--scale S] [--model NAME] [--requests N] "
      "[--shards K]\n"
      "                [--workers W] [--json PATH]\n"
      "  mcqa train    [--scale S] [--source traces|chunks] [--epochs N]\n"
      "                [--dim D] [--context W] [--minibatch B] "
      "[--out PATH]\n"
      "  mcqa cache    [--dir PATH] [--scale S] [--prune 1] "
      "[--prune-eval 1] [--json 1]\n"
      "                inventory + per-document coverage of a checkpoint\n"
      "                directory (default $MCQA_CHECKPOINT_DIR); --prune\n"
      "                sweeps blobs unreachable from the current manifest\n"
      "  mcqa --version\n");
  return 2;
}

int cmd_version() {
  using index::kernels::KernelIsa;
  std::printf("mcqa (Automated MCQA Benchmarking at Scale reproduction)\n");
  std::printf("kernel isa:     %.*s%s\n",
              static_cast<int>(
                  index::kernels::isa_name(index::kernels::dispatched_isa())
                      .size()),
              index::kernels::isa_name(index::kernels::dispatched_isa())
                  .data(),
              std::getenv("MCQA_KERNEL_ISA") != nullptr
                  ? " (MCQA_KERNEL_ISA override)"
                  : "");
  const std::string_view int8 =
      index::kernels::int8_body_name(index::kernels::dispatched_int8_body());
  std::printf("kernel int8:    %.*s\n", static_cast<int>(int8.size()),
              int8.data());
  std::printf("kernel tile q:  %zu\n", index::kernels::kTileQ);
  std::printf("avx2 table:     %s\n",
              index::kernels::ops_for(KernelIsa::kAvx2) != nullptr
                  ? "compiled+usable"
                  : "unavailable (scalar only)");
  return 0;
}

std::optional<rag::Condition> condition_from_flag(const std::string& name) {
  if (name == "baseline") return rag::Condition::kBaseline;
  if (name == "chunks") return rag::Condition::kChunks;
  if (name == "rt-detail") return rag::Condition::kTraceDetailed;
  if (name == "rt-focused") return rag::Condition::kTraceFocused;
  if (name == "rt-efficient") return rag::Condition::kTraceEfficient;
  return std::nullopt;
}

const std::vector<qgen::McqRecord>& record_set(
    const core::PipelineContext& ctx, const std::string& name) {
  if (name == "astro") return ctx.exam_all();
  if (name == "astro-nomath") return ctx.exam_no_math();
  return ctx.benchmark();
}

int cmd_models() {
  eval::TableWriter table({"Model", "Params", "Year", "Window", "Vendor"});
  for (const auto& card : llm::student_registry()) {
    table.add_row({card.spec.name,
                   util::format_param_count(card.spec.params_billions),
                   std::to_string(card.spec.release_year),
                   std::to_string(card.spec.context_window),
                   card.spec.vendor});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_pipeline(const Args& args) {
  const double scale = args.get_double("scale", 0.01);
  const std::filesystem::path outdir = args.get("out", "out");
  const core::PipelineContext ctx(core::PipelineConfig::paper_scale(scale));
  std::filesystem::create_directories(outdir);

  std::ofstream bench_file(outdir / "benchmark.jsonl");
  for (const auto& r : ctx.benchmark()) {
    bench_file << r.to_json().dump() << "\n";
  }
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    std::ofstream trace_file(
        outdir / ("traces_" + std::string(trace::trace_mode_name(mode)) +
                  ".jsonl"));
    for (const auto& t : ctx.traces(mode)) {
      trace_file << t.to_json().dump() << "\n";
    }
  }
  std::ofstream exam_file(outdir / "astro_exam.jsonl");
  for (const auto& r : ctx.exam_all()) {
    exam_file << r.to_json().dump() << "\n";
  }

  const auto& s = ctx.stats();
  std::printf("scale %.3f: %zu docs -> %zu chunks -> %zu questions "
              "(%.1f%% acceptance), %zu/%zu/%zu traces "
              "(detailed/focused/efficient), exam %zu/%zu\n",
              scale, s.documents, s.chunks, s.funnel.accepted,
              100.0 * s.funnel.acceptance_rate(), s.traces_per_mode[0],
              s.traces_per_mode[1], s.traces_per_mode[2],
              ctx.exam_all().size(), ctx.exam_no_math().size());
  std::printf("artifacts in %s/\n", outdir.c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  const double scale = args.get_double("scale", 0.01);
  const std::string model_name = args.get("model", "all");
  const std::string set_name = args.get("set", "synthetic");
  const std::string cond_name = args.get("condition", "all");

  const core::PipelineContext ctx(core::PipelineConfig::paper_scale(scale));
  const auto& records = record_set(ctx, set_name);
  const eval::EvalHarness harness(ctx.rag());

  std::vector<rag::Condition> conditions;
  if (cond_name == "all") {
    conditions = eval::all_conditions();
  } else if (const auto c = condition_from_flag(cond_name)) {
    conditions = {*c};
  } else {
    return usage();
  }

  std::vector<const llm::ModelCard*> cards;
  for (const auto& card : llm::student_registry()) {
    if (model_name == "all" || card.spec.name == model_name) {
      cards.push_back(&card);
    }
  }
  if (cards.empty()) {
    std::fprintf(stderr, "unknown model: %s\n", model_name.c_str());
    return 2;
  }

  std::vector<std::string> headers{"Model"};
  for (const auto c : conditions) {
    headers.emplace_back(rag::condition_name(c));
  }
  // One sweep over the selected models x conditions, so each
  // condition's retrieval plan is shared by every model.
  std::vector<std::unique_ptr<llm::StudentModel>> models;
  std::vector<const llm::LanguageModel*> model_ptrs;
  std::vector<llm::ModelSpec> specs;
  for (const auto* card : cards) {
    models.push_back(std::make_unique<llm::StudentModel>(*card));
    model_ptrs.push_back(models.back().get());
    specs.push_back(card->spec);
  }
  eval::SweepStats stats;
  const util::Stopwatch watch;
  const eval::SweepResult sweep =
      harness.sweep(model_ptrs, specs, records, conditions, &stats);
  const double sweep_s = watch.seconds();

  eval::TableWriter table(std::move(headers));
  for (const auto* card : cards) {
    std::vector<std::string> row{card->spec.name};
    for (const auto c : conditions) {
      const eval::Accuracy& acc = sweep.at(card->spec.name, c);
      row.push_back(eval::fmt_acc(acc.value()) + " ±" +
                    eval::fmt_acc(acc.ci95_halfwidth()));
    }
    table.add_row(std::move(row));
  }
  std::printf("set=%s (%zu records), scale=%.3f\n\n%s", set_name.c_str(),
              records.size(), scale, table.render().c_str());
  // Wall time varies run to run, so it goes to stderr: stdout stays
  // byte-identical across runs, thread counts and kernel ISAs.
  std::fprintf(stderr, "sweep %.3f s wall, %zu of %zu tasks prepared\n",
               sweep_s, stats.tasks_prepared, stats.records_evaluated);
  return 0;
}

int cmd_inspect(const Args& args) {
  const double scale = args.get_double("scale", 0.01);
  const core::PipelineContext ctx(core::PipelineConfig::paper_scale(scale));
  const std::string want_id = args.get("id", "");
  const auto n = static_cast<std::size_t>(args.get_double("n", 0));

  const qgen::McqRecord* record = nullptr;
  if (!want_id.empty()) {
    for (const auto& r : ctx.benchmark()) {
      if (r.record_id == want_id) {
        record = &r;
        break;
      }
    }
    if (record == nullptr) {
      std::fprintf(stderr, "no record with id %s\n", want_id.c_str());
      return 2;
    }
  } else {
    if (n >= ctx.benchmark().size()) {
      std::fprintf(stderr, "index out of range (%zu records)\n",
                   ctx.benchmark().size());
      return 2;
    }
    record = &ctx.benchmark()[n];
  }

  std::printf("=== MCQA record (Fig. 2 schema) ===\n%s\n\n",
              record->to_json().dump(2).c_str());
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    for (const auto& t : ctx.traces(mode)) {
      if (t.source_record_id != record->record_id) continue;
      std::printf("=== %s trace retrieval text ===\n%s\n\n",
                  std::string(trace::trace_mode_name(mode)).c_str(),
                  t.retrieval_text().c_str());
      break;
    }
  }
  return 0;
}

int cmd_provenance(const Args& args) {
  const double scale = args.get_double("scale", 0.01);
  const core::PipelineContext ctx(core::PipelineConfig::paper_scale(scale));
  const core::ProvenanceIndex index(ctx);

  const std::string want_id = args.get("id", "");
  std::string record_id = want_id;
  if (record_id.empty()) {
    const auto n = static_cast<std::size_t>(args.get_double("n", 0));
    if (n >= ctx.benchmark().size()) {
      std::fprintf(stderr, "index out of range\n");
      return 2;
    }
    record_id = ctx.benchmark()[n].record_id;
  }

  const auto lineage = index.lookup(record_id);
  if (!lineage.has_value()) {
    std::fprintf(stderr, "no record with id %s\n", record_id.c_str());
    return 2;
  }

  std::printf("record   : %s\n", lineage->record->record_id.c_str());
  std::printf("question : %s\n", lineage->record->stem.c_str());
  std::printf("answer   : %s\n", lineage->record->answer.c_str());
  if (lineage->chunk != nullptr) {
    std::printf("chunk    : %s (chunk #%zu of %s, %zu words)\n",
                lineage->chunk->chunk_id.c_str(), lineage->chunk->index,
                lineage->chunk->doc_id.c_str(), lineage->chunk->word_count);
  }
  if (lineage->document != nullptr) {
    std::printf("document : \"%s\" [%s, parsed by %s, quality %.2f]\n",
                lineage->document->title.c_str(),
                lineage->document->kind.c_str(),
                lineage->document->parser_used.c_str(),
                lineage->document->quality);
  }
  if (lineage->raw != nullptr) {
    std::printf("raw file : %zu bytes of %s\n", lineage->raw->bytes.size(),
                std::string(corpus::doc_format_name(lineage->raw->format))
                    .c_str());
  }
  std::printf("facts in source chunk: %zu (probed fact id %u)\n",
              lineage->chunk_facts.size(), lineage->record->fact);
  std::printf("sibling questions from the same document: %zu\n",
              lineage->sibling_questions.size());
  const auto probing = index.questions_probing(lineage->record->fact);
  std::printf("benchmark questions probing the same fact: %zu\n",
              probing.size());
  return 0;
}

// Serve a seeded synthetic workload through the engine on a pool of
// --workers threads and report what the steady clock saw.  The tasks
// are deterministic; the timings are measurements and vary run to run.
int cmd_serve(const Args& args) {
  const double scale = args.get_double("scale", 0.01);
  const std::string model_name = args.get("model", "Llama-3.1-8B-Instruct");
  const llm::ModelCard* card = nullptr;
  for (const auto& c : llm::student_registry()) {
    if (c.spec.name == model_name) card = &c;
  }
  if (card == nullptr) {
    std::fprintf(stderr, "unknown model: %s\n", model_name.c_str());
    return 2;
  }
  const auto shards = static_cast<std::size_t>(args.get_double("shards", 4));
  const auto workers = static_cast<std::size_t>(args.get_double("workers", 4));
  serve::WorkloadConfig wl;
  wl.requests = static_cast<std::size_t>(args.get_double("requests", 512));

  const core::PipelineContext ctx(core::PipelineConfig::paper_scale(scale));
  rag::RetrievalStores stores;
  stores.chunks = &ctx.chunk_store();
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    stores.traces[static_cast<std::size_t>(m)] =
        &ctx.trace_store(static_cast<trace::TraceMode>(m));
  }
  const serve::QueryEngine engine(ctx.rag(), stores, card->spec, shards);
  const auto requests = serve::synth_workload(wl, ctx.benchmark().size());
  parallel::ThreadPool pool(workers);

  const util::Stopwatch watch;
  const auto results = engine.serve(ctx.benchmark(), requests, pool);
  const double wall_s = watch.seconds();
  util::Histogram tile_ms(0.0, 1.0, 1);  // exact quantiles ignore the bins
  for (const auto& r : results) tile_ms.add(r.tile_ms);
  const double per_s =
      wall_s > 0.0 ? static_cast<double>(results.size()) / wall_s : 0.0;

  std::printf("workload: %zu requests over %zu records (scale %.3f)\n",
              requests.size(), ctx.benchmark().size(), scale);
  std::printf("engine  : %zu shards, %zu pool threads, tiles of %zu\n",
              shards, pool.thread_count(), index::kernels::kTileQ);
  std::printf("measured: %.4f s wall, %.0f requests/s, median tile %.3f ms\n",
              wall_s, per_s, tile_ms.p50());

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    json::Value v = json::Value::object();
    v["requests"] = requests.size();
    v["shards"] = shards;
    v["pool_threads"] = pool.thread_count();
    v["wall_s"] = wall_s;
    v["requests_per_s"] = per_s;
    v["tile_ms_p50"] = tile_ms.p50();
    std::ofstream out(json_path);
    out << v.dump(2) << "\n";
    std::printf("measurements json in %s\n", json_path.c_str());
  }
  return 0;
}

int cmd_train(const Args& args) {
  const double scale = args.get_double("scale", 0.01);
  const std::string source = args.get("source", "traces");
  if (source != "traces" && source != "chunks") return usage();

  const core::PipelineContext ctx(core::PipelineConfig::paper_scale(scale));
  auto [trace_text, chunk_text] = ctx.training_texts();
  const std::string& text = source == "traces" ? trace_text : chunk_text;

  llm::TrainedStudentConfig cfg;
  cfg.train = core::PipelineContext::roster_train_config();
  cfg.train.epochs = static_cast<std::size_t>(
      args.get_double("epochs", static_cast<double>(cfg.train.epochs)));
  cfg.train.model.dim = static_cast<std::size_t>(
      args.get_double("dim", static_cast<double>(cfg.train.model.dim)));
  cfg.train.model.context = static_cast<std::size_t>(args.get_double(
      "context", static_cast<double>(cfg.train.model.context)));
  cfg.train.minibatch = static_cast<std::size_t>(args.get_double(
      "minibatch", static_cast<double>(cfg.train.minibatch)));
  cfg.name = "lbl-" + source;

  std::printf("training %s on %zu KB of %s text...\n", cfg.name.c_str(),
              text.size() / 1024, source.c_str());
  // One pool, sized like the build's, for training and evaluation.
  parallel::ThreadPool pool(ctx.config().threads);
  const llm::TrainedStudent student =
      llm::TrainedStudent::train(text, cfg, pool);
  const train::TrainReport& report = student.report();
  std::printf(
      "trained: %zu params, %zu train tokens, %zu minibatches, "
      "final epoch loss %.4f, held-out perplexity %.2f\n",
      student.model().param_count(), report.train_tokens, report.minibatches,
      report.final_epoch_loss, report.held_out_perplexity);

  eval::HarnessConfig hc;
  hc.pool = &pool;
  const eval::EvalHarness harness(ctx.rag(), hc);
  const llm::ModelSpec spec = student.spec();
  const double synth = harness
                           .evaluate(student, spec, ctx.benchmark(),
                                     rag::Condition::kBaseline)
                           .value();
  const double astro = harness
                           .evaluate(student, spec, ctx.exam_no_math(),
                                     rag::Condition::kBaseline)
                           .value();
  std::printf("MCQA accuracy (no retrieval): synthetic %.3f, "
              "astro no-math %.3f\n",
              synth, astro);

  const std::string out_path = args.get("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    const std::string blob = student.serialize();
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    std::printf("weights -> %s (%zu bytes, digest %016llx)\n",
                out_path.c_str(), blob.size(),
                static_cast<unsigned long long>(
                    student.model().weights_digest()));
  }
  return 0;
}

// Cache maintenance (DESIGN.md §17): inventory, per-document coverage
// of the configuration at --scale, and deterministic mark-and-sweep
// pruning.  Deriving the doc/manifest keys only needs the KB and the
// corpus bytes — no parsing, embedding or generation runs here.
int cmd_cache(const Args& args) {
  const std::string dir = args.get("dir", core::default_checkpoint_dir());
  if (dir.empty()) {
    std::fprintf(stderr,
                 "mcqa cache: no cache directory (pass --dir or set "
                 "$MCQA_CHECKPOINT_DIR)\n");
    return 2;
  }
  const double scale = args.get_double("scale", 0.01);
  const bool do_prune = args.get_double("prune", 0) != 0;
  const bool prune_eval = args.get_double("prune-eval", 0) != 0;
  const bool as_json = args.get_double("json", 0) != 0;

  core::PipelineConfig cfg = core::PipelineConfig::paper_scale(scale);
  cfg.checkpoint_dir = dir;
  const embed::HashedNGramEmbedder embedder = embed::make_biomed_encoder();
  const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(cfg.kb);
  const corpus::SyntheticCorpus corpus = corpus::build_corpus(kb, cfg.corpus);
  const std::vector<std::uint64_t> doc_keys =
      core::derive_doc_keys(cfg, corpus, embedder.dim());
  const std::uint64_t manifest_key =
      core::derive_manifest_key(cfg, embedder.dim());

  const core::ArtifactCache cache(dir);
  std::size_t docs_present = 0;
  for (const std::uint64_t key : doc_keys) {
    if (std::filesystem::exists(cache.path_for("docart", key))) {
      ++docs_present;
    }
  }

  bool manifest_present = false;
  bool manifest_ok = false;
  core::ManifestArtifact manifest;
  if (const auto blob = cache.load("manifest", manifest_key)) {
    manifest_present = true;
    try {
      manifest = core::deserialize_manifest(*blob);
      manifest_ok = true;
    } catch (const std::exception&) {
      cache.note_corrupt();
    }
  }
  const core::ArtifactCache::Stats cs = cache.stats();

  core::PruneReport prune;
  if (do_prune) {
    if (!manifest_ok) {
      std::fprintf(stderr,
                   "mcqa cache: cannot prune — no decodable manifest for "
                   "this configuration (scale %.3f); run a checkpointed "
                   "build first\n",
                   scale);
      return 2;
    }
    prune = core::prune_cache(dir, manifest, manifest_key, prune_eval);
  }

  // Inventory after any prune, so the numbers describe what remains.
  const core::CacheInventory inv = core::inventory_cache(dir);

  if (as_json) {
    std::printf("{\n  \"dir\": \"%s\",\n  \"scale\": %.6f,\n", dir.c_str(),
                scale);
    std::printf("  \"inventory\": [");
    for (std::size_t i = 0; i < inv.rows.size(); ++i) {
      const core::CacheInventoryRow& row = inv.rows[i];
      std::printf("%s\n    {\"prefix\": \"%s\", \"files\": %zu, "
                  "\"bytes\": %llu}",
                  i == 0 ? "" : ",", row.prefix.c_str(), row.files,
                  static_cast<unsigned long long>(row.bytes));
    }
    std::printf("\n  ],\n");
    std::printf("  \"total_files\": %zu,\n  \"total_bytes\": %llu,\n",
                inv.total_files,
                static_cast<unsigned long long>(inv.total_bytes));
    std::printf("  \"docs_total\": %zu,\n  \"docs_present\": %zu,\n",
                doc_keys.size(), docs_present);
    std::printf("  \"manifest_present\": %s,\n  \"manifest_ok\": %s,\n",
                manifest_present ? "true" : "false",
                manifest_ok ? "true" : "false");
    std::printf("  \"corrupt_blobs\": %zu,\n", cs.corrupt_blobs);
    std::printf("  \"pruned\": %s", do_prune ? "true" : "false");
    if (do_prune) {
      std::printf(",\n  \"prune\": {\"scanned\": %zu, \"kept\": %zu, "
                  "\"removed\": %zu, \"removed_bytes\": %llu}",
                  prune.scanned, prune.kept, prune.removed,
                  static_cast<unsigned long long>(prune.removed_bytes));
    }
    std::printf("\n}\n");
    return 0;
  }

  eval::TableWriter table({"Blob", "Files", "Bytes"});
  for (const core::CacheInventoryRow& row : inv.rows) {
    table.add_row({row.prefix, std::to_string(row.files),
                   std::to_string(row.bytes)});
  }
  table.add_row({"(total)", std::to_string(inv.total_files),
                 std::to_string(inv.total_bytes)});
  std::printf("cache %s\n\n%s\n", dir.c_str(), table.render().c_str());
  std::printf("configuration @ scale %.3f: %zu/%zu per-document artifacts "
              "present, manifest %s\n",
              scale, docs_present, doc_keys.size(),
              !manifest_present ? "absent"
                                : (manifest_ok ? "ok" : "CORRUPT"));
  if (cs.corrupt_blobs > 0) {
    std::printf("corrupt blobs encountered: %zu\n", cs.corrupt_blobs);
  }
  if (do_prune) {
    std::printf("prune: scanned %zu, kept %zu, removed %zu (%llu bytes)%s\n",
                prune.scanned, prune.kept, prune.removed,
                static_cast<unsigned long long>(prune.removed_bytes),
                prune_eval ? " [eval cells included]" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  if (args.command == "models") return cmd_models();
  if (args.command == "pipeline") return cmd_pipeline(args);
  if (args.command == "eval") return cmd_eval(args);
  if (args.command == "inspect") return cmd_inspect(args);
  if (args.command == "provenance") return cmd_provenance(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "train") return cmd_train(args);
  if (args.command == "cache") return cmd_cache(args);
  if (args.command == "--version" || args.command == "version") {
    return cmd_version();
  }
  return usage();
}
