// Embedding ablation (E1): the allocation-free streaming embedding
// kernel versus the string-materializing reference formulation, and
// bulk (parallel-embed) store construction versus the sequential add()
// loop.
//
// The contract under test is bit-identity: the streaming kernel hashes
// n-grams through an incremental FNV-1a over string views, which folds
// bytes exactly as hashing the materialized n-gram string would, so the
// two paths must agree on every float.  Likewise add_batch embeds in
// parallel but inserts sequentially, so the built index must serialize
// to the same bytes as one grown row by row — at every thread count.
//
// Beyond the google-benchmark sweeps this binary:
//   * verifies streaming == reference over the whole corpus sample,
//   * verifies add_batch index save() blobs == sequential add() blobs
//     for flat and IVF-PQ,
//   * verifies VectorStore::add_batch query results == sequential at
//     1/2/4/8 threads,
//   * measures the content-hash embedding-cache hit rate on a repeated
//     workload, and
//   * writes BENCH_embed.json so later PRs can track the trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "chunk/chunker.hpp"
#include "corpus/corpus_builder.hpp"
#include "embed/embedding_cache.hpp"
#include "embed/hashed_embedder.hpp"
#include "index/quantized.hpp"
#include "index/vector_index.hpp"
#include "index/vector_store.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "parse/adaptive.hpp"
#include "text/tokenizer.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace mcqa;

struct EmbedData {
  std::vector<std::string> ids;
  std::vector<std::string> texts;
  std::size_t bytes = 0;
};

/// Self-contained chunk sample: synthetic corpus -> parse -> fixed-size
/// chunks.  Fixed chunking keeps data prep off the embedder under test.
const EmbedData& data() {
  static const EmbedData d = [] {
    EmbedData out;
    const corpus::KnowledgeBase kb = corpus::KnowledgeBase::generate(
        corpus::KbConfig{.facts_per_topic = 24, .seed = 7,
                         .math_fraction = 0.4});
    corpus::CorpusConfig cfg;
    cfg.scale = bench::smoke() ? 0.002 : 0.008;
    const corpus::SyntheticCorpus corpus = build_corpus(kb, cfg);
    const parse::AdaptiveParser parser;
    const chunk::FixedSizeChunker chunker;
    for (const auto& doc : corpus.documents) {
      const parse::ParseOutcome outcome = parser.parse(doc.bytes);
      if (!outcome.ok) continue;
      for (auto& c : chunker.chunk(outcome.document)) {
        out.bytes += c.text.size();
        out.ids.push_back(std::move(c.chunk_id));
        out.texts.push_back(std::move(c.text));
      }
    }
    return out;
  }();
  return d;
}

const embed::HashedNGramEmbedder& embedder() {
  static const embed::HashedNGramEmbedder e = embed::make_biomed_encoder();
  return e;
}

// --- string-materializing oracle ---------------------------------------------
//
// The embedder's original multi-pass formulation, kept as the oracle and
// throughput baseline for the streaming kernel: per-call locale-aware
// <cctype> normalization in three passes, materialized n-gram strings,
// and a 64-bit divide per feature.  It must produce the same bits as
// embed() (checked over every sampled chunk); only the work it performs
// per byte differs.

std::string reference_normalize_ws(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_space = true;  // leading whitespace is dropped
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out += ' ';
      in_space = true;
    } else {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string reference_normalize_for_matching(std::string_view s) {
  const std::string lowered = reference_normalize_ws(s);
  std::string out;
  out.reserve(lowered.size());
  for (std::size_t i = 0; i < lowered.size(); ++i) {
    const char c = lowered[i];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == ' ') {
      out += c;
    } else if ((c == '-' || c == '.') && i > 0 && i + 1 < lowered.size() &&
               std::isalnum(static_cast<unsigned char>(lowered[i - 1])) &&
               std::isalnum(static_cast<unsigned char>(lowered[i + 1]))) {
      out += c;  // intra-word: cobalt-60, 2.5
    }
    // other punctuation dropped
  }
  // Collapse possible double spaces introduced by dropped punctuation.
  std::string collapsed;
  collapsed.reserve(out.size());
  bool in_space = true;
  for (const char c : out) {
    if (c == ' ') {
      if (!in_space) collapsed += ' ';
      in_space = true;
    } else {
      collapsed += c;
      in_space = false;
    }
  }
  while (!collapsed.empty() && collapsed.back() == ' ') collapsed.pop_back();
  return collapsed;
}

/// The space-separated word n-grams of a normalized string, materialized.
std::vector<std::string> word_ngrams(std::string_view normalized,
                                     std::size_t n) {
  std::vector<std::string_view> words;
  for (const std::string_view w : text::WordViews(normalized)) {
    words.push_back(w);
  }
  std::vector<std::string> out;
  for (std::size_t i = 0; i + n <= words.size(); ++i) {
    std::string gram;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != 0) gram += ' ';
      gram += words[i + j];
    }
    out.push_back(std::move(gram));
  }
  return out;
}

embed::Vector embed_reference(std::string_view text) {
  const embed::HashedEmbedderConfig& cfg = embedder().config();
  embed::Vector v(cfg.dim, 0.0f);
  const auto add_feature = [&](std::string_view feature, double weight) {
    const std::uint64_t h = util::fnv1a64(feature, cfg.seed);
    const float sign = ((h >> 61) & 1) != 0 ? 1.0f : -1.0f;
    v[h % cfg.dim] += sign * static_cast<float>(weight);
  };
  const std::string norm = reference_normalize_for_matching(text);
  if (norm.empty()) return v;
  if (cfg.word_unigrams) {
    for (const auto& g : word_ngrams(norm, 1)) {
      add_feature(g, cfg.unigram_weight);
    }
  }
  if (cfg.word_bigrams) {
    for (const auto& g : word_ngrams(norm, 2)) {
      add_feature(g, cfg.bigram_weight);
    }
  }
  if (cfg.char_trigrams) {
    for (std::size_t i = 0; i + 3 <= norm.size(); ++i) {
      add_feature(std::string_view(norm).substr(i, 3), cfg.trigram_weight);
    }
  }
  embed::normalize(v);
  return v;
}

// --- google-benchmark sweeps -------------------------------------------------

void BM_EmbedStrings(benchmark::State& state) {
  const auto& d = data();
  std::size_t i = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string& t = d.texts[i % d.texts.size()];
    benchmark::DoNotOptimize(embed_reference(t));
    bytes += static_cast<std::int64_t>(t.size());
    ++i;
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_EmbedStrings);

void BM_EmbedStreaming(benchmark::State& state) {
  const auto& d = data();
  std::size_t i = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string& t = d.texts[i % d.texts.size()];
    benchmark::DoNotOptimize(embedder().embed(t));
    bytes += static_cast<std::int64_t>(t.size());
    ++i;
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_EmbedStreaming);

void BM_StoreBuildBatch(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto& d = data();
  parallel::ThreadPool pool(threads);
  for (auto _ : state) {
    index::VectorStore store(embedder(), index::IndexKind::kFlat);
    store.add_batch(d.ids, d.texts, pool);
    store.build();
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["chunks/s"] = benchmark::Counter(
      static_cast<double>(d.texts.size()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_StoreBuildBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// --- identity checks ---------------------------------------------------------

/// Streaming embed() must return the same bits as the oracle for every
/// sampled chunk.
bool streaming_matches_reference() {
  for (const auto& t : data().texts) {
    if (embedder().embed(t) != embed_reference(t)) return false;
  }
  return true;
}

/// add_batch must build the same index bytes as a sequential add() loop
/// for every index kind (save() blobs compared after build()).
bool batch_blobs_match_sequential(std::vector<std::string>* kinds_checked) {
  parallel::ThreadPool& pool = bench::shared_sweep_pool();
  const std::vector<embed::Vector> vectors =
      embedder().embed_batch(data().texts, pool);
  const std::size_t dim = embedder().dim();

  const auto blob_pair = [&](auto make) {
    auto seq = make();
    for (const auto& v : vectors) seq.add(v);
    seq.build(pool);
    auto batch = make();
    batch.add_batch(vectors);
    batch.build(pool);
    return std::pair<std::string, std::string>(seq.save(), batch.save());
  };

  bool ok = true;
  {
    const auto [seq, batch] =
        blob_pair([&] { return index::FlatIndex(dim); });
    ok = ok && seq == batch;
    kinds_checked->push_back("flat");
  }
  {
    const auto [seq, batch] =
        blob_pair([&] { return index::IvfPqIndex(dim); });
    ok = ok && seq == batch;
    kinds_checked->push_back("ivfpq");
  }
  return ok;
}

/// VectorStore::add_batch must answer queries identically to a store
/// grown with sequential add(), at every pool width.
bool store_matches_sequential() {
  const auto& d = data();
  index::VectorStore want(embedder(), index::IndexKind::kFlat);
  for (std::size_t i = 0; i < d.texts.size(); ++i) {
    want.add(d.ids[i], d.texts[i]);
  }
  want.build();
  const std::size_t n_queries = std::min<std::size_t>(32, d.texts.size());

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    parallel::ThreadPool pool(threads);
    index::VectorStore got(embedder(), index::IndexKind::kFlat);
    got.add_batch(d.ids, d.texts, pool);
    got.build();
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < n_queries; ++i) {
      const auto a = want.query(d.texts[i], 5);
      const auto b = got.query(d.texts[i], 5);
      if (a.size() != b.size()) return false;
      for (std::size_t j = 0; j < a.size(); ++j) {
        if (a[j].id != b[j].id || a[j].score != b[j].score) return false;
      }
    }
  }
  return true;
}

// --- measured sections -------------------------------------------------------

struct Throughput {
  double mb_s_strings = 0.0;
  double mb_s_streaming = 0.0;
  double speedup = 0.0;
};

Throughput measure_embed_throughput(std::size_t repeats) {
  const auto& d = data();
  Throughput t;
  const double mb =
      static_cast<double>(d.bytes * repeats) / (1024.0 * 1024.0);
  {
    util::Stopwatch sw;
    for (std::size_t r = 0; r < repeats; ++r) {
      for (const auto& text : d.texts) {
        benchmark::DoNotOptimize(embed_reference(text));
      }
    }
    t.mb_s_strings = mb / sw.seconds();
  }
  {
    util::Stopwatch sw;
    for (std::size_t r = 0; r < repeats; ++r) {
      for (const auto& text : d.texts) {
        benchmark::DoNotOptimize(embedder().embed(text));
      }
    }
    t.mb_s_streaming = mb / sw.seconds();
  }
  t.speedup = t.mb_s_streaming / t.mb_s_strings;
  return t;
}

struct BuildTiming {
  std::size_t threads = 0;
  double seconds = 0.0;
};

double measure_sequential_build() {
  const auto& d = data();
  util::Stopwatch sw;
  index::VectorStore store(embedder(), index::IndexKind::kFlat);
  for (std::size_t i = 0; i < d.texts.size(); ++i) {
    store.add(d.ids[i], d.texts[i]);
  }
  store.build();
  benchmark::DoNotOptimize(store.size());
  return sw.seconds();
}

std::vector<BuildTiming> measure_batch_builds() {
  const auto& d = data();
  std::vector<BuildTiming> out;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    parallel::ThreadPool pool(threads);
    util::Stopwatch sw;
    index::VectorStore store(embedder(), index::IndexKind::kFlat);
    store.add_batch(d.ids, d.texts, pool);
    store.build();
    benchmark::DoNotOptimize(store.size());
    out.push_back(BuildTiming{threads, sw.seconds()});
  }
  return out;
}

struct CacheResult {
  embed::EmbeddingCacheStats stats;
  bool identical = true;
};

/// Embed the corpus twice through the cache: the second pass must be
/// all hits, and every cached vector must equal the base embedder's.
CacheResult measure_cache() {
  CacheResult r;
  const embed::CachingEmbedder cache(embedder());
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (const auto& t : data().texts) {
      if (cache.embed(t) != embedder().embed(t)) r.identical = false;
    }
  }
  r.stats = cache.stats();
  return r;
}

int run_checks_and_report(bool smoke) {
  std::vector<std::string> kinds;
  const bool id_stream = streaming_matches_reference();
  const bool id_blobs = batch_blobs_match_sequential(&kinds);
  const bool id_store = store_matches_sequential();
  const CacheResult cache = measure_cache();
  std::printf(
      "shape check: streaming embed() == embed_reference() for %zu chunks: "
      "%s\n",
      data().texts.size(), id_stream ? "PASS" : "FAIL");
  std::printf(
      "shape check: add_batch save() blobs == sequential (flat/ivfpq): "
      "%s\n",
      id_blobs ? "PASS" : "FAIL");
  std::printf(
      "shape check: VectorStore::add_batch == sequential add at 1/2/4/8 "
      "threads: %s\n",
      id_store ? "PASS" : "FAIL");
  std::printf(
      "shape check: cache returns base-embedder bits, second pass all "
      "hits: %s (hit rate %.3f)\n",
      cache.identical && cache.stats.hits >= data().texts.size() ? "PASS"
                                                                 : "FAIL",
      cache.stats.hit_rate());

  const bool all_pass = id_stream && id_blobs && id_store &&
                        cache.identical &&
                        cache.stats.hits >= data().texts.size();
  if (smoke) return all_pass ? 0 : 1;

  const Throughput t = measure_embed_throughput(/*repeats=*/4);
  const double seq_seconds = measure_sequential_build();
  const std::vector<BuildTiming> builds = measure_batch_builds();

  std::printf("\nembed throughput: strings %.1f MB/s, streaming %.1f MB/s "
              "(%.2fx)\n",
              t.mb_s_strings, t.mb_s_streaming, t.speedup);
  std::printf("store build (%zu chunks): sequential %.3fs",
              data().texts.size(), seq_seconds);
  for (const auto& b : builds) {
    std::printf(", batch@%zu %.3fs", b.threads, b.seconds);
  }
  std::printf("\n");

  json::Value report = json::Value::object();
  report["bench"] = "embed_ablation";
  bench::add_kernel_metadata(report);
  report["chunks"] = data().texts.size();
  report["bytes"] = data().bytes;
  report["dim"] = embedder().dim();
  {
    json::Value e = json::Value::object();
    e["mb_s_strings"] = t.mb_s_strings;
    e["mb_s_streaming"] = t.mb_s_streaming;
    e["speedup"] = t.speedup;
    e["streaming_matches_reference"] = id_stream;
    report["embed"] = std::move(e);
  }
  {
    json::Value b = json::Value::object();
    b["seconds_sequential"] = seq_seconds;
    json::Array batch;
    for (const auto& bt : builds) {
      json::Value entry = json::Value::object();
      entry["threads"] = bt.threads;
      entry["seconds"] = bt.seconds;
      entry["chunks_s"] =
          static_cast<double>(data().texts.size()) / bt.seconds;
      batch.push_back(std::move(entry));
    }
    b["batch"] = json::Value(std::move(batch));
    b["batch_matches_sequential"] = id_store;
    b["index_blobs_match"] = id_blobs;
    report["store_build"] = std::move(b);
  }
  {
    json::Value c = json::Value::object();
    c["hits"] = cache.stats.hits;
    c["misses"] = cache.stats.misses;
    c["entries"] = cache.stats.entries;
    c["hit_rate"] = cache.stats.hit_rate();
    c["identical_to_base"] = cache.identical;
    report["cache"] = std::move(c);
  }
  std::ofstream out("BENCH_embed.json");
  out << report.dump(2) << "\n";
  std::printf("wrote BENCH_embed.json\n");
  return all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = mcqa::bench::parse_args(&argc, argv);
  std::printf(
      "Embedding ablation (E1): streaming allocation-free embed kernel "
      "vs string-materializing reference over %zu chunks (%zu bytes), "
      "plus bulk store construction vs thread count.\n\n",
      data().texts.size(), data().bytes);
  if (smoke) return run_checks_and_report(/*smoke=*/true);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\n");
  return run_checks_and_report(/*smoke=*/false);
}
