// Index ablation (A1 in DESIGN.md): recall@10, query throughput and
// bytes/vector for flat and IVF-PQ indexes, reproducing the
// accuracy/speed/memory trade-off surface the paper delegates to FAISS.
//
// Two corpora:
//   * the real chunk-embedding distribution from the shared pipeline
//     context (google-benchmark sweeps + the per-kind JSON entries), and
//   * a clustered synthetic vector corpus (corpus/vector_corpus.hpp)
//     scaled to ~1M rows — the sweep that actually separates the tiers:
//     {flat, ivfpq} x {resident, mmap}, reporting QPS,
//     bytes/vector and recall@10 to BENCH_index.json.
//
// Flags (defaults reproduce the historic tracking numbers exactly):
//   --rows N / --dim N   kernel-layer FlatIndex tracking case
//                        (default 50000 x 256, generation stream
//                        unchanged at the defaults)
//   --sweep-rows N       synthetic sweep size (default 1,000,000)
//   --smoke              shape checks on a shrunk (~2k-row) sweep; no
//                        timing, no JSON (the ctest entry)
//
// Shape checks (smoke and full; a full run exits non-zero when one
// fails):
//   * batched == sequential results at 1/2/8 threads, both kinds,
//   * IVF-PQ with candidates covering the store is bit-identical
//     (rows AND scores) to FlatIndex — the exact-rerank contract
//     (smoke scale only; at 1M the covering scan would dwarf the sweep),
//   * IVF-PQ recall@10 >= 0.95 after rerank,
//   * IVF-PQ scan payload <= 0.35x flat bytes/vector,
//   * mmap variants open without copying (payload stays a view:
//     mmap_backed()) and return results bit-identical to the resident
//     index.
//
// The full run also reports, per compiled kernel table, ns/row and
// bytes/row of dot_fp16 and of dot_fp16_tile at Q = kTileQ on the
// tracking case, and per compiled integer body ns/row and bytes/row of
// the certified scan's int8 first pass (dot_i8_rows at Q = 1 and
// Q = kTileQ), the whole certified search's ns/row, and the rows it
// reranked per query at k 10 (`kernels` and `int8_kernels` in
// BENCH_index.json).  The query-batch-width sweep checks that the
// certified hits equal a full fp16 scan's at every width.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "corpus/vector_corpus.hpp"
#include "embed/embedder.hpp"
#include "index/kernels.hpp"
#include "index/quantized.hpp"
#include "index/vector_index.hpp"
#include "index/vector_store.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace mcqa;

// --- flags -------------------------------------------------------------------

struct Flags {
  std::size_t rows = 50000;          ///< tracking case rows
  std::size_t dim = 256;             ///< tracking case dim
  std::size_t sweep_rows = 1000000;  ///< synthetic sweep size
};

Flags g_flags;

/// Strip --rows/--dim/--sweep-rows (with their values) from argv so
/// benchmark::Initialize never sees them.
void parse_flags(int* argc, char** argv) {
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    const std::string_view arg(argv[r]);
    std::size_t* slot = nullptr;
    if (arg == "--rows") slot = &g_flags.rows;
    else if (arg == "--dim") slot = &g_flags.dim;
    else if (arg == "--sweep-rows") slot = &g_flags.sweep_rows;
    if (slot != nullptr && r + 1 < *argc) {
      *slot = static_cast<std::size_t>(std::strtoull(argv[r + 1], nullptr, 10));
      ++r;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  if (g_flags.rows == 0) g_flags.rows = 1;
  if (g_flags.dim == 0) g_flags.dim = 1;
  if (g_flags.sweep_rows == 0) g_flags.sweep_rows = 1;
}

// --- real-chunk data (gbench sweeps + per-kind JSON entries) -----------------

struct AblationData {
  std::vector<embed::Vector> base;
  std::vector<embed::Vector> queries;
};

const AblationData& data() {
  static const AblationData d = [] {
    AblationData out;
    const auto& ctx = bench::shared_context();
    const auto& store = ctx.chunk_store();
    const auto& embedder = ctx.embedder();
    for (std::size_t i = 0; i < store.size(); ++i) {
      out.base.push_back(embedder.embed(store.text_of(i)));
    }
    for (const auto& record : ctx.benchmark()) {
      out.queries.push_back(embedder.embed(record.stem));
      if (out.queries.size() >= 64) break;
    }
    return out;
  }();
  return d;
}

double mean_recall(const index::VectorIndex& idx, std::size_t k = 10) {
  double sum = 0.0;
  for (const auto& q : data().queries) {
    sum += index::recall_at_k(idx.search(q, k),
                              index::exact_search(data().base, q, k));
  }
  return sum / static_cast<double>(data().queries.size());
}

template <typename MakeIndex>
void run_search_bench(benchmark::State& state, MakeIndex make) {
  const auto idx = make();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idx->search(data().queries[i % data().queries.size()], 10));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
  state.counters["recall@10"] = mean_recall(*idx);
  state.counters["n"] = static_cast<double>(data().base.size());
}

std::unique_ptr<index::VectorIndex> make_kind(index::IndexKind kind,
                                              std::size_t dim) {
  switch (kind) {
    case index::IndexKind::kFlat:
      return std::make_unique<index::FlatIndex>(dim);
    case index::IndexKind::kIvfPq: {
      index::IvfPqConfig cfg;
      cfg.nlist = 64;
      cfg.ksub = 64;
      return std::make_unique<index::IvfPqIndex>(dim, cfg);
    }
  }
  return nullptr;
}

constexpr index::IndexKind kAllKinds[] = {index::IndexKind::kFlat,
                                           index::IndexKind::kIvfPq};

void BM_FlatSearch(benchmark::State& state) {
  run_search_bench(state, [] {
    auto idx = std::make_unique<index::FlatIndex>(data().base[0].size());
    for (const auto& v : data().base) idx->add(v);
    return idx;
  });
}
BENCHMARK(BM_FlatSearch);

void BM_IvfPqSearch(benchmark::State& state) {
  const auto nprobe = static_cast<std::size_t>(state.range(0));
  run_search_bench(state, [nprobe] {
    index::IvfPqConfig cfg;
    cfg.nlist = 64;
    cfg.ksub = 64;
    cfg.nprobe = nprobe;
    auto idx =
        std::make_unique<index::IvfPqIndex>(data().base[0].size(), cfg);
    for (const auto& v : data().base) idx->add(v);
    idx->build(bench::shared_sweep_pool());
    return idx;
  });
}
BENCHMARK(BM_IvfPqSearch)->Arg(4)->Arg(8)->Arg(16);

// --- kernel-layer tracking case (default: dim 256 / 50k rows) ----------------

struct FlatCase {
  std::unique_ptr<index::FlatIndex> idx;
  std::vector<embed::Vector> queries;
};

const FlatCase& flat_case() {
  static const FlatCase c = [] {
    const std::size_t dim = g_flags.dim;
    const std::size_t rows = g_flags.rows;
    FlatCase out;
    out.idx = std::make_unique<index::FlatIndex>(dim);
    // Generation stream unchanged at the default 50000 x 256, so the
    // tracked numbers stay comparable across PRs.
    util::Rng rng(1);
    embed::Vector v(dim);
    for (std::size_t i = 0; i < rows; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.normal());
      embed::normalize(v);
      out.idx->add(v);
    }
    for (std::size_t i = 0; i < 32; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.normal());
      embed::normalize(v);
      out.queries.push_back(v);
    }
    return out;
  }();
  return c;
}

void BM_FlatSearchTrackingCase(benchmark::State& state) {
  const auto& c = flat_case();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        c.idx->search(c.queries[i % c.queries.size()], 10));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
  state.counters["rows"] = static_cast<double>(c.idx->size());
  state.counters["dim"] = static_cast<double>(c.idx->dim());
}
BENCHMARK(BM_FlatSearchTrackingCase);

/// Kernel rows on the tracking case, one per compiled kernel table:
/// ns/row of dot_fp16 (one query) and of dot_fp16_tile at Q = kTileQ,
/// each the best of `repeats` single-thread passes over every row.
/// bytes/row is the fp16 row the kernel streams (its queries stay in
/// L1), so a tile moves those bytes once for kTileQ queries.
json::Value kernel_rows(const FlatCase& c, std::size_t repeats) {
  constexpr std::size_t kQ = index::kernels::kTileQ;
  const index::Fp16Rows& rows = c.idx->rows();
  const std::size_t dim = c.idx->dim();
  const float* qs[kQ];
  for (std::size_t q = 0; q < kQ; ++q) qs[q] = c.queries[q].data();
  const double bytes_per_row =
      static_cast<double>(dim * sizeof(util::fp16_t));
  json::Array out;
  for (const index::kernels::KernelIsa isa :
       {index::kernels::KernelIsa::kScalar,
        index::kernels::KernelIsa::kAvx2}) {
    const index::kernels::KernelOps* ops = index::kernels::ops_for(isa);
    if (ops == nullptr) continue;
    double single_s = std::numeric_limits<double>::infinity();
    double tile_s = std::numeric_limits<double>::infinity();
    float scores[kQ];
    for (std::size_t r = 0; r < repeats; ++r) {
      util::Stopwatch sw;
      for (std::size_t row = 0; row < rows.size(); ++row) {
        benchmark::DoNotOptimize(ops->dot_fp16(rows.row(row), qs[0], dim));
      }
      single_s = std::min(single_s, sw.seconds());
      util::Stopwatch tw;
      for (std::size_t row = 0; row < rows.size(); ++row) {
        ops->dot_fp16_tile(rows.row(row), qs, kQ, dim, scores);
        benchmark::DoNotOptimize(scores);
      }
      tile_s = std::min(tile_s, tw.seconds());
    }
    const double n = static_cast<double>(rows.size());
    json::Value entry = json::Value::object();
    entry["isa"] = index::kernels::isa_name(isa);
    entry["rows"] = rows.size();
    entry["dim"] = dim;
    entry["bytes_per_row"] = bytes_per_row;
    entry["dot_fp16_ns_per_row"] = single_s * 1e9 / n;
    entry["dot_fp16_tile_q"] = kQ;
    entry["dot_fp16_tile_ns_per_row"] = tile_s * 1e9 / n;
    std::printf(
        "  kernel %-6s: dot_fp16 %6.1f ns/row, dot_fp16_tile Q=%zu "
        "%6.1f ns/row (%5.1f per query), %.0f B/row\n",
        std::string(index::kernels::isa_name(isa)).c_str(),
        single_s * 1e9 / n, kQ, tile_s * 1e9 / n,
        tile_s * 1e9 / (n * static_cast<double>(kQ)), bytes_per_row);
    out.push_back(std::move(entry));
  }
  return json::Value(std::move(out));
}

/// Int8 rows on the tracking case, one per compiled integer body (every
/// usable table): ns/row of the first pass's exact integer dots at Q = 1
/// and Q = kTileQ (dot_i8_rows over the whole store in 128-row blocks,
/// as FlatIndex::search runs it), ns/row of the whole certified search
/// at k 10, and the rows that search reranked with dot_fp16 per query.
/// bytes/row is what the first pass reads per row: the codes and three
/// float coefficients.
json::Value int8_kernel_rows(const FlatCase& c, std::size_t repeats) {
  constexpr std::size_t kQ = index::kernels::kTileQ;
  constexpr std::size_t kBlock = 128;
  const index::Fp16Rows& rows = c.idx->rows();
  const std::size_t dim = c.idx->dim();
  const std::size_t n = rows.size();
  // Query codes d = round(q / s_q), s_q = max|q| / 127.
  std::vector<std::vector<std::int8_t>> qcodes(kQ, std::vector<std::int8_t>(dim));
  const std::int8_t* dq[kQ];
  for (std::size_t q = 0; q < kQ; ++q) {
    float m = 0.0f;
    for (const float x : c.queries[q]) m = std::max(m, std::fabs(x));
    for (std::size_t i = 0; i < dim; ++i) {
      qcodes[q][i] = static_cast<std::int8_t>(
          std::lround(c.queries[q][i] * 127.0f / m));
    }
    dq[q] = qcodes[q].data();
  }
  const double bytes_per_row = static_cast<double>(dim + 3 * sizeof(float));
  const index::kernels::KernelOps* before =
      index::kernels::ops_for(index::kernels::dispatched_isa());
  json::Array out;
  for (const index::kernels::KernelOps* ops : index::kernels::usable_ops()) {
    std::vector<std::uint8_t> codes(n * dim);
    for (std::size_t r = 0; r < n; ++r) {
      ops->encode_i8(rows.row(r), dim, codes.data() + r * dim);
    }
    std::int32_t dots[kQ * kBlock];
    const auto pass = [&](std::size_t qn) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        util::Stopwatch sw;
        for (std::size_t r0 = 0; r0 < n; r0 += kBlock) {
          ops->dot_i8_rows(codes.data() + r0 * dim, std::min(kBlock, n - r0),
                           dim, dq, qn, dots);
          benchmark::DoNotOptimize(dots);
        }
        best = std::min(best, sw.seconds());
      }
      return best * 1e9 / static_cast<double>(n);
    };
    const double single_ns = pass(1);
    const double tile_ns = pass(kQ);
    index::kernels::set_dispatch_for_testing(ops);
    const index::FlatScanCounts from = index::flat_scan_counts();
    double search_s = std::numeric_limits<double>::infinity();
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      util::Stopwatch sw;
      for (const auto& q : c.queries) {
        benchmark::DoNotOptimize(c.idx->search(q, 10));
      }
      search_s = std::min(search_s, sw.seconds());
    }
    const index::FlatScanCounts to = index::flat_scan_counts();
    const double reranked = static_cast<double>(to.reranked - from.reranked) /
                            static_cast<double>(to.queries - from.queries);
    const double search_ns = search_s * 1e9 /
                             (static_cast<double>(n) *
                              static_cast<double>(c.queries.size()));
    const std::string body(index::kernels::int8_body_name(ops->int8));
    json::Value entry = json::Value::object();
    entry["int8"] = body;
    entry["rows"] = n;
    entry["dim"] = dim;
    entry["bytes_per_row"] = bytes_per_row;
    entry["dot_i8_ns_per_row"] = single_ns;
    entry["dot_i8_tile_q"] = kQ;
    entry["dot_i8_tile_ns_per_row"] = tile_ns;
    entry["search_k10_ns_per_row"] = search_ns;
    entry["reranked_per_query_k10"] = reranked;
    std::printf(
        "  int8   %-6s: dot_i8 %5.1f ns/row, Q=%zu %5.1f ns/row (%4.2f per "
        "query), %.0f B/row; search k10 %5.2f ns/row, %.1f rows reranked "
        "per query\n",
        body.c_str(), single_ns, kQ, tile_ns,
        tile_ns / static_cast<double>(kQ), bytes_per_row, search_ns,
        reranked);
    out.push_back(std::move(entry));
  }
  index::kernels::set_dispatch_for_testing(before);
  return json::Value(std::move(out));
}

// --- shared checks -----------------------------------------------------------

bool results_equal(const std::vector<index::SearchResult>& a,
                   const std::vector<index::SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].row != b[i].row || a[i].score != b[i].score) return false;
  }
  return true;
}

double timed_batch_qps(const index::VectorIndex& idx,
                       const std::vector<embed::Vector>& queries,
                       parallel::ThreadPool& pool, std::size_t k = 10,
                       std::size_t repeats = 4) {
  util::Stopwatch sw;
  std::size_t done = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    benchmark::DoNotOptimize(idx.search_batch(queries, k, pool));
    done += queries.size();
  }
  return static_cast<double>(done) / sw.seconds();
}

/// Batched results must equal the sequential loop at any thread count
/// (rows and scores) — the determinism contract of search_batch.
bool batch_matches_sequential(const index::VectorIndex& idx,
                              const std::vector<embed::Vector>& queries,
                              std::size_t k = 10) {
  std::vector<std::vector<index::SearchResult>> want;
  for (const auto& q : queries) want.push_back(idx.search(q, k));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto got = idx.search_batch(queries, k, pool);
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!results_equal(got[i], want[i])) return false;
    }
  }
  return true;
}

bool check(bool ok, const char* what) {
  std::printf("shape check [%s]: %s\n", what, ok ? "PASS" : "FAIL");
  return ok;
}

// --- query-batch-width sweep (DESIGN.md §18) ---------------------------------

/// Order-sensitive digest over (row, score-bits): equal digests mean
/// bit-identical result sets in identical rank order.
std::uint64_t digest_results(
    const std::vector<std::vector<index::SearchResult>>& results) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (v >> b) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& per_query : results) {
    mix(per_query.size());
    for (const auto& r : per_query) {
      mix(r.row);
      mix(std::bit_cast<std::uint32_t>(r.score));
    }
  }
  return h;
}

/// One tiled pass over `queries` in groups of `width` (single thread,
/// so the speedup measured is the tile kernels', not the pool's).
std::vector<std::vector<index::SearchResult>> tiled_pass(
    const index::VectorIndex& idx, const std::vector<embed::Vector>& queries,
    std::size_t width, std::size_t k) {
  std::vector<std::vector<index::SearchResult>> out;
  out.reserve(queries.size());
  for (std::size_t b = 0; b < queries.size(); b += width) {
    const std::size_t e = std::min(b + width, queries.size());
    const std::vector<embed::Vector> group(
        queries.begin() + static_cast<std::ptrdiff_t>(b),
        queries.begin() + static_cast<std::ptrdiff_t>(e));
    auto part = idx.search_tiled(group, k);
    for (auto& r : part) out.push_back(std::move(r));
  }
  return out;
}

struct WidthSweepOutcome {
  json::Value report = json::Value::object();
  bool checks_pass = true;
  double best_speedup = 0.0;  ///< max over widths >= kTileQ
};

/// The full fp16 scan the certified one must reproduce: every row's
/// dot_fp16 pushed in row order.
std::vector<std::vector<index::SearchResult>> full_fp16_scan(
    const index::FlatIndex& idx, const std::vector<embed::Vector>& queries,
    std::size_t k) {
  std::vector<std::vector<index::SearchResult>> out;
  for (const auto& q : queries) {
    index::TopK top(std::min(k, idx.size()));
    for (std::size_t row = 0; row < idx.size(); ++row) {
      top.push(row, index::kernels::dot_fp16(idx.rows().row(row), q.data(),
                                             idx.dim()));
    }
    out.push_back(top.take_sorted());
  }
  return out;
}

/// Q=1/4/8/16 batch-width sweep: per-width tiled QPS against the
/// per-query scan, digest equality with a full fp16 scan at every
/// width, and a digest per compiled kernel table via the in-process
/// dispatch override.  Shape checks: the certified hits are the full
/// scan's everywhere; tiled QPS >= single-query QPS for every width
/// >= 4 (width 1 runs the same work through the tile path, so it is
/// only reported, not gated).
WidthSweepOutcome run_width_sweep(const index::FlatIndex& idx,
                                  const std::vector<embed::Vector>& queries,
                                  std::size_t repeats) {
  constexpr std::size_t kWidths[] = {1, 4, 8, 16};
  constexpr std::size_t kK = 10;
  WidthSweepOutcome out;
  const std::uint64_t full_digest =
      digest_results(full_fp16_scan(idx, queries, kK));

  // Per-query reference: best-of-`repeats` wall time.
  std::vector<std::vector<index::SearchResult>> want;
  double single_s = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    util::Stopwatch sw;
    want.clear();
    for (const auto& q : queries) want.push_back(idx.search(q, kK));
    single_s = std::min(single_s, sw.seconds());
  }
  const double qps_single = static_cast<double>(queries.size()) / single_s;
  const std::uint64_t want_digest = digest_results(want);
  out.checks_pass &= check(want_digest == full_digest,
                           "certified per-query hits == full fp16 scan");

  out.report["rows"] = idx.size();
  out.report["dim"] = idx.dim();
  out.report["queries"] = queries.size();
  out.report["k"] = kK;
  out.report["qps_single"] = qps_single;
  out.report["digest"] = util::hex_digest(want_digest, 16);

  json::Array widths;
  for (const std::size_t w : kWidths) {
    std::vector<std::vector<index::SearchResult>> got;
    double tiled_s = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < repeats; ++r) {
      util::Stopwatch sw;
      got = tiled_pass(idx, queries, w, kK);
      tiled_s = std::min(tiled_s, sw.seconds());
    }
    const double qps = static_cast<double>(queries.size()) / tiled_s;
    const bool digest_ok = digest_results(got) == full_digest;
    out.checks_pass &= digest_ok;
    if (w >= 4) out.checks_pass &= qps >= qps_single;
    if (w >= index::kernels::kTileQ) {
      out.best_speedup = std::max(out.best_speedup, qps / qps_single);
    }
    char label[96];
    std::snprintf(label, sizeof(label),
                  "width %zu: digest == full fp16 scan%s", w,
                  w >= 4 ? " && tiled qps >= single qps" : "");
    check(digest_ok && (w < 4 || qps >= qps_single), label);
    std::printf("  width %2zu: %10.0f qps (%.2fx single)\n", w, qps,
                qps / qps_single);

    json::Value entry = json::Value::object();
    entry["width"] = w;
    entry["qps_tiled"] = qps;
    entry["speedup_vs_single"] = qps / qps_single;
    entry["digest_matches_single"] = digest_ok;
    widths.push_back(std::move(entry));
  }
  out.report["widths"] = json::Value(std::move(widths));

  // Cross-table digest: rerun one tiled pass per usable table (each
  // integer body) through the in-process dispatch override; every table
  // must produce the full scan's digest bit-for-bit.
  const index::kernels::KernelIsa before = index::kernels::dispatched_isa();
  json::Array isa_entries;
  bool isa_ok = true;
  for (const index::kernels::KernelOps* table : index::kernels::usable_ops()) {
    index::kernels::set_dispatch_for_testing(table);
    const std::uint64_t d =
        digest_results(tiled_pass(idx, queries, index::kernels::kTileQ, kK));
    isa_ok &= d == full_digest;
    json::Value entry = json::Value::object();
    entry["isa"] = index::kernels::isa_name(table->isa);
    entry["int8"] = index::kernels::int8_body_name(table->int8);
    entry["digest"] = util::hex_digest(d, 16);
    isa_entries.push_back(std::move(entry));
  }
  index::kernels::set_dispatch_for_testing(before);
  out.checks_pass &= isa_ok;
  out.report["isa_digests"] = json::Value(std::move(isa_entries));
  check(isa_ok, "tiled digests == full fp16 scan on every kernel table");
  return out;
}

// --- synthetic million-row sweep ---------------------------------------------

struct SweepConfig {
  std::size_t rows = 1000000;
  std::size_t dim = 256;
  std::size_t clusters = 0;  ///< 0 = rows/32 (mean topic ~32 rows)
  std::size_t queries = 32;
  std::size_t k = 10;
  /// Covering-rerank bit-identity check (candidate set = whole store):
  /// smoke scale only — at 1M the covering scan would dwarf the sweep.
  bool check_rerank_identity = false;
};

std::size_t sweep_nlist(std::size_t rows) {
  if (rows >= 500000) return 256;
  if (rows >= 50000) return 128;
  return 64;
}

std::unique_ptr<index::VectorIndex> make_sweep_index(index::IndexKind kind,
                                                     const SweepConfig& sc) {
  const bool big = sc.rows >= 100000;
  switch (kind) {
    case index::IndexKind::kFlat:
      return std::make_unique<index::FlatIndex>(sc.dim);
    case index::IndexKind::kIvfPq: {
      index::IvfPqConfig cfg;
      cfg.nlist = sweep_nlist(sc.rows);
      cfg.nprobe = 32;
      cfg.m = 16;
      cfg.ksub = big ? 256 : 64;  // amortize codebooks at small scale
      // Candidates must cover the query's whole topic (its rows
      // near-tie in ADC score); the biggest topic is ~11x the mean of
      // 32 rows, so k * 64 = 640 covers with margin.
      cfg.oversample = big ? 64 : 16;
      return std::make_unique<index::IvfPqIndex>(sc.dim, cfg);
    }
  }
  return nullptr;
}

struct SweepOutcome {
  json::Value report = json::Value::object();
  bool checks_pass = true;
};

SweepOutcome run_sweep(const SweepConfig& sc, bool timing) {
  corpus::VectorCorpusConfig cc;
  cc.rows = sc.rows;
  cc.dim = sc.dim;
  cc.clusters = sc.clusters != 0 ? sc.clusters
                                 : std::max<std::size_t>(64, sc.rows / 32);
  const corpus::VectorCorpus vc(cc);
  parallel::ThreadPool& pool = bench::shared_sweep_pool();

  std::vector<embed::Vector> queries;
  queries.reserve(sc.queries);
  for (std::size_t j = 0; j < sc.queries; ++j) queries.push_back(vc.query(j));

  std::printf("sweep: %zu rows x dim %zu (%zu clusters), %zu queries, "
              "k=%zu\n",
              sc.rows, sc.dim, cc.clusters, sc.queries, sc.k);

  SweepOutcome out;
  out.report["rows"] = sc.rows;
  out.report["dim"] = sc.dim;
  out.report["clusters"] = cc.clusters;
  out.report["queries"] = sc.queries;
  out.report["k"] = sc.k;
  json::Array entries;

  const std::filesystem::path blob_dir =
      std::filesystem::temp_directory_path() / "mcqa_index_sweep";
  std::filesystem::create_directories(blob_dir);

  // Ground truth + flat reference for the bit-identity and recall
  // checks (FlatIndex is exact over the fp16-at-rest rows — the same
  // precision the rerank pass sees).
  std::vector<std::vector<index::SearchResult>> truth(queries.size());
  double flat_bytes_per_vec = 0.0;
  bool have_truth = false;

  for (const index::IndexKind kind : kAllKinds) {
    auto idx = make_sweep_index(kind, sc);
    util::Stopwatch build_sw;
    constexpr std::size_t kBlock = 65536;
    for (std::size_t at = 0; at < sc.rows; at += kBlock) {
      idx->add_batch(vc.block(at, std::min(sc.rows, at + kBlock), pool));
    }
    idx->build(pool);
    const double build_s = build_sw.seconds();

    std::vector<std::vector<index::SearchResult>> results(queries.size());
    util::Stopwatch query_sw;
    for (std::size_t j = 0; j < queries.size(); ++j) {
      results[j] = idx->search(queries[j], sc.k);
    }
    const double qps =
        static_cast<double>(queries.size()) / query_sw.seconds();

    if (kind == index::IndexKind::kFlat) {
      truth = results;
      have_truth = true;
      flat_bytes_per_vec = static_cast<double>(idx->payload_bytes()) /
                           static_cast<double>(sc.rows);
    }
    double recall = 0.0;
    for (std::size_t j = 0; j < queries.size(); ++j) {
      recall += index::recall_at_k(results[j], truth[j]);
    }
    recall /= static_cast<double>(queries.size());

    const double bytes_per_vec = static_cast<double>(idx->payload_bytes()) /
                                 static_cast<double>(sc.rows);
    const double rerank_per_vec = static_cast<double>(idx->rerank_bytes()) /
                                  static_cast<double>(sc.rows);

    // mmap variant: save, reopen as views, re-run the queries.
    const std::string blob_path =
        (blob_dir / (std::string(index::index_kind_name(kind)) + ".idx"))
            .string();
    {
      const std::string blob = idx->save();
      std::ofstream f(blob_path, std::ios::binary);
      f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
    util::Stopwatch open_sw;
    const index::MappedIndex mapped = index::open_index_mmap(blob_path);
    const double open_s = open_sw.seconds();

    std::vector<std::vector<index::SearchResult>> mmap_results(
        queries.size());
    util::Stopwatch mmap_sw;
    for (std::size_t j = 0; j < queries.size(); ++j) {
      mmap_results[j] = mapped.index->search(queries[j], sc.k);
    }
    const double mmap_qps =
        static_cast<double>(queries.size()) / mmap_sw.seconds();

    bool mmap_identical = true;
    for (std::size_t j = 0; j < queries.size(); ++j) {
      mmap_identical =
          mmap_identical && results_equal(results[j], mmap_results[j]);
    }

    char label[64];
    std::snprintf(label, sizeof(label), "%s: mmap open O(1) + identical",
                  std::string(index::index_kind_name(kind)).c_str());
    out.checks_pass &=
        check(mapped.index->mmap_backed() && mmap_identical, label);

    for (const bool is_mmap : {false, true}) {
      json::Value entry = json::Value::object();
      entry["kind"] = index::index_kind_name(kind);
      entry["storage"] = is_mmap ? "mmap" : "resident";
      entry["bytes_per_vector"] = bytes_per_vec;
      entry["rerank_bytes_per_vector"] = rerank_per_vec;
      entry["recall_at_10"] = recall;
      if (is_mmap) {
        entry["open_s"] = open_s;
        entry["qps"] = mmap_qps;
        entry["mmap_backed"] = mapped.index->mmap_backed();
      } else {
        entry["build_s"] = build_s;
        entry["qps"] = qps;
      }
      entries.push_back(std::move(entry));
    }
    if (timing) {
      std::printf(
          "  %-5s  build %7.2fs  qps %9.1f | mmap open %.6fs qps %9.1f | "
          "%7.1f B/vec (+%5.1f rerank)  recall@10 %.3f\n",
          std::string(index::index_kind_name(kind)).c_str(), build_s, qps,
          open_s, mmap_qps, bytes_per_vec, rerank_per_vec, recall);
    }

    // Quantized-tier checks: recall floor and memory envelope.
    if (kind != index::IndexKind::kIvfPq) continue;
    out.checks_pass &= check(recall >= 0.95, "ivfpq: recall@10 >= 0.95");
    if (have_truth) {
      out.checks_pass &= check(bytes_per_vec <= 0.35 * flat_bytes_per_vec,
                               "ivfpq: scan payload <= 0.35x flat");
    }

    // Exact-rerank bit-identity under full candidate coverage.
    if (sc.check_rerank_identity) {
      index::IvfPqConfig cfg;
      cfg.nlist = sweep_nlist(sc.rows);
      cfg.nprobe = sc.rows;  // probe everything
      cfg.ksub = 64;
      cfg.min_candidates = sc.rows;
      index::IvfPqIndex covering(sc.dim, cfg);
      for (std::size_t at = 0; at < sc.rows; at += kBlock) {
        covering.add_batch(vc.block(at, std::min(sc.rows, at + kBlock),
                                    pool));
      }
      covering.build(pool);
      bool identical = true;
      for (std::size_t j = 0; j < queries.size(); ++j) {
        identical = identical &&
                    results_equal(covering.search(queries[j], sc.k),
                                  truth[j]);
      }
      out.checks_pass &=
          check(identical, "ivfpq: covering rerank == FlatIndex bit-identical");
    }
  }
  out.report["indexes"] = json::Value(std::move(entries));
  std::error_code ec;
  std::filesystem::remove_all(blob_dir, ec);
  return out;
}

// --- smoke / full drivers ----------------------------------------------------

/// Smoke path: determinism + quantized-tier shape checks on shrunk
/// inputs (no timing, no JSON) — what the `bench`-labelled ctest entry
/// runs.
int run_smoke() {
  bool pass = true;

  const std::size_t dim = data().base[0].size();
  const std::vector<embed::Vector> queries(
      data().queries.begin(),
      data().queries.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              16, data().queries.size())));
  for (const index::IndexKind kind : kAllKinds) {
    auto idx = make_kind(kind, dim);
    idx->add_batch(data().base);
    idx->build(bench::shared_sweep_pool());
    char label[64];
    std::snprintf(label, sizeof(label),
                  "%s: batched == sequential at 1/2/8 threads",
                  std::string(index::index_kind_name(kind)).c_str());
    pass &= check(batch_matches_sequential(*idx, queries), label);
  }

  SweepConfig sc;
  sc.rows = 2048;
  sc.clusters = 64;
  sc.queries = 16;
  sc.check_rerank_identity = true;
  pass &= run_sweep(sc, /*timing=*/false).checks_pass;

  // Query-batch-width sweep on a shrunk synthetic flat case: digests
  // equal to a full fp16 scan's at Q=1/4/8/16 and on every kernel
  // table, tiled QPS >= single-query QPS from Q=4 up.  8192 x 256 keeps the kernel (not
  // fixture noise) dominant while staying smoke-fast.
  {
    std::printf("\nquery-batch-width sweep (8192 rows x dim 256):\n");
    index::FlatIndex flat(256);
    util::Rng rng(7);
    embed::Vector v(256);
    for (std::size_t i = 0; i < 8192; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.normal());
      embed::normalize(v);
      flat.add(v);
    }
    std::vector<embed::Vector> wq;
    for (std::size_t i = 0; i < 16; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.normal());
      embed::normalize(v);
      wq.push_back(v);
    }
    pass &= run_width_sweep(flat, wq, /*repeats=*/3).checks_pass;
  }
  return pass ? 0 : 1;
}

/// The full run: writes BENCH_index.json and returns whether every
/// check passed (per-kind determinism, the width sweep with its
/// per-table digests, and the synthetic sweep).
bool write_bench_json() {
  const std::size_t dim = data().base[0].size();
  parallel::ThreadPool pool;  // machine-sized

  json::Value report = json::Value::object();
  report["bench"] = "index_ablation";
  bench::add_kernel_metadata(report);
  report["n"] = data().base.size();
  report["dim"] = dim;
  report["k"] = 10;
  report["batch_threads"] = pool.thread_count();

  json::Array indexes;
  bool all_deterministic = true;
  for (const index::IndexKind kind : kAllKinds) {
    auto idx = make_kind(kind, dim);
    for (const auto& v : data().base) idx->add(v);
    idx->build(pool);

    // Single-query throughput (sequential loop).
    util::Stopwatch sw;
    std::size_t singles = 0;
    for (std::size_t r = 0; r < 2; ++r) {
      for (const auto& q : data().queries) {
        benchmark::DoNotOptimize(idx->search(q, 10));
        ++singles;
      }
    }
    const double qps_single = static_cast<double>(singles) / sw.seconds();
    const double qps_batch = timed_batch_qps(*idx, data().queries, pool);
    const bool deterministic =
        batch_matches_sequential(*idx, data().queries);
    all_deterministic = all_deterministic && deterministic;

    json::Value entry = json::Value::object();
    entry["kind"] = index::index_kind_name(kind);
    entry["qps_single"] = qps_single;
    entry["qps_batch"] = qps_batch;
    entry["recall_at_10"] = mean_recall(*idx);
    entry["bytes_per_vector"] =
        static_cast<double>(idx->payload_bytes()) /
        static_cast<double>(std::max<std::size_t>(idx->size(), 1));
    entry["batch_matches_sequential"] = deterministic;
    indexes.push_back(std::move(entry));
  }
  report["indexes"] = json::Value(std::move(indexes));

  // The kernel-layer tracking case (default: dim 256 / 50k rows).
  {
    const auto& c = flat_case();
    util::Stopwatch sw;
    std::size_t singles = 0;
    for (const auto& q : c.queries) {
      benchmark::DoNotOptimize(c.idx->search(q, 10));
      ++singles;
    }
    json::Value entry = json::Value::object();
    entry["rows"] = c.idx->size();
    entry["dim"] = c.idx->dim();
    entry["qps_single"] = static_cast<double>(singles) / sw.seconds();
    entry["qps_batch"] = timed_batch_qps(*c.idx, c.queries, pool, 10, 1);
    report["flat_50k_dim256"] = std::move(entry);
    std::printf("\nkernel rows (tracking case, one thread):\n");
    report["kernels"] = kernel_rows(c, /*repeats=*/5);
    report["int8_kernels"] = int8_kernel_rows(c, /*repeats=*/5);
  }

  // Query-batch-width sweep on the tracking case (Q=1/4/8/16): the
  // certified hits equal a full fp16 scan's at every width and on every
  // kernel table; the tile speedup is reported, not gated.
  bool width_sweep_pass = true;
  {
    std::printf("\nquery-batch-width sweep (tracking case):\n");
    const auto& c = flat_case();
    WidthSweepOutcome ws = run_width_sweep(*c.idx, c.queries, /*repeats=*/3);
    ws.report["speedup_at_tile_width"] = ws.best_speedup;
    width_sweep_pass = ws.checks_pass;
    report["batch_width_sweep"] = std::move(ws.report);
  }

  // The synthetic clustered sweep (the tier-separating experiment).
  SweepConfig sc;
  sc.rows = g_flags.sweep_rows;
  const SweepOutcome sweep = run_sweep(sc, /*timing=*/true);
  report["sweep"] = sweep.report;

  std::ofstream out("BENCH_index.json");
  out << report.dump(2) << "\n";
  std::printf(
      "\nshape check: batched results identical to sequential search at "
      "1/2/8 threads for all index kinds: %s\n",
      all_deterministic ? "PASS" : "FAIL");
  std::printf("query-batch-width sweep checks: %s\n",
              width_sweep_pass ? "PASS" : "FAIL");
  std::printf("sweep shape checks: %s\n",
              sweep.checks_pass ? "PASS" : "FAIL");
  std::printf("wrote BENCH_index.json\n");
  return all_deterministic && width_sweep_pass && sweep.checks_pass;
}

}  // namespace

int main(int argc, char** argv) {
  parse_flags(&argc, argv);
  const bool smoke = mcqa::bench::parse_args(&argc, argv);
  std::printf(
      "Index ablation (A1): recall@10 vs throughput vs bytes/vector — "
      "flat plus the quantized tier (IVF-PQ with exact fp16 rerank), "
      "resident and mmap.\n"
      "Similarity kernels: blocked fixed-lane-order (see DESIGN.md); "
      "top-k via bounded heap; batched path fans across the thread "
      "pool.\n\n");
  if (smoke) return run_smoke();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_bench_json() ? 0 : 1;
}
