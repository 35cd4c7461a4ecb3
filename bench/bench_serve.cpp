// Online serving benchmark: the offline pipeline's stores answering
// requests through the serve engine (serve/engine.hpp) and the live
// tier (serve/live_store.hpp).
//
// Shape checks (smoke and full):
//   * sharded scatter-gather top-k bit-identical to the unsharded store
//     for shard counts {1,2,4,8} (chunk store and a trace store),
//   * served tasks fieldwise-identical to RagPipeline::prepare,
//   * served tasks identical across pool widths {1,2,4},
//   * every published LiveStore epoch bit-identical to a from-scratch
//     rebuild of its live rows, queried from 1/2/8 concurrent readers
//     (DESIGN.md §15).
// No check reads a clock.  Full mode adds steady-clock rows (wall
// time, requests/s, median tile time) at pool widths {1,2,4} and the
// live store's per-publish staleness rows to BENCH_serve.json.  For
// serving measured under a concurrent writer, see perfbench's
// serve_mixed workload.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "index/kernels.hpp"
#include "json/json.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/engine.hpp"
#include "serve/live_store.hpp"
#include "serve/sharded_store.hpp"
#include "util/histogram.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace mcqa;

bool g_all_pass = true;

void check(const char* name, bool pass) {
  std::printf("shape check: %-58s %s\n", name, pass ? "PASS" : "FAIL");
  g_all_pass = g_all_pass && pass;
}

rag::RetrievalStores context_stores(const core::PipelineContext& ctx) {
  rag::RetrievalStores stores;
  stores.chunks = &ctx.chunk_store();
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    stores.traces[static_cast<std::size_t>(m)] =
        &ctx.trace_store(static_cast<trace::TraceMode>(m));
  }
  return stores;
}

bool same_hits(const std::vector<index::Hit>& a,
               const std::vector<index::Hit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].text != b[i].text ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

bool same_task(const llm::McqTask& a, const llm::McqTask& b) {
  return a.id == b.id && a.stem == b.stem && a.options == b.options &&
         a.context == b.context && a.correct_index == b.correct_index &&
         a.fact == b.fact && a.has_fact == b.has_fact && a.math == b.math &&
         a.fact_importance == b.fact_importance &&
         a.ambiguity == b.ambiguity && a.exam_item == b.exam_item &&
         a.context_is_trace == b.context_is_trace &&
         a.context_is_terse == b.context_is_terse &&
         a.context_has_fact == b.context_has_fact &&
         a.context_saliency == b.context_saliency &&
         a.context_has_elimination == b.context_has_elimination &&
         a.context_has_worked_math == b.context_has_worked_math &&
         a.context_misleading_options == b.context_misleading_options &&
         a.context_mislead_strength == b.context_mislead_strength;
}

/// Sharded top-k must be bit-identical to the unsharded store for every
/// shard count — over real queries (record stems / renderings).
void check_shard_exactness(const core::PipelineContext& ctx,
                           const std::vector<qgen::McqRecord>& records) {
  const std::size_t queries = bench::smoke() ? 12 : 48;
  bool chunks_ok = true;
  bool traces_ok = true;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const serve::ShardedStore chunk_shards(ctx.chunk_store(), shards);
    const serve::ShardedStore trace_shards(
        ctx.trace_store(trace::TraceMode::kFocused), shards);
    for (std::size_t i = 0; i < std::min(queries, records.size()); ++i) {
      const auto& r = records[i];
      chunks_ok = chunks_ok &&
                  same_hits(chunk_shards.query(r.stem, 10),
                            ctx.chunk_store().query(r.stem, 10));
      traces_ok =
          traces_ok &&
          same_hits(trace_shards.query(r.question, 3),
                    ctx.trace_store(trace::TraceMode::kFocused)
                        .query(r.question, 3));
    }
  }
  check("sharded == unsharded top-k, chunk store, S in {1,2,4,8}",
        chunks_ok);
  check("sharded == unsharded top-k, trace store, S in {1,2,4,8}",
        traces_ok);
}

serve::WorkloadConfig workload() {
  serve::WorkloadConfig wl;
  wl.requests = bench::smoke() ? 160 : 512;
  return wl;
}

/// Served tasks must be fieldwise-identical to the offline prepare().
void check_task_identity(const core::PipelineContext& ctx,
                         const serve::QueryEngine& engine,
                         const std::vector<qgen::McqRecord>& records,
                         const llm::ModelSpec& spec) {
  const auto requests = serve::synth_workload(workload(), records.size());
  parallel::ThreadPool pool(4);
  const auto results = engine.serve(records, requests, pool);
  bool ok = results.size() == requests.size();
  for (std::size_t i = 0; ok && i < results.size(); ++i) {
    ok = same_task(results[i].task,
                   ctx.rag().prepare(records[requests[i].record],
                                     requests[i].condition, spec));
  }
  check("served tasks fieldwise == RagPipeline::prepare", ok);
}

/// Same tasks across runs and pool widths.
void check_pool_widths(const serve::QueryEngine& engine,
                       const std::vector<qgen::McqRecord>& records) {
  const auto requests = serve::synth_workload(workload(), records.size());
  parallel::ThreadPool pool_1(1);
  const auto want = engine.serve(records, requests, pool_1);
  bool ok = true;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    parallel::ThreadPool pool(threads);
    const auto got = engine.serve(records, requests, pool);
    ok = ok && got.size() == want.size();
    for (std::size_t i = 0; ok && i < got.size(); ++i) {
      ok = same_task(got[i].task, want[i].task);
    }
  }
  check("served tasks identical across runs and pool widths {1,2,4}", ok);
}

// --- live tier ---------------------------------------------------------------

index::VectorStore rebuild_store(const embed::Embedder& embedder,
                                 const serve::StoreSnapshot& snap) {
  index::VectorStore store(embedder);
  for (const auto& [id, text] : snap.live_rows()) store.add(id, text);
  store.build();
  return store;
}

/// Sustained rolling updates against a LiveStore seeded from the chunk
/// corpus: every published epoch must be bit-identical to a from-scratch
/// rebuild of its live rows, with the same snapshot queried from 1/2/8
/// concurrent readers.  Returns per-publish staleness rows for the JSON
/// report (pending mutations at publish, rows, segments, compactions).
json::Array check_live_epoch_identity(
    const core::PipelineContext& ctx,
    const std::vector<qgen::McqRecord>& records) {
  const embed::Embedder& embedder = ctx.chunk_store().embedder();
  serve::LiveStoreConfig lcfg;
  lcfg.compact_threshold = 48;
  serve::LiveStore live(ctx.chunk_store(), lcfg);

  const std::size_t ticks = bench::smoke() ? 6 : 16;
  const std::size_t appends = 8;
  const std::size_t queries = std::min<std::size_t>(records.size(), 12);
  bool ok = true;
  json::Array staleness_rows;
  std::vector<std::string> ids;  // appended ids eligible for tombstoning
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t j = 0; j < appends; ++j) {
      const std::size_t src = (t * appends + j) % ctx.chunk_store().size();
      std::string id = "upd_" + std::to_string(t) + "_" + std::to_string(j);
      live.append(id, std::string(ctx.chunk_store().text_of(src)) + " [rev " +
                          std::to_string(t) + "]");
      ids.push_back(std::move(id));
    }
    if (t % 3 == 2) live.tombstone(ids[(t / 3) * 5]);
    const std::size_t pending_before = live.pending();
    const auto snap = live.publish();
    const index::VectorStore oracle = rebuild_store(embedder, *snap);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      std::atomic<bool> all_ok{true};
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (std::size_t w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
          std::vector<std::string> texts;
          for (std::size_t i = w; i < queries; i += threads) {
            texts.push_back(records[i].stem);
            if (!same_hits(snap->query(records[i].stem, 10),
                           oracle.query(records[i].stem, 10))) {
              all_ok.store(false);
            }
          }
          // The tiled batch path must agree with the same oracle while
          // readers race each other through search_tiled over the
          // shared snapshot segments.
          const auto batched = snap->query_batch(texts, 10);
          for (std::size_t i = w, j = 0; i < queries; i += threads, ++j) {
            if (!same_hits(batched[j], oracle.query(records[i].stem, 10))) {
              all_ok.store(false);
            }
          }
        });
      }
      for (auto& th : pool) th.join();
      ok = ok && all_ok.load();
    }
    json::Value row = json::Value::object();
    row["tick"] = t;
    row["epoch"] = snap->epoch();
    row["pending_at_publish"] = pending_before;
    row["rows"] = snap->rows();
    row["delta_segments"] = snap->delta_segments();
    row["tombstones"] = snap->tombstones();
    row["compactions"] = live.compactions();
    staleness_rows.push_back(std::move(row));
  }
  ok = ok && live.compactions() > 0;  // the threshold actually crossed
  check("live epochs == from-scratch rebuild @ readers {1,2,8} "
        "(per-query + tiled batch)",
        ok);
  return staleness_rows;
}

}  // namespace

int main(int argc, char** argv) {
  mcqa::bench::parse_args(argc, argv);
  const auto& ctx = bench::shared_context();
  bench::print_scale_banner(ctx);

  const auto records = bench::smoke_subset(ctx.benchmark());
  const rag::RetrievalStores stores = context_stores(ctx);
  const llm::ModelSpec spec =
      llm::student_card("Llama-3.1-8B-Instruct").spec;

  check_shard_exactness(ctx, records);
  const serve::QueryEngine engine(ctx.rag(), stores, spec, 4);
  check_task_identity(ctx, engine, records, spec);
  check_pool_widths(engine, records);
  json::Array staleness_rows = check_live_epoch_identity(ctx, records);

  if (bench::smoke()) return g_all_pass ? 0 : 1;

  json::Value report = json::Value::object();
  report["bench"] = "serve";
  bench::add_kernel_metadata(report);
  report["records"] = records.size();
  report["chunk_rows"] = ctx.chunk_store().size();

  // Steady-clock rows: one serve of the workload per pool width.
  const auto requests = serve::synth_workload(workload(), records.size());
  std::printf("\nMeasured serving (%zu requests, 4 shards, tiles of %zu):"
              "\n\n",
              requests.size(), index::kernels::kTileQ);
  eval::TableWriter pool_table(
      {"Pool threads", "Wall", "Requests/s", "Median tile"});
  json::Array pool_rows;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    parallel::ThreadPool pool(threads);
    const util::Stopwatch watch;
    const auto results = engine.serve(records, requests, pool);
    const double wall_s = watch.seconds();
    util::Histogram tile_ms(0.0, 1.0, 1);  // exact quantiles ignore the bins
    for (const auto& r : results) tile_ms.add(r.tile_ms);
    const double per_s = static_cast<double>(results.size()) / wall_s;
    pool_table.add_row({std::to_string(threads),
                        eval::fmt_acc(wall_s * 1e3) + " ms",
                        eval::fmt_acc(per_s),
                        eval::fmt_acc(tile_ms.p50()) + " ms"});
    json::Value row = json::Value::object();
    row["pool_threads"] = threads;
    row["wall_s"] = wall_s;
    row["requests_per_s"] = per_s;
    row["tile_ms_p50"] = tile_ms.p50();
    pool_rows.push_back(std::move(row));
  }
  std::printf("%s\n", pool_table.render().c_str());
  report["pool_widths"] = json::Value(std::move(pool_rows));

  // Sustained rolling updates: staleness of the live store per publish.
  std::printf("Live store rolling updates (8 appends/tick, publish each "
              "tick):\n\n");
  eval::TableWriter live_table({"Tick", "Epoch", "Pending", "Rows",
                                "Deltas", "Tombstones", "Compactions"});
  for (const json::Value& row : staleness_rows) {
    live_table.add_row({std::to_string(row.at("tick").as_int()),
                        std::to_string(row.at("epoch").as_int()),
                        std::to_string(row.at("pending_at_publish").as_int()),
                        std::to_string(row.at("rows").as_int()),
                        std::to_string(row.at("delta_segments").as_int()),
                        std::to_string(row.at("tombstones").as_int()),
                        std::to_string(row.at("compactions").as_int())});
  }
  std::printf("%s\n", live_table.render().c_str());
  report["live_store"] = json::Value(std::move(staleness_rows));

  std::ofstream out("BENCH_serve.json");
  out << report.dump(2) << "\n";
  std::printf("wrote BENCH_serve.json\n");
  return g_all_pass ? 0 : 1;
}
