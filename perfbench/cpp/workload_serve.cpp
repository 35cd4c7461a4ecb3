// serve_mixed: closed-loop readers beside a live writer in one process.
//
// kReaders client threads replay a seeded serve::synth_workload trace,
// each sending its next request when the previous one returns.  A
// request embeds its query, retrieves (chunk requests from the current
// LiveStore snapshot, trace requests through a kShards-shard
// QueryRouter) and assembles the task with RagPipeline::prepare_from_hits.
// One writer thread upserts existing chunk ids at kUpsertsPerSecond and
// publishes every kPublishEvery rows, so the live row count stays
// constant while epochs are published and compacted under the readers.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/engine.hpp"
#include "serve/live_store.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kReaders = 3;
constexpr std::size_t kShards = 4;
/// The write rate of bench_serve's rolling-update check (8 appends per
/// 10 ms tick), the only write mix the repository defines; no production
/// write rate has been measured.
constexpr double kUpsertsPerSecond = 800.0;
constexpr std::size_t kPublishEvery = 32;
constexpr std::size_t kTraceRequests = 4096;
/// Per reader: a checked sample every kSampleEvery requests, at most
/// kFrozenSamples of frozen-condition requests and kLiveSamples of live
/// ones (each pins its snapshot until the checks run).
constexpr std::size_t kSampleEvery = 97;
constexpr std::size_t kFrozenSamples = 24;
constexpr std::size_t kLiveSamples = 2;

/// Pin a client thread (reader or writer, never a program thread) to
/// the `slot`-th allowed CPU when there is one per client, so the run
/// measures the serving code rather than where the scheduler first put
/// the clients.
void pin_client(std::thread& t, std::size_t slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  if (static_cast<std::size_t>(CPU_COUNT(&allowed)) < kReaders + 1) return;
  std::size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != slot) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(t.native_handle(), sizeof one, &one);
    return;
  }
}

bool same_hits(const std::vector<index::Hit>& a, const std::vector<index::Hit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].text != b[i].text || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

bool same_task(const llm::McqTask& a, const llm::McqTask& b) {
  return a.id == b.id && a.stem == b.stem && a.options == b.options &&
         a.context == b.context && a.correct_index == b.correct_index &&
         a.fact == b.fact && a.has_fact == b.has_fact && a.math == b.math &&
         a.fact_importance == b.fact_importance && a.ambiguity == b.ambiguity &&
         a.exam_item == b.exam_item && a.context_is_trace == b.context_is_trace &&
         a.context_is_terse == b.context_is_terse &&
         a.context_has_fact == b.context_has_fact &&
         a.context_saliency == b.context_saliency &&
         a.context_has_elimination == b.context_has_elimination &&
         a.context_has_worked_math == b.context_has_worked_math &&
         a.context_misleading_options == b.context_misleading_options &&
         a.context_mislead_strength == b.context_mislead_strength;
}

struct Sample {
  std::size_t request = 0;  ///< index into the trace
  std::shared_ptr<const serve::StoreSnapshot> snapshot;  ///< live requests
  std::vector<index::Hit> hits;
  llm::McqTask task;
};

struct Reader {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< completion time from the window start
  std::vector<Sample> samples;
  std::size_t live_samples = 0;
  std::size_t failures = 0;
};

struct ServeSetup {
  std::unique_ptr<core::PipelineContext> ctx;
  std::unique_ptr<serve::LiveStore> live;
  std::unique_ptr<serve::QueryRouter> router;
  std::vector<serve::QueryRequest> requests;
  llm::ModelSpec spec;
};

struct Window {
  std::vector<Reader> readers;
  std::vector<double> publish_ms;
  std::size_t publishes = 0;
  std::size_t compactions = 0;
  std::size_t writer_failures = 0;
  double wall_s = 0.0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

llm::McqTask serve_one(const ServeSetup& s, const serve::QueryRequest& req,
                       Sample* sample) {
  const Span request("request", Layer::kServe);
  const qgen::McqRecord& record = s.ctx->benchmark()[req.record];
  const rag::RagPipeline& rag = s.ctx->rag();
  std::vector<index::Hit> hits;
  if (req.condition != rag::Condition::kBaseline) {
    embed::Vector v;
    {
      const Span span("Embedder::embed", Layer::kEmbed);
      v = s.live->embedder().embed(rag.query_for(record, req.condition));
    }
    const std::size_t k = rag.config().top_k_for(req.condition);
    if (req.condition == rag::Condition::kChunks) {
      const auto snap = s.live->snapshot();
      {
        const Span span("StoreSnapshot::query_vector", Layer::kIndex);
        hits = snap->query_vector(v, k);
      }
      if (sample != nullptr) sample->snapshot = snap;
    } else {
      const Span span("ShardedStore::query_vector", Layer::kIndex);
      hits = s.router->store_for(req.condition)->query_vector(v, k);
    }
  }
  const Span span("RagPipeline::prepare_from_hits", Layer::kRag);
  llm::McqTask task = rag.prepare_from_hits(record, req.condition, s.spec, hits);
  if (sample != nullptr) sample->hits = std::move(hits);
  return task;
}

/// Run the readers and the writer for `seconds`, then stop and join
/// them.  Readers start at `cursor` in the trace (advanced on return).
Window serve_for(const ServeSetup& s, double seconds, std::uint64_t writer_seed,
                 std::size_t& cursor) {
  Window w;
  w.readers.resize(kReaders);
  std::atomic<bool> stop{false};
  const std::size_t compactions0 = s.live->compactions();
  const index::VectorStore& rows = s.ctx->chunk_store();

  const auto reader_body = [&](std::size_t r) {
    Reader& me = w.readers[r];
    std::size_t i = cursor + r;
    std::size_t served = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t at = i % s.requests.size();
      const serve::QueryRequest& req = s.requests[at];
      i += kReaders;
      const bool live = req.condition == rag::Condition::kChunks;
      const bool sample = ++served % kSampleEvery == 0 &&
                          (live ? me.live_samples < kLiveSamples
                                : me.samples.size() - me.live_samples < kFrozenSamples);
      Sample smp;
      const std::int64_t t0 = now_ns();
      try {
        llm::McqTask task = serve_one(s, req, sample ? &smp : nullptr);
        const std::int64_t t1 = now_ns();
        me.latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        me.done_s.push_back(static_cast<double>(t1 - w.t0_ns) * 1e-9);
        if (sample) {
          smp.request = at;
          smp.task = std::move(task);
          me.samples.push_back(std::move(smp));
          if (live) ++me.live_samples;
        }
      } catch (const std::exception&) {
        ++me.failures;
      }
    }
  };
  const auto writer_body = [&]() {
    util::Rng rng(writer_seed);
    const auto interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / kUpsertsPerSecond));
    auto due = std::chrono::steady_clock::now();
    std::size_t buffered = 0;
    try {
      while (!stop.load(std::memory_order_relaxed)) {
        due += interval;
        std::this_thread::sleep_until(due);
        const std::size_t row = rng.bounded(static_cast<std::uint32_t>(rows.size()));
        {
          const Span span("LiveStore::append", Layer::kServe);
          s.live->append(rows.id_of(row), rows.text_of(row));
        }
        if (++buffered < kPublishEvery) continue;
        buffered = 0;
        const std::int64_t t0 = now_ns();
        {
          const Span span("LiveStore::publish", Layer::kServe);
          s.live->publish();
        }
        w.publish_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
        ++w.publishes;
      }
    } catch (const std::exception&) {
      ++w.writer_failures;
    }
  };

  w.t0_ns = now_ns();
  const util::Stopwatch watch;
  {
    std::vector<std::thread> threads;
    threads.reserve(kReaders + 1);
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back(reader_body, r);
      pin_client(threads.back(), r);
    }
    threads.emplace_back(writer_body);
    pin_client(threads.back(), kReaders);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
  }
  w.wall_s = watch.seconds();
  w.t1_ns = now_ns();
  w.compactions = s.live->compactions() - compactions0;
  std::size_t most = 0;
  for (const Reader& r : w.readers) most = std::max(most, r.latency_ms.size());
  cursor += most * kReaders;
  return w;
}

/// Frozen-condition samples must equal RagPipeline::prepare; live samples
/// must equal a flat rebuild of their snapshot's live rows.
void check_samples(const ServeSetup& s, const Window& w, Report& report) {
  parallel::ThreadPool pool(kThreads);  // after the run: idle workers poll
  const rag::RagPipeline& rag = s.ctx->rag();
  bool frozen_ok = true;
  bool live_ok = true;
  std::size_t frozen = 0;
  std::map<std::uint64_t, std::unique_ptr<index::VectorStore>> rebuilt;
  for (const Reader& r : w.readers) {
    for (const Sample& smp : r.samples) {
      const serve::QueryRequest& req = s.requests[smp.request];
      const qgen::McqRecord& record = s.ctx->benchmark()[req.record];
      if (smp.snapshot == nullptr) {
        ++frozen;
        frozen_ok = frozen_ok &&
                    same_task(smp.task, rag.prepare(record, req.condition, s.spec));
        continue;
      }
      auto& store = rebuilt[smp.snapshot->epoch()];
      if (store == nullptr) {
        std::vector<std::string> ids;
        std::vector<std::string> texts;
        for (auto& [id, text] : smp.snapshot->live_rows()) {
          ids.push_back(std::move(id));
          texts.push_back(std::move(text));
        }
        store = std::make_unique<index::VectorStore>(s.live->embedder());
        store->add_batch(std::move(ids), std::move(texts), pool);
        store->build();
      }
      const auto hits = store->query(rag.query_for(record, req.condition),
                                     rag.config().top_k_for(req.condition));
      live_ok = live_ok && same_hits(smp.hits, hits) &&
                same_task(smp.task,
                          rag.prepare_from_hits(record, req.condition, s.spec, hits));
    }
  }
  report.check("frozen-condition tasks == RagPipeline::prepare", frozen_ok && frozen > 0);
  report.check("live answers == flat rebuild of their snapshot",
               live_ok && !rebuilt.empty());
  report.check("live row count constant under upserts",
               s.live->snapshot()->rows() == s.ctx->chunk_store().size());
  report.detail["checked_frozen_samples"] = frozen;
  report.detail["checked_live_snapshots"] = rebuilt.size();
}

std::vector<double> latencies(const Window& w) {
  std::vector<double> all;
  for (const Reader& r : w.readers) {
    all.insert(all.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  return all;
}

/// Latency p50, p99 and completions per second in each kWindowS window
/// of the run.  p50 and the rate are reported as their medians across
/// windows.  p99 is reported as the low quartile of the windows' p99s,
/// the tail a quiet quarter of the run reaches: the readers are pinned,
/// so a neighbour's burst on the shared host that lands on one of their
/// CPUs delays requests by whole scheduler slices, and a few such bursts
/// move a window's p99 several-fold.
constexpr double kWindowS = 0.5;

struct Windowed {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double per_s = 0.0;
  std::vector<double> window_p99_ms;
};

Windowed windowed(const Window& w) {
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(w.wall_s / kWindowS));
  std::vector<std::vector<double>> per(count);
  for (const Reader& r : w.readers) {
    for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
      const auto at = static_cast<std::size_t>(std::max(0.0, r.done_s[i] / kWindowS));
      per[std::min(at, count - 1)].push_back(r.latency_ms[i]);
    }
  }
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  for (std::size_t i = 0; i < count; ++i) {
    // The last window also holds the partial window after it.
    const double start = kWindowS * static_cast<double>(i);
    const double len = i + 1 == count ? w.wall_s - start : kWindowS;
    p50.push_back(quantile(per[i], 0.50));
    p99.push_back(quantile(per[i], 0.99));
    rate.push_back(static_cast<double>(per[i].size()) / len);
  }
  return {median(p50), quantile(p99, 0.25), median(rate), p99};
}

std::size_t failures(const Window& w) {
  std::size_t f = w.writer_failures;
  for (const Reader& r : w.readers) f += r.failures;
  return f;
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& report) {
  const Seeds seeds = derive_seeds(opt.seed);
  const core::PipelineConfig cfg = workload_config(seeds);
  ServeSetup s;
  double build_s = 0.0;
  const auto setup = [&]() {
    const util::Stopwatch watch;
    s.ctx = std::make_unique<core::PipelineContext>(cfg);
    build_s = watch.seconds();
    // Departs from the default SQ8 base: a flat base is exact at every
    // epoch, which the live-answer check (== a flat rebuild) needs; an SQ8
    // base is exact only with a candidate floor covering every row, which
    // would scan more than flat does.
    serve::LiveStoreConfig lcfg;
    lcfg.compact_kind = index::IndexKind::kFlat;
    s.live = std::make_unique<serve::LiveStore>(s.ctx->chunk_store(), lcfg);
    rag::RetrievalStores stores;
    stores.chunks = &s.ctx->chunk_store();
    for (int m = 0; m < trace::kTraceModeCount; ++m) {
      stores.traces[static_cast<std::size_t>(m)] =
          &s.ctx->trace_store(static_cast<trace::TraceMode>(m));
    }
    s.router = std::make_unique<serve::QueryRouter>(stores, kShards);
    serve::WorkloadConfig wl;
    wl.requests = kTraceRequests;
    wl.hot_fraction = 0.1;
    wl.seed = seeds.requests;
    s.requests = serve::synth_workload(wl, s.ctx->benchmark().size());
    s.spec = s.ctx->student_specs().front();
  };
  const double setup_s = time_s(setup);
  if (opt.trace) traced_build(cfg, artifact_digest(*s.ctx), build_s, report);

  std::size_t cursor = 0;
  if (!opt.trace) {
    const Window w = serve_for(s, opt.seconds, seeds.writer, cursor);
    const std::vector<double> lat = latencies(w);
    report.attempt(lat.size() + failures(w), failures(w));
    check_samples(s, w, report);
    const Windowed win = windowed(w);
    report.detail["requests"] = lat.size();
    report.detail["window_p99_ms"] =
        json::Value(json::Array(win.window_p99_ms.begin(), win.window_p99_ms.end()));
    report.detail["run_p50_ms"] = quantile(lat, 0.5);
    report.detail["run_p99_ms"] = quantile(lat, 0.99);
    report.detail["run_per_s"] = static_cast<double>(lat.size()) / w.wall_s;
    report.detail["publishes"] = w.publishes;
    report.detail["compactions"] = w.compactions;
    report_end_to_end(report, setup_s, win.p50_ms, win.p99_ms, win.per_s);
    return;
  }

  // Traced run: the first half untraced, the second half traced; the
  // latency difference is the tracing overhead.
  set_tracing(false);
  const Window plain = serve_for(s, opt.seconds / 2, seeds.writer, cursor);
  set_tracing(true);
  const Window traced = serve_for(s, opt.seconds / 2, seeds.writer + 1, cursor);
  report.export_until_ns = traced.t0_ns + (traced.t1_ns - traced.t0_ns) / 10;
  const std::vector<double> plain_lat = latencies(plain);
  const std::vector<double> traced_lat = latencies(traced);
  report.attempt(plain_lat.size() + traced_lat.size() + failures(plain) + failures(traced),
                 failures(plain) + failures(traced));
  check_samples(s, traced, report);

  const auto spans = spans_between(traced.t0_ns, traced.t1_ns);
  report_op_layers(report, spans, traced.wall_s, traced.wall_s);
  PerLayer& L = report.layers;
  L.op_traced_s = median(traced_lat) * 1e-3;
  L.op_overhead_frac = median(traced_lat) / median(plain_lat) - 1.0;
  double request_s = 0.0;
  double inside_s = 0.0;
  for (const SpanRecord& sp : spans) {
    const double d = static_cast<double>(sp.t1_ns - sp.t0_ns) * 1e-9;
    if (std::string_view(sp.name) == "request") {
      request_s += d;
    } else if (sp.layer != Layer::kServe) {
      inside_s += d;
    }
  }
  L.op_sum_frac = request_s > 0 ? inside_s / request_s : 0.0;
  L.live_epochs = static_cast<double>(traced.publishes);
  L.live_compactions = static_cast<double>(traced.compactions);

  const auto p = [&](const char* name, double q) {
    return quantile(durations_ms(spans, name), q);
  };
  report.detail["requests"] = traced_lat.size();
  report.detail["untraced_requests"] = plain_lat.size();
  report.detail["embed.query_ms_p50"] = p("Embedder::embed", 0.5);
  report.detail["index.scan_ms_p50"] = p("ShardedStore::query_vector", 0.5);
  report.detail["index.scan_ms_p99"] = p("ShardedStore::query_vector", 0.99);
  report.detail["index.live_scan_ms_p50"] = p("StoreSnapshot::query_vector", 0.5);
  report.detail["index.live_scan_ms_p99"] = p("StoreSnapshot::query_vector", 0.99);
  report.detail["rag.assemble_ms_p50"] = p("RagPipeline::prepare_from_hits", 0.5);
  report.detail["serve.live.publish_ms_p99"] = quantile(traced.publish_ms, 0.99);
  report.detail["serve.request_ms_p50"] = median(traced_lat);
  report.detail["serve.request_ms_p99"] = quantile(traced_lat, 0.99);
}

}  // namespace perfbench
