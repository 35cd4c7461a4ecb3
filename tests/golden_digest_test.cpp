// Pinned golden digests: the byte-identity anchor for the build and
// for the evaluation grid over it.  Each artifact test cold-builds one
// configuration on 4 threads with checkpointing off and compares
// test::artifact_digest against a constant.  The constants were taken
// through the former staged build, where staged and dataflow builds, 1
// and 4 threads, scalar and AVX2 kernel dispatch, and checkpointed cold
// and warm builds all gave the same bytes.  The sweep test pins the
// frozen-8 grid over three record sets of the 0.025 semantic/flat
// build; its constants were the same at 1, 2 and 4 harness threads and
// under scalar kernel dispatch, and the benchmark sweep is still
// checked at each.  The served-task test pins the tasks
// the serve engine assembles over that build; its constant was taken
// through the engine's former simulated-clock batch plan, with every
// request completing, at 1, 2 and 4 pool threads and under scalar
// dispatch.  The graded-answer test pins the judge's extraction for
// every answer of the frozen-8 grid, at default and scalar dispatch.
// A change that moves one must say why in CHANGES.md.
//
// One TEST per configuration so `ctest -j` spreads them.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "artifact_digest.hpp"
#include "core/pipeline.hpp"
#include "eval/harness.hpp"
#include "eval/judge.hpp"
#include "index/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/engine.hpp"

namespace {

using namespace mcqa;
using core::PipelineConfig;
using core::PipelineContext;

PipelineConfig golden_config(double scale, bool semantic,
                             index::IndexKind kind) {
  PipelineConfig cfg = PipelineConfig::paper_scale(scale);
  cfg.checkpoint_dir.clear();
  cfg.semantic_chunking = semantic;
  cfg.index_kind = kind;
  cfg.threads = 4;
  return cfg;
}

std::uint64_t build_digest(const PipelineConfig& cfg) {
  const PipelineContext ctx(cfg);
  return test::artifact_digest(ctx);
}

constexpr auto kFlat = index::IndexKind::kFlat;
constexpr auto kIvfPq = index::IndexKind::kIvfPq;

TEST(GoldenDigest, Scale0010SemanticFlat) {
  EXPECT_EQ(build_digest(golden_config(0.010, true, kFlat)),
            0x3642a04d3e7f5b58ULL);
}

TEST(GoldenDigest, Scale0010SemanticIvfPq) {
  constexpr std::uint64_t kGolden = 0x76240a3e3b4baaccULL;
  PipelineConfig cfg = golden_config(0.010, true, kIvfPq);
  EXPECT_EQ(build_digest(cfg), kGolden);

  cfg.threads = 1;
  EXPECT_EQ(build_digest(cfg), kGolden) << "1 thread";

  cfg.threads = 4;
  namespace kernels = index::kernels;
  const kernels::KernelIsa active = kernels::dispatched_isa();
  ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kScalar));
  const std::uint64_t scalar = build_digest(cfg);
  kernels::set_dispatch_for_testing(active);
  EXPECT_EQ(scalar, kGolden) << "scalar dispatch";
}

TEST(GoldenDigest, Scale0010FixedFlat) {
  EXPECT_EQ(build_digest(golden_config(0.010, false, kFlat)),
            0xc977fd56ca0199caULL);
}

TEST(GoldenDigest, Scale0010FixedIvfPq) {
  EXPECT_EQ(build_digest(golden_config(0.010, false, kIvfPq)),
            0x20c841f57478a17cULL);
}

TEST(GoldenDigest, Scale0025SemanticFlat) {
  EXPECT_EQ(build_digest(golden_config(0.025, true, kFlat)),
            0x47f811a8d9b90108ULL);
}

TEST(GoldenDigest, Scale0025SemanticIvfPq) {
  EXPECT_EQ(build_digest(golden_config(0.025, true, kIvfPq)),
            0x047b46bde27847f4ULL);
}

TEST(GoldenDigest, Scale0025FixedFlat) {
  EXPECT_EQ(build_digest(golden_config(0.025, false, kFlat)),
            0x2703b1aa2d7b6cbcULL);
}

TEST(GoldenDigest, Scale0025FixedIvfPq) {
  EXPECT_EQ(build_digest(golden_config(0.025, false, kIvfPq)),
            0x73e9589501b8a8beULL);
}

// The frozen-8 students under all five conditions, no cell cache.  The
// sweep reaches RagPipeline::annotate (FactMatcher::contains on every
// prepared context), which the artifact digests do not cover.
TEST(GoldenDigest, Scale0025FrozenEightSweeps) {
  const PipelineContext ctx(golden_config(0.025, true, kFlat));
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  const auto conditions = eval::all_conditions();
  const auto digest_of = [&](const std::vector<qgen::McqRecord>& records,
                             std::size_t threads) {
    parallel::ThreadPool pool(threads);
    eval::HarnessConfig hc;
    hc.pool = &pool;
    const eval::EvalHarness harness(ctx.rag(), hc);
    return test::sweep_digest(
        harness.sweep(models, specs, records, conditions));
  };
  ASSERT_EQ(ctx.benchmark().size(), 531u);
  ASSERT_EQ(ctx.exam_all().size(), 335u);
  ASSERT_EQ(ctx.exam_no_math().size(), 185u);

  constexpr std::uint64_t kBenchmark = 0xe07105f4b125dbdaULL;
  EXPECT_EQ(digest_of(ctx.benchmark(), 4), kBenchmark);
  EXPECT_EQ(digest_of(ctx.exam_all(), 4), 0x9e8a175aa0173cf1ULL);
  EXPECT_EQ(digest_of(ctx.exam_no_math(), 4), 0x95090db8e1f6745cULL);
  EXPECT_EQ(digest_of(ctx.benchmark(), 1), kBenchmark) << "1 thread";
  EXPECT_EQ(digest_of(ctx.benchmark(), 2), kBenchmark) << "2 threads";
  namespace kernels = index::kernels;
  const kernels::KernelIsa active = kernels::dispatched_isa();
  ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kScalar));
  const std::uint64_t scalar = digest_of(ctx.benchmark(), 4);
  kernels::set_dispatch_for_testing(active);
  EXPECT_EQ(scalar, kBenchmark) << "scalar dispatch";
}

// Every graded answer of the frozen-8 grid over the benchmark, through
// a serial prepare -> answer -> grade loop that shares work as the grid
// does: each condition's hits are filled once, and each record is
// prepared once per distinct context cut.  The sweep digests pin
// per-cell tallies only, where two flipped extractions can cancel out;
// this pins the judge's extracted option of each (model, condition,
// record).  The constant was taken before the judge's bit-parallel
// rescue, at default and scalar dispatch.
TEST(GoldenDigest, Scale0025GradedAnswers) {
  const PipelineContext ctx(golden_config(0.025, true, kFlat));
  const auto models = ctx.student_ptrs();
  const auto specs = ctx.student_specs();
  std::vector<const llm::ModelSpec*> spec_ptrs;
  for (const llm::ModelSpec& spec : specs) spec_ptrs.push_back(&spec);
  const auto& records = ctx.benchmark();
  const auto conditions = eval::all_conditions();
  const rag::RagPipeline& rag = ctx.rag();
  const eval::Judge judge;
  const auto digest = [&] {
    // shared[c][i]: record i's tasks under condition c, one per cut.
    std::vector<std::vector<rag::SharedTasks>> shared(conditions.size());
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      rag::RetrievalPlan plan = rag.make_plan(records, conditions[c]);
      rag.fill_plan(plan, records, 0, records.size());
      for (std::size_t i = 0; i < records.size(); ++i) {
        shared[c].push_back(rag.prepare_shared(records[i], conditions[c],
                                               spec_ptrs, plan.hits_for(i)));
      }
    }
    std::uint64_t h = util::fnv1a64("graded");
    for (std::size_t m = 0; m < models.size(); ++m) {
      for (std::size_t c = 0; c < conditions.size(); ++c) {
        for (std::size_t i = 0; i < records.size(); ++i) {
          const rag::SharedTasks& s = shared[c][i];
          const llm::McqTask& task = s.tasks[s.task_of[m]];
          const trace::GradingResult g =
              judge.grade(task, models[m]->answer(task).text);
          h = util::hash_combine(h, util::fnv1a64(models[m]->name()));
          h = util::hash_combine(
              h, util::fnv1a64(static_cast<std::uint64_t>(conditions[c])));
          h = util::hash_combine(h, util::fnv1a64(records[i].record_id));
          h = util::hash_combine(
              h, util::fnv1a64(static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(g.extracted_option_number))));
        }
      }
    }
    return h;
  };

  constexpr std::uint64_t kGolden = 0x06687c7c507f3c82ULL;
  EXPECT_EQ(digest(), kGolden);
  namespace kernels = index::kernels;
  const kernels::KernelIsa active = kernels::dispatched_isa();
  ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kScalar));
  const std::uint64_t scalar = digest();
  kernels::set_dispatch_for_testing(active);
  EXPECT_EQ(scalar, kGolden) << "scalar dispatch";
}

// Tasks served through serve::QueryEngine over 4 shards: 512 seeded
// synth_workload requests, a tenth of them on one hot record.  Every
// served task equals RagPipeline::prepare's, so the digest depends on
// the build and the request sequence only, never on the pool width.
TEST(GoldenDigest, Scale0025ServedTasks) {
  const PipelineContext ctx(golden_config(0.025, true, kFlat));
  rag::RetrievalStores stores;
  stores.chunks = &ctx.chunk_store();
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    stores.traces[static_cast<std::size_t>(m)] =
        &ctx.trace_store(static_cast<trace::TraceMode>(m));
  }
  serve::WorkloadConfig wl;
  wl.requests = 512;
  wl.hot_fraction = 0.1;
  const auto requests = serve::synth_workload(wl, ctx.benchmark().size());
  const serve::QueryEngine engine(ctx.rag(), stores,
                                  ctx.student_specs().front(), 4);
  const auto digest_at = [&](std::size_t threads) {
    parallel::ThreadPool pool(threads);
    std::vector<llm::McqTask> tasks;
    for (auto& r : engine.serve(ctx.benchmark(), requests, pool)) {
      tasks.push_back(std::move(r.task));
    }
    return test::task_digest(tasks);
  };

  constexpr std::uint64_t kGolden = 0x3242e44a93de44f8ULL;
  EXPECT_EQ(digest_at(4), kGolden);
  EXPECT_EQ(digest_at(1), kGolden) << "1 thread";
  EXPECT_EQ(digest_at(2), kGolden) << "2 threads";
  namespace kernels = index::kernels;
  const kernels::KernelIsa active = kernels::dispatched_isa();
  ASSERT_TRUE(kernels::set_dispatch_for_testing(kernels::KernelIsa::kScalar));
  const std::uint64_t scalar = digest_at(4);
  kernels::set_dispatch_for_testing(active);
  EXPECT_EQ(scalar, kGolden) << "scalar dispatch";
}

TEST(GoldenDigest, Scale0008SemanticFlat) {
  EXPECT_EQ(build_digest(golden_config(0.008, true, kFlat)),
            test::kDigestScale0008);
}

}  // namespace
