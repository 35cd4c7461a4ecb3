// Pinned golden digests: the byte-identity anchor for the build and
// for the evaluation grid over it.  Each artifact test cold-builds one
// configuration on 4 threads with checkpointing off and compares
// test::artifact_digest against a constant.  The constants were taken
// through the former staged build, where staged and dataflow builds, 1
// and 4 threads, scalar and AVX2 kernel dispatch, and checkpointed cold
// and warm builds all gave the same bytes.  The sweep test pins the
// frozen-8 grid over three record sets of the 0.025 semantic/flat
// build; its constants were the same at 1, 2 and 4 harness threads and
// under scalar kernel dispatch.  A change that moves one must say why
// in CHANGES.md.
//
// One TEST per configuration so `ctest -j` spreads them.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "artifact_digest.hpp"
#include "core/pipeline.hpp"
#include "eval/harness.hpp"
#include "index/kernels.hpp"
#include "parallel/thread_pool.hpp"

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
}

TEST(GoldenDigest, Scale0008SemanticFlat) {
  EXPECT_EQ(build_digest(golden_config(0.008, true, kFlat)),
            test::kDigestScale0008);
}

}  // namespace
