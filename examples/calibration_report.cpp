// Calibration report: measured accuracy vs. the paper's published
// numbers for every cell of Tables 2, 3 and 4.
//
//   ./build/examples/calibration_report [scale]
//
// Prints measured/paper pairs and the mean absolute deviation per table.
// This is the tool used to tune the student profiles; the benches print
// the same comparisons in their final form.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "core/eval_cache.hpp"
#include "core/pipeline.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using mcqa::rag::Condition;

// Paper Table 2 (synthetic benchmark).
const std::map<std::string, std::array<double, 5>> kTable2 = {
    {"OLMo-7B", {0.380, 0.443, 0.709, 0.736, 0.720}},
    {"TinyLlama-1.1B-Chat", {0.176, 0.434, 0.710, 0.699, 0.581}},
    {"Gemma 3 4B-IT", {0.745, 0.837, 0.860, 0.878, 0.873}},
    {"SmolLM3-3B", {0.471, 0.803, 0.826, 0.854, 0.856}},
    {"Mistral-7B-Instruct-v0.3", {0.737, 0.839, 0.886, 0.889, 0.882}},
    {"Llama-3-8B-Instruct", {0.830, 0.864, 0.875, 0.892, 0.897}},
    {"Llama-3.1-8B-Instruct", {0.819, 0.900, 0.915, 0.902, 0.916}},
    {"Qwen-1.5-14B-Chat", {0.776, 0.853, 0.913, 0.908, 0.914}},
};

// Paper Table 3 (Astro all): baseline, chunks, best-of-traces.
const std::map<std::string, std::array<double, 3>> kTable3 = {
    {"OLMo-7B", {0.446, 0.269, 0.563}},
    {"TinyLlama-1.1B-Chat", {0.089, 0.263, 0.319}},
    {"Gemma 3 4B-IT", {0.484, 0.551, 0.605}},
    {"SmolLM3-3B", {0.377, 0.706, 0.772}},
    {"Mistral-7B-Instruct-v0.3", {0.494, 0.542, 0.575}},
    {"Llama-3-8B-Instruct", {0.665, 0.674, 0.542}},
    {"Llama-3.1-8B-Instruct", {0.644, 0.704, 0.686}},
    {"Qwen-1.5-14B-Chat", {0.560, 0.587, 0.602}},
};

// Paper Table 4 (Astro no-math subset).
const std::map<std::string, std::array<double, 3>> kTable4 = {
    {"OLMo-7B", {0.471, 0.238, 0.587}},
    {"TinyLlama-1.1B-Chat", {0.138, 0.259, 0.312}},
    {"Gemma 3 4B-IT", {0.540, 0.640, 0.804}},
    {"SmolLM3-3B", {0.466, 0.751, 0.894}},
    {"Mistral-7B-Instruct-v0.3", {0.598, 0.614, 0.757}},
    {"Llama-3-8B-Instruct", {0.757, 0.730, 0.804}},
    {"Llama-3.1-8B-Instruct", {0.762, 0.783, 0.857}},
    {"Qwen-1.5-14B-Chat", {0.667, 0.667, 0.825}},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mcqa;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.025;
  const core::PipelineContext ctx(core::PipelineConfig::paper_scale(scale));

  // One pool for all three sweeps; when $MCQA_CHECKPOINT_DIR is set the
  // eval-cell cache makes warm re-runs (the common case while tuning
  // one profile) skip the unchanged cells entirely.
  parallel::ThreadPool pool(0);
  const auto harness_for = [&ctx, &pool](
      const std::vector<qgen::McqRecord>& records,
      std::unique_ptr<core::EvalCellCache>& cache) {
    eval::HarnessConfig hc;
    hc.pool = &pool;
    if (!ctx.config().checkpoint_dir.empty()) {
      cache = std::make_unique<core::EvalCellCache>(
          ctx.config().checkpoint_dir,
          core::EvalCellCache::sweep_key(ctx, records),
          core::EvalCellCache::group_base_key(ctx));
      hc.cell_cache = cache.get();
    }
    return eval::EvalHarness(ctx.rag(), hc);
  };

  std::printf("benchmark=%zu questions, exam=%zu/%zu (all/no-math)\n\n",
              ctx.benchmark().size(), ctx.exam_all().size(),
              ctx.exam_no_math().size());

  double dev2 = 0.0;
  int n2 = 0;
  std::printf("=== Table 2: synthetic (measured/paper) ===\n");
  std::unique_ptr<core::EvalCellCache> cache2;
  const auto sweep2 =
      harness_for(ctx.benchmark(), cache2)
          .sweep(ctx.student_ptrs(), ctx.student_specs(), ctx.benchmark(),
                 eval::all_conditions());
  for (const auto& card : llm::student_registry()) {
    const auto& paper = kTable2.at(card.spec.name);
    std::printf("%-26s", card.spec.name.c_str());
    int i = 0;
    for (const auto c : eval::all_conditions()) {
      const double m = sweep2.at(card.spec.name, c).value();
      std::printf("  %.3f/%.3f", m, paper[i]);
      dev2 += std::fabs(m - paper[i]);
      ++n2;
      ++i;
    }
    std::printf("\n");
  }
  std::printf("Table 2 mean |dev| = %.3f\n\n", dev2 / n2);

  const auto report_exam = [&](const char* title,
                               const std::vector<qgen::McqRecord>& records,
                               const std::map<std::string,
                                              std::array<double, 3>>& paper) {
    double dev = 0.0;
    int n = 0;
    std::printf("=== %s: baseline, chunks, RT-best (measured/paper) ===\n",
                title);
    std::unique_ptr<core::EvalCellCache> cache;
    const auto sweep =
        harness_for(records, cache)
            .sweep(ctx.student_ptrs(), ctx.student_specs(), records,
                   eval::all_conditions());
    for (const auto& card : llm::student_registry()) {
      const auto& p = paper.at(card.spec.name);
      const double base =
          sweep.at(card.spec.name, Condition::kBaseline).value();
      const double chunks =
          sweep.at(card.spec.name, Condition::kChunks).value();
      const double best = sweep.best_trace(card.spec.name).second.value();
      std::printf("%-26s  %.3f/%.3f  %.3f/%.3f  %.3f/%.3f\n",
                  card.spec.name.c_str(), base, p[0], chunks, p[1], best,
                  p[2]);
      dev += std::fabs(base - p[0]) + std::fabs(chunks - p[1]) +
             std::fabs(best - p[2]);
      n += 3;
    }
    std::printf("%s mean |dev| = %.3f\n\n", title, dev / n);
  };

  report_exam("Table 3 (Astro all)", ctx.exam_all(), kTable3);
  report_exam("Table 4 (Astro no-math)", ctx.exam_no_math(), kTable4);
  return 0;
}
