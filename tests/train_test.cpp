// Trainable student subsystem (src/train + the 9th/10th roster rows):
//
//  * seeded init and the full SGD loop are byte-identical across
//    runs, across 1/2/8-thread pools, and across a serialize/restore
//    round trip (the lane-summation discipline from index/kernels,
//    transposed to gradient reduction);
//  * the class-factored softmax is a proper distribution and SGD
//    actually lowers held-out perplexity over the untrained init;
//  * TrainedStudent answers MCQs by likelihood ranking, preferring
//    continuations it was trained on;
//  * eval-cell keys for trainable models move with the (training
//    config, training data) fingerprint — flipping one training doc
//    invalidates exactly the trainable cells — and extending the sweep
//    roster leaves every frozen-8 cell byte-identical.
//
// Suites Train* also run under the tsan preset (minibatch lane fan-out
// and the element-parallel SGD step are a concurrency surface).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/pipeline.hpp"
#include "eval/harness.hpp"
#include "llm/trained_student.hpp"
#include "parallel/thread_pool.hpp"
#include "text/bpe_cache.hpp"
#include "train/batching.hpp"
#include "train/lbl_model.hpp"
#include "train/train_io.hpp"
#include "train/trainer.hpp"

namespace {

using namespace mcqa;

/// Small but non-trivial training text with a strongly repeated
/// pattern the model can learn.
std::string sample_text() {
  std::string text;
  for (int i = 0; i < 160; ++i) {
    text += "the spectral line of ionized helium appears in hot stars. ";
    text += "dust grains scatter blue light more than red light. ";
    text += "the answer is helium because the line is ionized helium. ";
  }
  return text;
}

train::TrainConfig small_config() {
  train::TrainConfig cfg;
  cfg.bpe_vocab = 300;
  cfg.model.dim = 16;
  cfg.epochs = 2;
  cfg.minibatch = 64;
  return cfg;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("mcqa-train-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

TEST(TrainLbl, SeededInitDeterministic) {
  train::LblConfig cfg;
  cfg.dim = 8;
  const train::LblModel a = train::LblModel::init(cfg, 50);
  const train::LblModel b = train::LblModel::init(cfg, 50);
  EXPECT_EQ(a.weights_digest(), b.weights_digest());
  EXPECT_EQ(a.params(), b.params());

  train::LblConfig other = cfg;
  other.seed = cfg.seed + 1;
  const train::LblModel c = train::LblModel::init(other, 50);
  EXPECT_NE(a.weights_digest(), c.weights_digest());

  // Equal-size contiguous classes: no corpus statistics in the
  // partition, every class non-empty, sizes differ by at most one.
  std::size_t lo = a.vocab_size(), hi = 0;
  for (std::uint32_t c = 0; c < a.class_count(); ++c) {
    lo = std::min(lo, a.class_size(c));
    hi = std::max(hi, a.class_size(c));
  }
  EXPECT_GE(lo, 1u);
  EXPECT_LE(hi - lo, 1u);
}

TEST(TrainLbl, ClassFactoredSoftmaxNormalized) {
  train::LblConfig cfg;
  cfg.dim = 8;
  const train::LblModel m = train::LblModel::init(cfg, 40);
  std::vector<std::uint32_t> hist(cfg.context, m.bos_id());
  hist.back() = 3;
  double total = 0.0;
  for (std::uint32_t w = 0; w < m.vocab_size(); ++w) {
    total += std::exp(m.log_prob(hist.data(), w));
  }
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(TrainLbl, MinibatchScheduleIsSeededPermutation) {
  const train::MinibatchSchedule s(100, 32, /*seed=*/9, /*epoch=*/1);
  EXPECT_EQ(s.minibatch_count(), 4u);  // 32+32+32+4
  std::vector<bool> seen(100, false);
  std::size_t n = 0;
  for (std::size_t mb = 0; mb < s.minibatch_count(); ++mb) {
    const std::uint32_t* begin = s.batch_begin(mb);
    for (std::size_t i = 0; i < s.batch_size(mb); ++i, ++n) {
      ASSERT_LT(begin[i], 100u);
      EXPECT_FALSE(seen[begin[i]]);
      seen[begin[i]] = true;
    }
  }
  EXPECT_EQ(n, 100u);
  // Same (seed, epoch) reproduces the order; the next epoch reshuffles.
  const train::MinibatchSchedule same(100, 32, 9, 1);
  EXPECT_EQ(same.batch_begin(0)[0], s.batch_begin(0)[0]);
  const train::MinibatchSchedule next(100, 32, 9, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < 32; ++i) {
    any_diff = any_diff || next.batch_begin(0)[i] != s.batch_begin(0)[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(TrainDeterminism, ByteIdenticalAcrossThreadCounts) {
  const std::string text = sample_text();
  const train::TrainConfig cfg = small_config();
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool2(2);
  parallel::ThreadPool pool8(8);
  const train::TrainedLm a = train::train_lbl(text, cfg, &pool1);
  const train::TrainedLm b = train::train_lbl(text, cfg, &pool2);
  const train::TrainedLm c = train::train_lbl(text, cfg, &pool8);
  EXPECT_EQ(a.model.weights_digest(), b.model.weights_digest());
  EXPECT_EQ(a.model.weights_digest(), c.model.weights_digest());
  EXPECT_EQ(a.model.params(), c.model.params());
  EXPECT_EQ(a.report.final_epoch_loss, c.report.final_epoch_loss);
  EXPECT_EQ(a.report.held_out_perplexity, c.report.held_out_perplexity);
  EXPECT_EQ(train::serialize_trained(a), train::serialize_trained(c));
}

TEST(TrainDeterminism, RunToRun) {
  const std::string text = sample_text();
  const train::TrainConfig cfg = small_config();
  const train::TrainedLm a = train::train_lbl(text, cfg);
  const train::TrainedLm b = train::train_lbl(text, cfg);
  EXPECT_EQ(train::serialize_trained(a), train::serialize_trained(b));
}

TEST(TrainDeterminism, WarmRestoreMatchesColdTrain) {
  const std::string text = sample_text();
  const train::TrainConfig cfg = small_config();
  const train::TrainedLm cold = train::train_lbl(text, cfg);
  const std::string blob = train::serialize_trained(cold);
  const train::TrainedLm warm = train::deserialize_trained(blob);
  EXPECT_EQ(cold.model.params(), warm.model.params());
  EXPECT_EQ(cold.report.held_out_perplexity, warm.report.held_out_perplexity);
  EXPECT_EQ(cold.bpe->vocab_size(), warm.bpe->vocab_size());
  // Round trip is a fixed point.
  EXPECT_EQ(blob, train::serialize_trained(warm));
  // Truncated blobs throw (callers treat that as a cache miss).
  EXPECT_THROW(train::deserialize_trained(
                   std::string_view(blob).substr(0, blob.size() / 2)),
               std::exception);
}

TEST(TrainIo, HostileSectionLengthThrows) {
  // Layout: magic line, then (u64 length, bytes) for the BPE section and
  // for the model section, then the report.  A model-section length of
  // 2^64 - pos wrapped `pos + n` to zero: the old check accepted it,
  // loaded the model from the rest of the blob and read the report from
  // the magic bytes.
  std::string blob =
      train::serialize_trained(train::train_lbl(sample_text(), small_config()));
  const std::size_t bpe_at = blob.find('\n') + 1;
  std::uint64_t bpe_len = 0;
  std::memcpy(&bpe_len, blob.data() + bpe_at, 8);
  const std::size_t model_at = bpe_at + 8 + bpe_len;
  const std::uint64_t hostile = 0 - static_cast<std::uint64_t>(model_at + 8);
  std::memcpy(blob.data() + model_at, &hostile, 8);
  EXPECT_THROW(train::deserialize_trained(blob), std::runtime_error);
}

TEST(TrainDeterminism, SgdLowersHeldOutPerplexity) {
  const std::string text = sample_text();
  const train::TrainConfig trained_cfg = small_config();
  train::TrainConfig untrained_cfg = trained_cfg;
  untrained_cfg.epochs = 0;
  const train::TrainedLm trained = train::train_lbl(text, trained_cfg);
  const train::TrainedLm untrained = train::train_lbl(text, untrained_cfg);
  EXPECT_LT(trained.report.held_out_perplexity,
            untrained.report.held_out_perplexity);
  EXPECT_GT(trained.report.minibatches, 0u);
  EXPECT_EQ(untrained.report.minibatches, 0u);
}

TEST(TrainStudent, AnswerPicksSeenContinuation) {
  llm::TrainedStudentConfig cfg;
  cfg.train = small_config();
  cfg.train.epochs = 6;
  cfg.name = "lbl-test";
  const llm::TrainedStudent student =
      llm::TrainedStudent::train(sample_text(), cfg);

  llm::McqTask task;
  task.stem = "the spectral line of ionized";
  task.options = {"granite", "helium", "plastic"};
  const llm::AnswerResult out = student.answer(task);
  EXPECT_EQ(out.chosen_index, 1);
  EXPECT_NE(out.text.find("(B)"), std::string::npos);
  EXPECT_NE(out.text.find("likelihood-ranked"), std::string::npos);
}

TEST(TrainStudent, RestoreAnswersIdentically) {
  llm::TrainedStudentConfig cfg;
  cfg.train = small_config();
  cfg.name = "lbl-test";
  const std::string text = sample_text();
  const llm::TrainedStudent cold = llm::TrainedStudent::train(text, cfg);
  const llm::TrainedStudent warm = llm::TrainedStudent::restore(
      cold.serialize(), cfg, cold.fingerprint());
  EXPECT_EQ(cold.fingerprint(), warm.fingerprint());

  llm::McqTask task;
  task.stem = "dust grains scatter";
  task.options = {"blue light", "gamma rays", "neutrinos", "sound"};
  const llm::AnswerResult a = cold.answer(task);
  const llm::AnswerResult b = warm.answer(task);
  EXPECT_EQ(a.chosen_index, b.chosen_index);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.confidence, b.confidence);
}

TEST(TrainBpeCache, SharedVocabSingleCodePath) {
  const std::string text = sample_text();
  const auto before = text::bpe_cache_stats();
  const auto a = text::shared_bpe(text, 300);
  const auto b = text::shared_bpe(text, 300);
  EXPECT_EQ(a.get(), b.get());  // one cached vocab per (corpus, budget)
  const auto c = text::shared_bpe(text, 310);
  EXPECT_NE(a.get(), c.get());  // budget is part of the key
  const auto after = text::bpe_cache_stats();
  EXPECT_GE(after.hits, before.hits + 1);
}

TEST(TrainCellKeys, FingerprintTracksConfigAndData) {
  const train::TrainConfig cfg = small_config();
  const std::string docs_a = "doc one.\ndoc two.\ndoc three.\n";
  const std::string docs_b = "doc one.\ndoc 2!\ndoc three.\n";  // one flipped
  const std::uint64_t fp_a = train::trained_model_fingerprint(cfg, docs_a);
  const std::uint64_t fp_b = train::trained_model_fingerprint(cfg, docs_b);
  EXPECT_NE(fp_a, fp_b);
  train::TrainConfig cfg2 = cfg;
  cfg2.epochs += 1;
  EXPECT_NE(fp_a, train::trained_model_fingerprint(cfg2, docs_a));
  // Stable across calls (it feeds persistent cache keys).
  EXPECT_EQ(fp_a, train::trained_model_fingerprint(cfg, docs_a));
}

TEST(TrainCellKeys, FlipTrainingDocInvalidatesOnlyTrainableCells) {
  TempDir dir;
  const core::EvalCellCache cache(dir.path.string(), /*sweep_key=*/42,
                                  /*group_base=*/43);
  eval::Accuracy acc;
  acc.correct = 3;
  acc.total = 5;

  const train::TrainConfig cfg = small_config();
  const std::string name = "lbl-cellkey-test";
  core::register_model_fingerprint(
      name, train::trained_model_fingerprint(cfg, "doc one.\ndoc two.\n"));

  cache.store("frozen-stub", rag::Condition::kBaseline, acc);
  cache.store(name, rag::Condition::kBaseline, acc);
  EXPECT_TRUE(cache.load("frozen-stub", rag::Condition::kBaseline, 5)
                  .has_value());
  EXPECT_TRUE(cache.load(name, rag::Condition::kBaseline, 5).has_value());

  // "Edit one training document": the trainable model's fingerprint
  // moves, so only its cells miss; the frozen row still hits.
  core::register_model_fingerprint(
      name, train::trained_model_fingerprint(cfg, "doc one.\ndoc 2!\n"));
  EXPECT_TRUE(cache.load("frozen-stub", rag::Condition::kBaseline, 5)
                  .has_value());
  EXPECT_FALSE(cache.load(name, rag::Condition::kBaseline, 5).has_value());

  core::register_model_fingerprint(name, 0);  // unregister for other tests
}

constexpr double kTestScale = 0.008;

const core::PipelineContext& test_context() {
  static const core::PipelineContext ctx([] {
    core::PipelineConfig cfg = core::PipelineConfig::paper_scale(kTestScale);
    cfg.threads = 4;
    cfg.checkpoint_dir.clear();
    return cfg;
  }());
  return ctx;
}

TEST(TrainRoster, FrozenCellBytesUnchangedByExtendedSweep) {
  const auto& ctx = test_context();
  std::vector<qgen::McqRecord> records = ctx.benchmark();
  if (records.size() > 16) records.resize(16);

  parallel::ThreadPool pool(4);
  eval::HarnessConfig hc;
  hc.pool = &pool;
  const eval::EvalHarness harness(ctx.rag(), hc);
  const auto conditions = eval::all_conditions();

  const eval::SweepResult frozen = harness.sweep(
      ctx.student_ptrs(), ctx.student_specs(), records, conditions);
  const eval::SweepResult extended = harness.sweep(
      ctx.extended_student_ptrs(), ctx.extended_student_specs(), records,
      conditions);

  // The extended grid appends rows; the frozen-8 prefix must be
  // byte-identical down to the serialized cell artifact.
  ASSERT_EQ(extended.cells.size(),
            frozen.cells.size() + 2 * conditions.size());
  for (std::size_t i = 0; i < frozen.cells.size(); ++i) {
    const auto& f = frozen.cells[i];
    const auto& e = extended.cells[i];
    core::EvalCellArtifact fa, ea;
    fa.model = f.model;
    fa.condition = static_cast<std::int64_t>(f.condition);
    fa.correct = f.accuracy.correct;
    fa.total = f.accuracy.total;
    fa.unparseable = f.accuracy.unparseable;
    ea.model = e.model;
    ea.condition = static_cast<std::int64_t>(e.condition);
    ea.correct = e.accuracy.correct;
    ea.total = e.accuracy.total;
    ea.unparseable = e.accuracy.unparseable;
    EXPECT_EQ(core::serialize_eval_cell(fa), core::serialize_eval_cell(ea));
  }

  // The appended rows are the trainable pair, in roster order, and
  // their fingerprints are registered for eval-cell keying.
  const auto& roster = ctx.trained_roster();
  EXPECT_EQ(extended.cells[frozen.cells.size()].model, roster.traces->name());
  EXPECT_EQ(core::registered_model_fingerprint(roster.traces->name()),
            roster.traces->fingerprint());
  EXPECT_EQ(core::registered_model_fingerprint(roster.chunks->name()),
            roster.chunks->fingerprint());
  EXPECT_NE(roster.traces->fingerprint(), roster.chunks->fingerprint());
}

TEST(TrainRoster, CheckpointWarmRestoreByteIdentical) {
  const std::string text = sample_text();
  const train::TrainConfig cfg = small_config();
  TempDir dir;
  const core::ArtifactCache cache(dir.path.string());
  const std::uint64_t key = train::trained_checkpoint_key(
      core::code_fingerprint(), cfg, text);

  // Cold: train and store, the way trained_roster() does.
  const train::TrainedLm cold = train::train_lbl(text, cfg);
  cache.store("trained-lbl", key, train::serialize_trained(cold));

  // Warm: the blob round-trips byte-identically.
  const auto blob = cache.load("trained-lbl", key);
  ASSERT_TRUE(blob.has_value());
  const train::TrainedLm warm = train::deserialize_trained(*blob);
  EXPECT_EQ(train::serialize_trained(warm), train::serialize_trained(cold));

  // A different config or different text keys elsewhere.
  train::TrainConfig other = cfg;
  other.step_size *= 2.0;
  EXPECT_NE(key, train::trained_checkpoint_key(core::code_fingerprint(),
                                               other, text));
  EXPECT_NE(key, train::trained_checkpoint_key(core::code_fingerprint(), cfg,
                                               text + "x"));
}

}  // namespace
