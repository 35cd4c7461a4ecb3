#pragma once
// Trainable student backend: the 9th/10th roster rows.
//
// Wraps a src/train log-bilinear model behind the LanguageModel
// contract and answers MCQs exactly the way NgramLm does — likelihood
// ranking of each option continuation after the assembled prompt — so
// trace-trained vs chunk-trained comparisons isolate the *training
// medium*, not the answering mechanism.  Unlike the eight calibrated
// profiles this model has no simulation layer at all: it never reads
// McqTask's ground-truth fields, it just scores text it was trained on.
//
// Determinism: answers are a pure function of (training text,
// TrainedStudentConfig, task prompt) — the trainer's byte-identity
// contract (train/trainer.hpp) plus deterministic scoring.  The
// fingerprint() feeds the eval-cell cache so editing training text or
// config invalidates exactly this model's cells.

#include <string>
#include <string_view>

#include "llm/language_model.hpp"
#include "llm/model_spec.hpp"
#include "train/train_io.hpp"
#include "train/trainer.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::llm {

struct TrainedStudentConfig {
  train::TrainConfig train;
  std::string name = "lbl-lm";
};

class TrainedStudent final : public LanguageModel {
 public:
  /// Minibatch-SGD train on raw text (see train/trainer.hpp for the
  /// byte-identity contract).  epochs == 0 gives the untrained-init
  /// baseline: seeded weights, same tokenizer/classes, no SGD steps.
  /// The gradient lanes run on `pool`.
  static TrainedStudent train(std::string_view corpus_text,
                              TrainedStudentConfig config,
                              parallel::ThreadPool& pool);

  /// Warm restore from a serialize() blob (byte-identical to the cold
  /// train that produced it; throws on malformed blobs).  `fingerprint`
  /// is the train::trained_model_fingerprint of the (config, text) the
  /// blob was trained under — the caller's checkpoint key pins that.
  static TrainedStudent restore(std::string_view blob,
                                TrainedStudentConfig config,
                                std::uint64_t fingerprint);

  std::string serialize() const { return train::serialize_trained(lm_); }

  std::string_view name() const override { return config_.name; }

  /// Average per-token log probability of `text`.
  double log_prob(std::string_view text) const;

  /// Mean per-token score of `continuation` given the running context
  /// (NgramLm's convention, so the two backends rank alike).
  double continuation_log_prob(std::string_view prefix,
                               std::string_view continuation) const;

  AnswerResult answer(const McqTask& task) const override;

  const train::TrainReport& report() const { return lm_.report; }
  const train::LblModel& model() const { return lm_.model; }
  std::size_t vocab_size() const { return lm_.bpe->vocab_size(); }

  /// (config, training text) fingerprint for eval-cell keying
  /// (train::trained_model_fingerprint; stable across processes).
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Spec row for harness sweeps: parameter count measured, not
  /// calibrated.
  ModelSpec spec() const;

 private:
  TrainedStudent() = default;

  TrainedStudentConfig config_;
  train::TrainedLm lm_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace mcqa::llm
