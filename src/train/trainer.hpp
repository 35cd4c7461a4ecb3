#pragma once
// Minibatch SGD trainer for the log-bilinear student (src/train's
// entry point).
//
// Determinism contract (the training-stack transpose of the
// index/kernels rule): trained weights are a pure function of
// (training text, TrainConfig) — byte-identical across runs and across
// pool thread counts.  Three mechanisms deliver that:
//
//   * seeded init — every weight drawn from util::Rng streams forked by
//     (table, row), and the BPE vocab + class map are deterministic
//     functions of the text;
//   * fixed minibatch order — each epoch walks a seeded permutation
//     (train/batching) sliced in order, so the update sequence never
//     depends on scheduling;
//   * fixed-lane gradient reduction — each minibatch splits across
//     kernels::kLanes == 8 gradient lanes (lane l accumulates examples
//     l, l+8, ... of the slice sequentially into its own dense buffer)
//     and the per-parameter lane sums combine in the kernels' fixed
//     tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) before the SGD step.
//     Threads only decide *when* a lane runs, never what it sums.
//
// Held-out evaluation reserves the stream tail before training and
// reduces per-example log probs through the same 8-lane tree, so the
// reported perplexity is as thread-count-stable as the weights.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "text/bpe.hpp"
#include "train/lbl_model.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::train {

struct TrainConfig {
  LblConfig model;
  std::size_t bpe_vocab = 1500;     ///< subword vocab budget
  std::size_t epochs = 3;           ///< full passes (0 = untrained init)
  std::size_t minibatch = 256;      ///< examples per SGD step
  double step_size = 0.3;           ///< SGD learning rate
  double l2 = 1e-6;                 ///< weight decay per step
  double held_out_fraction = 0.1;   ///< stream tail reserved for eval
  std::uint64_t seed = 29;          ///< minibatch-order stream seed
};

/// Stable fingerprint of every knob that changes trained bytes
/// (checkpoint keys, eval-cell keys; combine with the training-text
/// content hash).
std::uint64_t fingerprint(const TrainConfig& config);

struct TrainReport {
  std::size_t train_tokens = 0;
  std::size_t held_out_tokens = 0;
  std::size_t epochs = 0;
  std::size_t minibatches = 0;       ///< SGD steps taken in total
  double final_epoch_loss = 0.0;     ///< mean -log P, last epoch
  double held_out_perplexity = 0.0;  ///< exp of mean held-out -log P
};

/// A trained (or untrained-init, epochs == 0) model plus the tokenizer
/// it scores through and the training report.
struct TrainedLm {
  std::shared_ptr<const text::BpeTokenizer> bpe;
  LblModel model;
  TrainReport report;
};

/// Train on raw text.  `pool` hosts the gradient lanes; the result is
/// byte-identical for any pool width.
TrainedLm train_lbl(std::string_view text, const TrainConfig& config,
                    parallel::ThreadPool& pool);

/// Perplexity of `model` over a token stream window [begin, end),
/// reduced in the fixed 8-lane order.  Histories may reach back before
/// `begin` (BOS-padded at the stream start).
double stream_perplexity(const LblModel& model,
                         const std::vector<std::uint32_t>& stream,
                         std::size_t begin, std::size_t end);

}  // namespace mcqa::train
