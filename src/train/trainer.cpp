#include "train/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "index/kernels.hpp"
#include "index/vector_index.hpp"  // completes SearchResult for kernels.hpp
#include "parallel/thread_pool.hpp"
#include "text/bpe_cache.hpp"
#include "train/batching.hpp"
#include "util/hash.hpp"

namespace mcqa::train {

namespace {

constexpr std::size_t kLanes = index::kernels::kLanes;

std::uint64_t hash_f64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return util::hash_combine(h, util::fnv1a64(bits));
}

/// The fixed lane-combination tree from index/kernels: the ONLY order
/// in which per-lane partials become a total.
double tree8(const double* lane) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

float tree8f(const float* lane) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/// Scratch for one example's forward/backward pass (per lane, reused).
struct LaneScratch {
  std::vector<float> h;            // prediction vector
  std::vector<float> dh;           // dLoss/dh
  std::vector<double> class_score; // class logits
  std::vector<double> word_score;  // member logits
  std::vector<std::uint32_t> hist; // BOS-padded history window
};

/// Accumulate the gradient of -log P(target | history) into `grad`
/// (same layout as model.params()).  Returns the example loss.
double accumulate_example(const LblModel& model,
                          const std::vector<std::uint32_t>& stream,
                          std::size_t position, float* grad,
                          LaneScratch& scratch) {
  const LblConfig& cfg = model.config();
  const std::size_t dim = cfg.dim;
  const std::size_t n = cfg.context;
  const std::uint32_t target = stream[position];

  scratch.hist.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::ptrdiff_t idx =
        static_cast<std::ptrdiff_t>(position) - static_cast<std::ptrdiff_t>(n) +
        static_cast<std::ptrdiff_t>(j);
    scratch.hist[j] = idx < 0 ? model.bos_id()
                              : stream[static_cast<std::size_t>(idx)];
  }

  scratch.h.resize(dim);
  scratch.dh.assign(dim, 0.0f);
  model.context_vector(scratch.hist.data(), scratch.h.data());
  const float* h = scratch.h.data();
  float* dh = scratch.dh.data();

  const float* params = model.params().data();
  const float* s = params + model.s_offset();
  const float* t = params + model.t_offset();
  const float* r = params + model.r_offset();
  const float* b = params + model.b_offset();
  const float* q = params + model.q_offset();
  const float* pos = params + model.pos_offset();
  float* g_s = grad + model.s_offset();
  float* g_t = grad + model.t_offset();
  float* g_r = grad + model.r_offset();
  float* g_b = grad + model.b_offset();
  float* g_q = grad + model.q_offset();
  float* g_pos = grad + model.pos_offset();

  // --- class level -----------------------------------------------------------
  const std::size_t classes = model.class_count();
  const std::uint32_t cls = model.class_of(target);
  scratch.class_score.resize(classes);
  double max_score = -1e30;
  for (std::size_t c = 0; c < classes; ++c) {
    const double v =
        static_cast<double>(index::kernels::dot(h, s + c * dim, dim)) +
        static_cast<double>(t[c]);
    scratch.class_score[c] = v;
    if (v > max_score) max_score = v;
  }
  double denom = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    denom += std::exp(scratch.class_score[c] - max_score);
  }
  double loss = -(scratch.class_score[cls] - max_score - std::log(denom));
  for (std::size_t c = 0; c < classes; ++c) {
    const float f = static_cast<float>(
        std::exp(scratch.class_score[c] - max_score) / denom -
        (c == cls ? 1.0 : 0.0));
    g_t[c] += f;
    const float* s_row = s + c * dim;
    float* gs_row = g_s + c * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      gs_row[d] += f * h[d];
      dh[d] += f * s_row[d];
    }
  }

  // --- word level (within the target's class) --------------------------------
  const std::uint32_t* members = model.class_begin(cls);
  const std::size_t member_count = model.class_size(cls);
  scratch.word_score.resize(member_count);
  double word_max = -1e30;
  double target_score = 0.0;
  for (std::size_t i = 0; i < member_count; ++i) {
    const std::uint32_t w = members[i];
    const double v =
        static_cast<double>(index::kernels::dot(h, r + w * dim, dim)) +
        static_cast<double>(b[w]);
    scratch.word_score[i] = v;
    if (v > word_max) word_max = v;
    if (w == target) target_score = v;
  }
  double word_denom = 0.0;
  for (std::size_t i = 0; i < member_count; ++i) {
    word_denom += std::exp(scratch.word_score[i] - word_max);
  }
  loss += -(target_score - word_max - std::log(word_denom));
  for (std::size_t i = 0; i < member_count; ++i) {
    const std::uint32_t w = members[i];
    const float f = static_cast<float>(
        std::exp(scratch.word_score[i] - word_max) / word_denom -
        (w == target ? 1.0 : 0.0));
    g_b[w] += f;
    const float* r_row = r + w * dim;
    float* gr_row = g_r + w * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      gr_row[d] += f * h[d];
      dh[d] += f * r_row[d];
    }
  }

  // --- context level ---------------------------------------------------------
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t w = scratch.hist[j];
    const float* q_row = q + w * dim;
    const float* p_row = pos + j * dim;
    float* gq_row = g_q + w * dim;
    float* gp_row = g_pos + j * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      gp_row[d] += dh[d] * q_row[d];
      gq_row[d] += dh[d] * p_row[d];
    }
  }
  return loss;
}

}  // namespace

std::uint64_t fingerprint(const TrainConfig& config) {
  std::uint64_t h = util::fnv1a64("lbl-train-config");
  h = util::hash_combine(h, fingerprint(config.model));
  h = util::hash_combine(h, util::fnv1a64(config.bpe_vocab));
  h = util::hash_combine(h, util::fnv1a64(config.epochs));
  h = util::hash_combine(h, util::fnv1a64(config.minibatch));
  h = hash_f64(h, config.step_size);
  h = hash_f64(h, config.l2);
  h = hash_f64(h, config.held_out_fraction);
  h = util::hash_combine(h, util::fnv1a64(config.seed));
  return h;
}

double stream_perplexity(const LblModel& model,
                         const std::vector<std::uint32_t>& stream,
                         std::size_t begin, std::size_t end) {
  end = std::min(end, stream.size());
  if (begin >= end) return 0.0;
  double lane_sum[kLanes] = {0.0};
  for (std::size_t p = begin; p < end; ++p) {
    const std::size_t n = model.config().context;
    std::uint32_t hist[64];
    for (std::size_t j = 0; j < n; ++j) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(p) -
                                 static_cast<std::ptrdiff_t>(n) +
                                 static_cast<std::ptrdiff_t>(j);
      hist[j] =
          idx < 0 ? model.bos_id() : stream[static_cast<std::size_t>(idx)];
    }
    lane_sum[(p - begin) % kLanes] += -model.log_prob(hist, stream[p]);
  }
  const double mean = tree8(lane_sum) / static_cast<double>(end - begin);
  return std::exp(mean);
}

TrainedLm train_lbl(std::string_view text, const TrainConfig& config,
                    parallel::ThreadPool& pool) {
  TrainedLm out;
  out.bpe = text::shared_bpe(text, config.bpe_vocab);
  const std::vector<std::uint32_t> stream = out.bpe->encode(text);

  const std::size_t held_out = std::min(
      stream.size(),
      static_cast<std::size_t>(static_cast<double>(stream.size()) *
                               std::clamp(config.held_out_fraction, 0.0, 0.9)));
  const std::size_t train_n = stream.size() - held_out;

  out.model = LblModel::init(config.model, out.bpe->vocab_size());
  out.report.train_tokens = train_n;
  out.report.held_out_tokens = held_out;
  out.report.epochs = config.epochs;

  std::vector<float>& params = out.model.params();
  const std::size_t psize = params.size();

  // Dense per-lane gradient buffers, allocated once.
  std::vector<std::vector<float>> lane_grad(kLanes);
  for (auto& g : lane_grad) g.assign(psize, 0.0f);
  std::vector<LaneScratch> scratch(kLanes);

  const float step = static_cast<float>(config.step_size);
  const float decay = static_cast<float>(config.step_size * config.l2);

  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config.epochs && train_n > 0; ++epoch) {
    const MinibatchSchedule schedule(train_n, config.minibatch, config.seed,
                                     epoch);
    double epoch_loss_lane[kLanes] = {0.0};
    for (std::size_t mb = 0; mb < schedule.minibatch_count(); ++mb) {
      const std::uint32_t* batch = schedule.batch_begin(mb);
      const std::size_t batch_n = schedule.batch_size(mb);
      double loss_lane[kLanes] = {0.0};

      // Lane fan-out: lane l owns examples l, l+kLanes, ... of the
      // slice and accumulates them sequentially into its own buffer —
      // the pool decides when a lane runs, never what it sums.
      parallel::parallel_for(
          pool, 0, kLanes,
          [&](std::size_t lane) {
            float* grad = lane_grad[lane].data();
            std::memset(grad, 0, psize * sizeof(float));
            double loss = 0.0;
            for (std::size_t i = lane; i < batch_n; i += kLanes) {
              loss += accumulate_example(out.model, stream, batch[i], grad,
                                         scratch[lane]);
            }
            loss_lane[lane] = loss;
          },
          /*grain=*/1);
      for (std::size_t l = 0; l < kLanes; ++l) {
        epoch_loss_lane[l] += loss_lane[l];
      }

      // Fixed-tree reduction + SGD step, element-parallel (each element
      // is independent, so chunking cannot change any sum).
      const float inv_batch = 1.0f / static_cast<float>(batch_n);
      parallel::parallel_for(
          pool, 0, psize, [&](std::size_t i) {
            float lanes[kLanes];
            for (std::size_t l = 0; l < kLanes; ++l) {
              lanes[l] = lane_grad[l][i];
            }
            const float g = tree8f(lanes) * inv_batch;
            params[i] -= step * g + decay * params[i];
          },
          /*grain=*/4096);
      ++out.report.minibatches;
    }
    last_epoch_loss =
        tree8(epoch_loss_lane) / static_cast<double>(train_n);
  }
  out.report.final_epoch_loss = last_epoch_loss;
  out.report.held_out_perplexity =
      stream_perplexity(out.model, stream, train_n, stream.size());
  return out;
}

}  // namespace mcqa::train
