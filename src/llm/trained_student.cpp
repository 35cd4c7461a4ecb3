#include "llm/trained_student.hpp"

#include <cmath>
#include <vector>

namespace mcqa::llm {

namespace {

/// BOS-padded history window ending just before `upto` in `ids`.
std::vector<std::uint32_t> tail_window(const std::vector<std::uint32_t>& ids,
                                       std::size_t upto, std::size_t n,
                                       std::uint32_t bos) {
  std::vector<std::uint32_t> hist(n, bos);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t back = n - j;
    if (upto >= back) hist[j] = ids[upto - back];
  }
  return hist;
}

}  // namespace

TrainedStudent TrainedStudent::train(std::string_view corpus_text,
                                     TrainedStudentConfig config,
                                     parallel::ThreadPool& pool) {
  TrainedStudent out;
  out.fingerprint_ =
      train::trained_model_fingerprint(config.train, corpus_text);
  out.lm_ = train::train_lbl(corpus_text, config.train, pool);
  out.config_ = std::move(config);
  return out;
}

TrainedStudent TrainedStudent::restore(std::string_view blob,
                                       TrainedStudentConfig config,
                                       std::uint64_t fingerprint) {
  TrainedStudent out;
  out.lm_ = train::deserialize_trained(blob);
  out.config_ = std::move(config);
  out.fingerprint_ = fingerprint;
  return out;
}

double TrainedStudent::log_prob(std::string_view text) const {
  const auto ids = lm_.bpe->encode(text);
  if (ids.empty()) return -30.0;
  const std::size_t n = lm_.model.config().context;
  double total = 0.0;
  std::vector<std::uint32_t> hist;
  for (std::size_t p = 0; p < ids.size(); ++p) {
    hist = tail_window(ids, p, n, lm_.model.bos_id());
    total += lm_.model.log_prob(hist.data(), ids[p]);
  }
  return total / static_cast<double>(ids.size());
}

double TrainedStudent::continuation_log_prob(
    std::string_view prefix, std::string_view continuation) const {
  const auto prefix_ids = lm_.bpe->encode(prefix);
  const auto cont_ids = lm_.bpe->encode(continuation);
  if (cont_ids.empty()) return -30.0;
  const std::size_t n = lm_.model.config().context;
  const std::uint32_t bos = lm_.model.bos_id();

  // Rolling window seeded from the prefix tail; continuation tokens
  // then slide through it.
  std::vector<std::uint32_t> hist =
      tail_window(prefix_ids, prefix_ids.size(), n, bos);
  double total = 0.0;
  for (const std::uint32_t w : cont_ids) {
    total += lm_.model.log_prob(hist.data(), w);
    hist.erase(hist.begin());
    hist.push_back(w);
  }
  return total / static_cast<double>(cont_ids.size());
}

AnswerResult TrainedStudent::answer(const McqTask& task) const {
  AnswerResult out;
  if (task.options.empty()) {
    out.text = "(no options)";
    return out;
  }
  std::string prompt;
  if (!task.context.empty()) {
    prompt += task.context;
    prompt += "\n";
  }
  prompt += task.stem;
  prompt += " The answer is ";

  double best = -1e18;
  int best_idx = 0;
  std::vector<double> scores(task.options.size());
  for (std::size_t i = 0; i < task.options.size(); ++i) {
    const double s = continuation_log_prob(prompt, task.options[i]);
    scores[i] = s;
    if (s > best) {
      best = s;
      best_idx = static_cast<int>(i);
    }
  }
  out.chosen_index = best_idx;
  double denom = 0.0;
  for (const double s : scores) denom += std::exp(s - best);
  out.confidence = denom > 0.0 ? 1.0 / denom : 0.0;
  out.text = "Answer: (" + std::string(1, static_cast<char>('A' + best_idx)) +
             ") " + task.options[static_cast<std::size_t>(best_idx)] +
             ". (likelihood-ranked)";
  return out;
}

ModelSpec TrainedStudent::spec() const {
  ModelSpec s;
  s.name = config_.name;
  s.vendor = "in-tree";
  s.params_billions =
      static_cast<double>(lm_.model.param_count()) * 1e-9;
  s.release_year = 2026;
  s.context_window = 8192;
  return s;
}

}  // namespace mcqa::llm
