#include "llm/teacher_model.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace mcqa::llm {

TeacherModel::TeacherModel(const corpus::KnowledgeBase& kb,
                           const corpus::FactMatcher& matcher,
                           std::uint64_t seed)
    : kb_(kb), matcher_(matcher), seed_(seed) {}

std::optional<McqDraft> TeacherModel::generate_mcq(
    const chunk::Chunk& chunk) const {
  // Which KB facts survive in this chunk's text (post parse noise)?
  return generate_mcq(chunk, matcher_.match(chunk.text));
}

std::optional<McqDraft> TeacherModel::generate_mcq(
    const chunk::Chunk& chunk,
    const std::vector<corpus::FactId>& present) const {
  util::Rng rng(util::hash_combine(seed_, util::fnv1a64(chunk.chunk_id)));
  if (present.empty()) return std::nullopt;

  // Prefer important facts — the teacher prompt asks for educationally
  // valuable questions.
  std::vector<double> weights;
  weights.reserve(present.size());
  for (const corpus::FactId f : present) {
    weights.push_back(0.1 + kb_.fact(f).importance);
  }
  const std::size_t pick = rng.weighted_pick(weights);
  if (pick >= present.size()) return std::nullopt;
  const corpus::Fact& fact = kb_.fact(present[pick]);

  corpus::QuestionRealization real =
      corpus::realize_question(kb_, fact, rng, /*max_distractors=*/6);
  if (real.distractors.size() < 3) {
    return std::nullopt;  // can't build a credible option set
  }

  McqDraft draft;
  draft.stem = std::move(real.stem);
  draft.fact = fact.id;
  draft.math = real.math;
  draft.fact_importance = fact.importance;
  draft.key_principle = std::move(real.key_principle);

  // Assemble and shuffle options (1 correct + up to 6 distractors).
  draft.options.push_back(real.correct);
  for (auto& d : real.distractors) draft.options.push_back(std::move(d));
  std::vector<std::size_t> order(draft.options.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::string> shuffled(draft.options.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    shuffled[i] = std::move(draft.options[order[i]]);
    if (order[i] == 0) draft.correct_index = static_cast<int>(i);
  }
  draft.options = std::move(shuffled);
  return draft;
}

ScoreCheck TeacherModel::quality_check(const McqDraft& draft,
                                       const chunk::Chunk& chunk) const {
  util::Rng rng(util::hash_combine(seed_ ^ 0x71a9u,
                                   util::fnv1a64(chunk.chunk_id)));
  ScoreCheck check;

  // Structural floor: option count and stem health.
  double score = 3.0;
  std::string critique;
  if (draft.options.size() >= 7) {
    score += 1.0;
  } else {
    critique += "fewer than seven options; ";
  }
  if (draft.stem.size() >= 40) {
    score += 0.5;
  } else {
    critique += "stem too terse; ";
  }

  // Educational value tracks the probed fact's importance.
  score += 1.8 * draft.fact_importance;

  // Distractor plausibility: all options distinct and non-trivial.
  std::vector<std::string> sorted_opts = draft.options;
  std::sort(sorted_opts.begin(), sorted_opts.end());
  if (std::adjacent_find(sorted_opts.begin(), sorted_opts.end()) !=
      sorted_opts.end()) {
    score -= 2.0;
    critique += "duplicate options; ";
  }

  // Source-quality leakage: questions written from damaged text lose
  // clarity (mirrors GPT-4.1 rating garbled extractions poorly).
  if (chunk.text.find('\x01') != std::string::npos ||
      chunk.text.find("~HDR~") != std::string::npos) {
    score -= 1.5;
    critique += "source text artifacts; ";
  }

  // Judgement noise: the rating prompt is itself an LLM sample.  The
  // spread below, against the 7.0 threshold, reproduces the paper's
  // ~10% acceptance funnel at our corpus' fact density.
  score += rng.uniform(-1.2, 2.2);

  check.score = std::clamp(score, 1.0, 10.0);
  check.reasoning = critique.empty()
                        ? "clear stem, plausible distractors, educational"
                        : critique;
  return check;
}

ScoreCheck TeacherModel::relevance_check(const chunk::Chunk& chunk) const {
  return relevance_check(chunk, matcher_.match(chunk.text).size());
}

ScoreCheck TeacherModel::relevance_check(const chunk::Chunk& chunk,
                                         std::size_t fact_count) const {
  util::Rng rng(util::hash_combine(seed_ ^ 0x52e1u,
                                   util::fnv1a64(chunk.chunk_id)));
  ScoreCheck check;
  double score =
      4.0 + 1.6 * static_cast<double>(std::min<std::size_t>(fact_count, 3));
  score += rng.uniform(-0.8, 0.8);
  check.score = std::clamp(score, 1.0, 10.0);
  check.reasoning = fact_count > 0
                        ? "chunk asserts domain mechanisms relevant to "
                          "radiation and cancer biology"
                        : "chunk is methodological boilerplate with little "
                          "domain content";
  return check;
}

std::string TeacherModel::explain_fact(corpus::FactId fact) const {
  const corpus::Fact& f = kb_.fact(fact);
  std::string out = corpus::realize_statement(kb_, f, 0);
  if (f.quantitative) {
    out += " This value is the anchor for the quantitative comparison.";
  } else {
    out += " This relationship is well established across irradiated "
           "model systems.";
  }
  return out;
}

std::string TeacherModel::dismiss_option(const McqDraft& draft,
                                         int option) const {
  if (option < 0 || option >= static_cast<int>(draft.options.size())) {
    return "not applicable";
  }
  const std::string& text = draft.options[static_cast<std::size_t>(option)];
  if (option == draft.correct_index) {
    return text + " matches the established relationship.";
  }
  // Targeted refutation: the oracle checks the KB and states the miss.
  const auto entity = kb_.find_entity(text);
  if (entity.has_value()) {
    return text +
           " participates in other pathways but the literature does not "
           "support this specific relationship.";
  }
  return text + " is numerically inconsistent with the reported value.";
}

AnswerResult TeacherModel::answer(const McqTask& task) const {
  util::Rng rng(util::hash_combine(seed_ ^ 0x7e4cu, util::fnv1a64(task.id)));
  AnswerResult out;
  // Near-ceiling: the oracle misses only occasionally on math items
  // (transcription-style errors), mirroring a frontier model's profile.
  const double p_correct = task.math ? 0.93 : 0.985;
  int choice = task.correct_index;
  if (!rng.chance(p_correct) && !task.options.empty()) {
    choice = static_cast<int>(
        rng.bounded(static_cast<std::uint32_t>(task.options.size())));
  }
  out.chosen_index = choice;
  out.confidence = 0.97;
  out.text = "Answer: (" + std::string(1, static_cast<char>('A' + choice)) +
             ") " +
             (choice >= 0 && choice < static_cast<int>(task.options.size())
                  ? task.options[static_cast<std::size_t>(choice)]
                  : "") +
             ". The underlying mechanism is well characterized.";
  return out;
}

}  // namespace mcqa::llm
