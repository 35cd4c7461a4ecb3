#pragma once
// Oracle teacher (the GPT-4.1 role).
//
// The teacher sees the full knowledge base — the idealization of "a much
// larger model that knows the domain".  It plays three parts from the
// paper's pipeline:
//   1. MCQ generation: turn a semantic chunk into a self-contained
//      7-option question with provenance (Fig. 1 "MCQ generation");
//   2. quality / relevance scoring of candidates on a 1-10 scale, with
//      the >= 7 filter producing the benchmark (the 173,318 -> 16,680
//      funnel);
//   3. domain reasoning content: explanations and option dismissals the
//      reasoning-trace generator distills (answer withheld).
// It also implements LanguageModel so benches can report a near-ceiling
// teacher reference row.

#include <optional>
#include <string>
#include <vector>

#include "chunk/chunker.hpp"
#include "corpus/fact_matcher.hpp"
#include "corpus/knowledge_base.hpp"
#include "corpus/realization.hpp"
#include "llm/language_model.hpp"
#include "util/rng.hpp"

namespace mcqa::llm {

struct McqDraft {
  std::string stem;
  std::vector<std::string> options;  ///< shuffled; 7 entries when healthy
  int correct_index = -1;
  corpus::FactId fact = 0;
  bool math = false;
  double fact_importance = 0.5;
  std::string key_principle;  ///< teacher's one-line rationale
};

struct ScoreCheck {
  double score = 0.0;  ///< 1-10
  std::string reasoning;
};

class TeacherModel final : public LanguageModel {
 public:
  TeacherModel(const corpus::KnowledgeBase& kb,
               const corpus::FactMatcher& matcher,
               std::uint64_t seed = 0x6ea2c001u);

  std::string_view name() const override { return "GPT-4.1 (oracle teacher)"; }

  /// Generate one MCQ candidate from a chunk.  Returns nullopt when the
  /// chunk carries no usable fact (pure filler / parse-damaged text).
  std::optional<McqDraft> generate_mcq(const chunk::Chunk& chunk) const;

  /// generate_mcq with the chunk's fact set already known: `present`
  /// must equal matcher().match(chunk.text).
  std::optional<McqDraft> generate_mcq(
      const chunk::Chunk& chunk,
      const std::vector<corpus::FactId>& present) const;

  /// Second-pass quality prompt: clarity, accuracy, distractor
  /// plausibility, educational value (1-10).  The >=7 threshold is the
  /// paper's published filter.
  ScoreCheck quality_check(const McqDraft& draft,
                           const chunk::Chunk& chunk) const;

  /// Domain-relevance prompt on the source chunk (1-10).
  ScoreCheck relevance_check(const chunk::Chunk& chunk) const;

  /// relevance_check with the chunk's fact count already known:
  /// `fact_count` must equal matcher().match(chunk.text).size().
  ScoreCheck relevance_check(const chunk::Chunk& chunk,
                             std::size_t fact_count) const;

  /// Prose explanation of a fact (used by trace distillation).
  std::string explain_fact(corpus::FactId fact) const;

  /// Why `option` is wrong for a question probing `fact`; generic when
  /// the oracle has no targeted refutation.
  std::string dismiss_option(const McqDraft& draft, int option) const;

  /// Near-ceiling MCQA answering (the teacher reference row).
  AnswerResult answer(const McqTask& task) const override;

  const corpus::KnowledgeBase& kb() const { return kb_; }
  const corpus::FactMatcher& matcher() const { return matcher_; }

 private:
  const corpus::KnowledgeBase& kb_;
  const corpus::FactMatcher& matcher_;
  std::uint64_t seed_;
};

}  // namespace mcqa::llm
