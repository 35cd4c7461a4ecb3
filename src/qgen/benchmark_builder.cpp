#include "qgen/benchmark_builder.hpp"

#include "parallel/thread_pool.hpp"

namespace mcqa::qgen {

BenchmarkBuilder::BenchmarkBuilder(const llm::TeacherModel& teacher,
                                   BuilderConfig config)
    : teacher_(teacher), config_(config) {}

std::optional<McqRecord> BenchmarkBuilder::build_one(
    const chunk::Chunk& chunk, FunnelCounters& tally) const {
  // The chunk's fact set, matched once for both teacher prompts.
  const std::vector<corpus::FactId> present =
      teacher_.matcher().match(chunk.text);
  const auto draft = teacher_.generate_mcq(chunk, present);
  if (!draft.has_value()) {
    tally.rejected_no_fact.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  tally.candidates.fetch_add(1, std::memory_order_relaxed);

  const llm::ScoreCheck relevance =
      teacher_.relevance_check(chunk, present.size());
  if (relevance.score < config_.relevance_threshold) {
    tally.rejected_relevance.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const llm::ScoreCheck quality = teacher_.quality_check(*draft, chunk);
  if (quality.score < config_.quality_threshold) {
    tally.rejected_quality.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  McqRecord record;
  record.record_id = "q_" + chunk.chunk_id;
  record.stem = draft->stem;
  record.options = draft->options;
  record.correct_index = draft->correct_index;
  record.fact = draft->fact;
  record.math = draft->math;
  record.fact_importance = draft->fact_importance;
  record.key_principle = draft->key_principle;
  record.ambiguity = config_.residual_ambiguity;
  record.sub_domain = std::string(corpus::sub_domain_of_topic(
      teacher_.kb().topic(teacher_.kb().fact(draft->fact).topic).name));

  record.question = McqRecord::render_question(draft->stem, draft->options);
  record.answer =
      draft->correct_index >= 0
          ? draft->options[static_cast<std::size_t>(draft->correct_index)]
          : "";
  record.text = chunk.text;
  record.chunk_id = chunk.chunk_id;
  record.path = chunk.path;
  record.relevance_score = relevance.score;
  record.relevance_reasoning = relevance.reasoning;
  record.quality_score = quality.score;
  record.quality_critique = quality.reasoning;
  record.quality_raw_output =
      "score=" + std::to_string(quality.score) + "; " + quality.reasoning;
  return record;
}

std::vector<McqRecord> BenchmarkBuilder::build(
    const std::vector<chunk::Chunk>& chunks, parallel::ThreadPool& pool,
    FunnelStats* stats) const {
  std::vector<std::optional<McqRecord>> slots(chunks.size());
  FunnelCounters tally;

  parallel::parallel_for(pool, 0, chunks.size(), [&](std::size_t i) {
    slots[i] = build_one(chunks[i], tally);
  });

  std::vector<McqRecord> accepted;
  for (auto& slot : slots) {
    if (slot.has_value()) accepted.push_back(std::move(*slot));
  }

  if (stats != nullptr) {
    stats->chunks = chunks.size();
    stats->candidates = tally.candidates.load();
    stats->rejected_no_fact = tally.rejected_no_fact.load();
    stats->rejected_quality = tally.rejected_quality.load();
    stats->rejected_relevance = tally.rejected_relevance.load();
    stats->accepted = accepted.size();
  }
  return accepted;
}

}  // namespace mcqa::qgen
