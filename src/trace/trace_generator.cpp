#include "trace/trace_generator.hpp"

#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace mcqa::trace {

TraceGenerator::TraceGenerator(const llm::TeacherModel& teacher,
                               TraceGenConfig config)
    : teacher_(teacher), config_(config) {}

TraceRecord TraceGenerator::generate(const qgen::McqRecord& record,
                                     TraceMode mode) const {
  util::Rng rng(util::hash_combine(config_.seed,
                                   util::fnv1a64(record.record_id)),
                static_cast<std::uint64_t>(mode) * 2 + 1);

  // Reconstruct the teacher's draft view of this record for dismissal
  // phrasing.
  llm::McqDraft draft;
  draft.stem = record.stem;
  draft.options = record.options;
  draft.correct_index = record.correct_index;
  draft.fact = record.fact;
  draft.math = record.math;
  draft.key_principle = record.key_principle;

  TraceRecord t;
  t.trace_id = "t_" + std::string(trace_mode_name(mode)) + "_" +
               record.record_id;
  t.question = record.question;
  t.context = "";  // the trace prompt is context-free in the paper
  t.options = record.options;
  t.correct_answer_index = record.correct_index;
  t.correct_answer = record.answer;
  t.mode = mode;
  t.source_record_id = record.record_id;

  const std::string explanation = teacher_.explain_fact(record.fact);
  const std::string principle = record.key_principle.empty()
                                    ? explanation
                                    : record.key_principle;

  // Prediction block (kept in the JSON record; excluded from retrieval).
  t.prediction.predicted_answer = record.answer;
  t.prediction.prediction_reasoning =
      "The analysis above points to this option.";
  t.prediction.confidence_level = record.math ? "medium" : "high";
  t.prediction.confidence_explanation =
      record.math ? "The numeric computation admits arithmetic slips."
                  : "The underlying relationship is well established.";

  switch (mode) {
    case TraceMode::kDetailed: {
      t.thought_process.resize(record.options.size());
      for (std::size_t i = 0; i < record.options.size(); ++i) {
        if (static_cast<int>(i) == record.correct_index) {
          t.thought_process[i] =
              record.options[i] + " aligns with the principle: " + principle;
        } else {
          t.thought_process[i] =
              teacher_.dismiss_option(draft, static_cast<int>(i));
        }
      }
      t.scientific_conclusion =
          "Synthesis: " + explanation +
          " Option-level analysis identifies a single candidate consistent "
          "with this mechanism.";
      break;
    }
    case TraceMode::kFocused: {
      t.key_principle = principle;
      // Dismiss 3-4 of the wrong options quickly; the rest stay viable.
      std::vector<int> wrong;
      for (std::size_t i = 0; i < record.options.size(); ++i) {
        if (static_cast<int>(i) != record.correct_index) {
          wrong.push_back(static_cast<int>(i));
        }
      }
      rng.shuffle(wrong);
      const std::size_t dismiss_count =
          wrong.size() <= 2 ? wrong.size()
                            : 3 + rng.bounded(static_cast<std::uint32_t>(
                                      std::min<std::size_t>(2, wrong.size() - 3) +
                                      1));
      for (std::size_t i = 0; i < dismiss_count && i < wrong.size(); ++i) {
        t.dismissed_options.push_back(
            record.options[static_cast<std::size_t>(wrong[i])]);
      }
      t.quick_elimination_reasoning =
          "These options contradict the key principle or are numerically "
          "implausible.";
      t.viable_options.push_back(
          record.options[static_cast<std::size_t>(record.correct_index)]);
      for (std::size_t i = dismiss_count; i < wrong.size() &&
           t.viable_options.size() < 3; ++i) {
        t.viable_options.push_back(
            record.options[static_cast<std::size_t>(wrong[i])]);
      }
      t.focused_detailed_reasoning =
          "Weighing the viable options against the principle: " + explanation;
      t.scientific_conclusion =
          "The remaining analysis narrows to the option consistent with "
          "the stated principle.";
      break;
    }
    case TraceMode::kEfficient: {
      t.quick_analysis = principle;
      t.elimination =
          "Most options are inconsistent with this principle and can be "
          "set aside directly.";
      break;
    }
  }
  return t;
}

std::vector<TraceRecord> TraceGenerator::generate_all(
    const std::vector<qgen::McqRecord>& records, TraceMode mode,
    parallel::ThreadPool& pool) const {
  std::vector<TraceRecord> out(records.size());
  parallel::parallel_for(pool, 0, records.size(), [&](std::size_t i) {
    out[i] = generate(records[i], mode);
  });
  return out;
}

}  // namespace mcqa::trace
