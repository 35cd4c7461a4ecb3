#include "rag/rag_pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "text/normalize.hpp"
#include "text/sentence.hpp"
#include "text/tokenizer.hpp"
#include "util/strings.hpp"

namespace mcqa::rag {

std::string_view condition_name(Condition c) {
  switch (c) {
    case Condition::kBaseline: return "Baseline";
    case Condition::kChunks: return "RAG-Chunks";
    case Condition::kTraceDetailed: return "RAG-RT-Detail";
    case Condition::kTraceFocused: return "RAG-RT-Focused";
    case Condition::kTraceEfficient: return "RAG-RT-Efficient";
  }
  return "unknown";
}

bool is_trace_condition(Condition c) {
  return c == Condition::kTraceDetailed || c == Condition::kTraceFocused ||
         c == Condition::kTraceEfficient;
}

const index::VectorStore* RetrievalStores::store_for(Condition c) const {
  switch (c) {
    case Condition::kBaseline: return nullptr;
    case Condition::kChunks: return chunks;
    case Condition::kTraceDetailed:
      return traces[static_cast<std::size_t>(trace::TraceMode::kDetailed)];
    case Condition::kTraceFocused:
      return traces[static_cast<std::size_t>(trace::TraceMode::kFocused)];
    case Condition::kTraceEfficient:
      return traces[static_cast<std::size_t>(trace::TraceMode::kEfficient)];
  }
  return nullptr;
}

RagPipeline::RagPipeline(const corpus::KnowledgeBase& kb,
                         const corpus::FactMatcher& matcher,
                         RetrievalStores stores, RagConfig config)
    : kb_(kb), matcher_(matcher), stores_(stores), config_(config) {}

std::string RagPipeline::assemble_context(
    const std::vector<index::Hit>& hits, const llm::McqTask& task,
    const llm::ModelSpec& spec, std::vector<std::string>* kept_ids) const {
  // Window budget: context_window - question/options - answer reserve.
  std::size_t question_tokens = text::approx_llm_tokens(task.stem);
  for (const auto& opt : task.options) {
    question_tokens += text::approx_llm_tokens(opt) + 2;
  }
  const std::size_t window = spec.context_window;
  const std::size_t reserve = config_.reserve_tokens + question_tokens;
  if (window <= reserve) return {};  // no room for any context at all
  std::size_t budget = window - reserve;

  std::string context;
  for (const auto& hit : hits) {
    const std::size_t cost = text::approx_llm_tokens(hit.text) + 4;
    if (cost <= budget) {
      if (!context.empty()) context += "\n\n";
      context += hit.text;
      budget -= cost;
      if (kept_ids != nullptr) kept_ids->push_back(hit.id);
      continue;
    }
    // Partial fit: keep a word-truncated prefix if at least a couple of
    // sentences fit; otherwise stop.
    if (budget < 48) break;
    const auto words = text::word_tokenize(hit.text);
    // tokens ~ words * 4/3  =>  words ~ budget * 3/4
    const std::size_t keep_words = budget * 3 / 4;
    if (keep_words < 24 || words.size() < 4) break;
    const std::size_t end_word = std::min(words.size(), keep_words);
    const std::size_t end_byte = words[end_word - 1].end;
    if (!context.empty()) context += "\n\n";
    context += hit.text.substr(0, end_byte);
    context += " ...";
    if (kept_ids != nullptr) kept_ids->push_back(hit.id + "#truncated");
    break;  // budget exhausted
  }
  return context;
}

namespace {

/// Negation / dismissal cues that mark a sentence as arguing *against*
/// the option it mentions.
bool sentence_dismisses(std::string_view normalized_sentence) {
  static constexpr std::string_view kCues[] = {
      "not", "inconsistent", "implausible", "set aside", "dismissed",
      "contradict", "unlikely"};
  for (const auto cue : kCues) {
    if (normalized_sentence.find(cue) != std::string_view::npos) return true;
  }
  return false;
}

}  // namespace

void RagPipeline::annotate(llm::McqTask& task, const qgen::McqRecord& record,
                           Condition condition,
                           const std::vector<std::string>& kept_ids) const {
  if (task.context.empty()) return;

  // --- probed fact still present after truncation? ------------------------
  task.context_has_fact = matcher_.contains(task.context, record.fact);

  // --- saliency: how much of the context talks about the probed fact's
  // entities at all.  A reasoning trace spends nearly every sentence on
  // the question's subject matter (high saliency); a retrieved paper
  // chunk buries the relevant sentence among unrelated results.
  const corpus::Fact& probed = kb_.fact(record.fact);
  const std::string subj_norm =
      text::normalize_for_matching(kb_.entity(probed.subject).name);
  const std::string obj_norm =
      probed.relation == corpus::RelationKind::kHalfLife
          ? subj_norm
          : text::normalize_for_matching(kb_.entity(probed.object).name);
  const std::size_t ctx_words = text::count_words(task.context);
  const auto sentences = text::split_sentences(task.context);
  std::vector<std::string> normalized_sentences;
  normalized_sentences.reserve(sentences.size());
  for (const auto& s : sentences) {
    normalized_sentences.push_back(text::normalize_for_matching(s.text));
  }
  if (task.context_has_fact && ctx_words > 0) {
    std::size_t relevant_words = 0;
    for (std::size_t i = 0; i < sentences.size(); ++i) {
      const auto& sent = normalized_sentences[i];
      if (sent.find(subj_norm) != std::string::npos ||
          sent.find(obj_norm) != std::string::npos) {
        relevant_words += text::count_words(sentences[i].text);
      }
    }
    if (relevant_words == 0) relevant_words = ctx_words / 4 + 1;
    task.context_saliency = std::clamp(
        static_cast<double>(relevant_words) / static_cast<double>(ctx_words) *
            // Short contexts are easier to read end-to-end regardless of
            // the ratio; damp the denominator for small contexts.
            (1.0 + 60.0 / static_cast<double>(ctx_words + 60)),
        0.0, 1.0);
  }

  // --- trace-specific aids --------------------------------------------------
  const bool trace_cond = is_trace_condition(condition);
  bool exact_source_trace = false;
  if (trace_cond) {
    for (const auto& id : kept_ids) {
      // Trace ids carry provenance: "t_<mode>_<record_id>".
      if (id.find(record.record_id) != std::string::npos &&
          id.find("#truncated") == std::string::npos) {
        exact_source_trace = true;
        break;
      }
    }
  }

  // --- per-option support / dismissal scan ---------------------------------
  std::size_t dismissed_wrong = 0;
  double mislead_strength = 0.0;
  for (std::size_t i = 0; i < task.options.size(); ++i) {
    if (static_cast<int>(i) == task.correct_index) continue;
    const std::string opt_norm =
        text::normalize_for_matching(task.options[i]);
    if (opt_norm.empty()) continue;
    bool strong_support = false;  // distractor tied to the question's
                                  // subject matter in one sentence
    bool weak_support = false;    // distractor asserted approvingly at all
    bool dismissed = false;
    for (const auto& sent : normalized_sentences) {
      if (sent.find(opt_norm) == std::string::npos) continue;
      if (sentence_dismisses(sent)) {
        dismissed = true;
        continue;
      }
      weak_support = true;
      if (sent.find(subj_norm) != std::string::npos ||
          sent.find(obj_norm) != std::string::npos) {
        strong_support = true;
      }
    }
    if (dismissed) ++dismissed_wrong;
    // A wrong option with apparent support is the misleading-retrieval
    // hazard; it is strongest when the probed fact itself never made it
    // into the context (nothing correct competes for attention).
    if ((strong_support || weak_support) && !dismissed) {
      task.context_misleading_options.push_back(static_cast<int>(i));
      double strength = strong_support ? 1.0 : 0.65;
      if (task.context_has_fact) strength *= 0.75;
      mislead_strength = std::max(mislead_strength, strength);
    }
  }
  task.context_mislead_strength = mislead_strength;

  task.context_is_trace = trace_cond;
  task.context_is_terse = condition == Condition::kTraceEfficient;

  // Distilled dismissals help elimination when the trace addresses the
  // question's own options (any exact-source trace; the student-side
  // abstraction factor discounts the terse efficient phrasing) or when
  // the context explicitly argues against several of them.
  task.context_has_elimination =
      exact_source_trace || (trace_cond && dismissed_wrong >= 2);

  // A trace that worked a decay computation for the same underlying
  // quantity teaches the method even when the numbers differ.  The
  // efficient mode states the principle without the steps.
  task.context_has_worked_math =
      record.math && trace_cond && task.context_has_fact &&
      condition != Condition::kTraceEfficient;
}

std::string RagPipeline::query_for(const qgen::McqRecord& record,
                                   Condition condition) const {
  return condition == Condition::kChunks
             ? record.stem
             : qgen::McqRecord::render_question(record.stem, record.options);
}

llm::McqTask RagPipeline::prepare_from_hits(const qgen::McqRecord& record,
                                 Condition condition,
                                 const llm::ModelSpec& spec,
                                 const std::vector<index::Hit>& hits) const {
  llm::McqTask task = record.to_task();
  std::vector<std::string> kept_ids;
  task.context = assemble_context(hits, task, spec, &kept_ids);
  annotate(task, record, condition, kept_ids);
  return task;
}

llm::McqTask RagPipeline::prepare(const qgen::McqRecord& record,
                                  Condition condition,
                                  const llm::ModelSpec& spec) const {
  if (condition == Condition::kBaseline) return record.to_task();

  const index::VectorStore* store = stores_.store_for(condition);
  if (store == nullptr || store->size() == 0) return record.to_task();

  // Query against the question embedding.  For the chunk store the stem
  // alone is the better key: the six distractor entities in the option
  // list drag in passages about the wrong entities.  Trace stores embed
  // the full question (their texts restate stem and options), so the
  // full rendering is the sharper key there.
  const auto hits = store->query(query_for(record, condition),
                                 config_.top_k_for(condition));
  return prepare_from_hits(record, condition, spec, hits);
}

RetrievalPlan RagPipeline::make_plan(
    const std::vector<qgen::McqRecord>& records, Condition condition) const {
  RetrievalPlan plan;
  plan.condition = condition;
  const index::VectorStore* store = stores_.store_for(condition);
  plan.active = condition != Condition::kBaseline && store != nullptr &&
                store->size() > 0;
  if (plan.active) plan.hits.resize(records.size());
  return plan;
}

void RagPipeline::fill_plan(RetrievalPlan& plan,
                            const std::vector<qgen::McqRecord>& records,
                            std::size_t lo, std::size_t hi) const {
  if (!plan.active) return;
  const index::VectorStore* store = stores_.store_for(plan.condition);
  const std::size_t k = config_.top_k_for(plan.condition);
  for (std::size_t i = lo; i < hi && i < records.size(); ++i) {
    plan.hits[i] = store->query(query_for(records[i], plan.condition), k);
  }
}

llm::McqTask RagPipeline::prepare_from_plan(const qgen::McqRecord& record,
                                            const RetrievalPlan& plan,
                                            std::size_t i,
                                            const llm::ModelSpec& spec) const {
  if (!plan.active) return record.to_task();
  return prepare_from_hits(record, plan.condition, spec, plan.hits.at(i));
}

}  // namespace mcqa::rag
