#include "core/eval_cache.hpp"

#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/pipeline.hpp"
#include "llm/model_spec.hpp"
#include "llm/student_model.hpp"
#include "util/hash.hpp"

namespace mcqa::core {

namespace {

constexpr std::string_view kCellBlobName = "eval-cell";
constexpr std::string_view kGroupBlobName = "eval-group";

std::uint64_t hash_f64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return util::hash_combine(h, util::fnv1a64(bits));
}

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  return util::hash_combine(h, util::fnv1a64(v));
}

std::uint64_t hash_str(std::uint64_t h, std::string_view s) {
  return util::hash_combine(h, util::fnv1a64(s));
}

struct FingerprintRegistry {
  std::mutex mu;
  std::unordered_map<std::string, std::uint64_t> by_name;
};

FingerprintRegistry& fingerprint_registry() {
  static FingerprintRegistry reg;
  return reg;
}

/// Fingerprint of one student: the spec pins the context window (which
/// changes assembled prompts) and the profile pins the behavioural
/// dials.  Trainable models registered via register_model_fingerprint
/// additionally fold in their (training config, training text)
/// fingerprint.  Unknown names (custom LanguageModel impls) fall back
/// to the name alone — still a stable key, just without profile
/// sensitivity.
std::uint64_t model_fingerprint(std::string_view name) {
  std::uint64_t h = util::fnv1a64(name);
  if (const std::uint64_t fp = registered_model_fingerprint(name); fp != 0) {
    return util::hash_combine(h, util::fnv1a64(fp));
  }
  try {
    const llm::ModelCard& card = llm::student_card(name);
    h = hash_str(h, card.spec.vendor);
    h = hash_f64(h, card.spec.params_billions);
    h = hash_u64(h, static_cast<std::uint64_t>(card.spec.release_year));
    h = hash_u64(h, card.spec.context_window);
    const llm::StudentProfile& p = card.profile;
    h = hash_f64(h, p.knowledge);
    h = hash_f64(h, p.extraction);
    h = hash_f64(h, p.elimination);
    h = hash_f64(h, p.chunk_distraction);
    h = hash_f64(h, p.trace_math_confusion);
    h = hash_f64(h, p.arithmetic);
    h = hash_f64(h, p.abstraction);
    h = hash_f64(h, p.transfer);
    h = hash_f64(h, p.format_reliability);
    h = hash_f64(h, p.trace_elimination_boost);
    h = hash_f64(h, p.exam_familiarity);
  } catch (const std::out_of_range&) {
  }
  return h;
}

}  // namespace

void register_model_fingerprint(std::string_view name, std::uint64_t fp) {
  FingerprintRegistry& reg = fingerprint_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.by_name[std::string(name)] = fp;
}

std::uint64_t registered_model_fingerprint(std::string_view name) {
  FingerprintRegistry& reg = fingerprint_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.by_name.find(std::string(name));
  return it == reg.by_name.end() ? 0 : it->second;
}

EvalCellCache::EvalCellCache(std::string dir, std::uint64_t sweep_key,
                             std::uint64_t group_base)
    : cache_(std::move(dir)), sweep_key_(sweep_key), group_base_(group_base) {}

std::uint64_t EvalCellCache::sweep_key(
    const PipelineContext& ctx, const std::vector<qgen::McqRecord>& records) {
  const CheckpointKeys keys =
      derive_checkpoint_keys(ctx.config(), ctx.embedder().dim());

  std::uint64_t h = util::fnv1a64("eval-sweep");
  h = hash_u64(h, kCheckpointFormatVersion);
  h = hash_u64(h, code_fingerprint());

  // Upstream artifact identity: what is retrieved from, and what the
  // questions were built from.
  h = hash_u64(h, keys.benchmark);
  h = hash_u64(h, keys.chunk_store);
  for (const std::uint64_t ts : keys.trace_stores) h = hash_u64(h, ts);

  // The swept record *subset*: benches sweep the full benchmark, the
  // exam slices, or a smoke prefix — each must key separately.  Reuse
  // the benchmark codec as the canonical record serialization.
  BenchmarkArtifact subset;
  subset.records = records;
  h = hash_str(h, serialize_benchmark(subset));

  // Harness-side configuration: retrieval depth/budget, judge floor,
  // and the frozen simulation coefficients.
  const rag::RagConfig& rc = ctx.config().rag;
  h = hash_u64(h, rc.top_k_chunks);
  h = hash_u64(h, rc.top_k_traces);
  h = hash_u64(h, rc.reserve_tokens);
  h = hash_f64(h, eval::Judge().min_similarity());
  const llm::SimulationCoefficients& sim = ctx.config().sim;
  h = hash_f64(h, sim.importance_tilt);
  h = hash_f64(h, sim.importance_center);
  h = hash_f64(h, sim.saliency_floor);
  h = hash_f64(h, sim.recall_fidelity);
  h = hash_f64(h, sim.extract_fidelity);
  h = hash_f64(h, sim.worked_math_boost);
  h = hash_f64(h, sim.mislead_scale);
  return h;
}

std::uint64_t EvalCellCache::group_base_key(const PipelineContext& ctx) {
  // Deliberately excludes the benchmark/store checkpoint keys and the
  // swept subset: a group's content_fp pins its questions and the
  // harness's hits fingerprint pins everything it retrieves, so folding
  // whole-corpus identity here would only defeat cross-revision reuse.
  std::uint64_t h = util::fnv1a64("eval-group-base");
  h = hash_u64(h, kCheckpointFormatVersion);
  h = hash_u64(h, code_fingerprint());
  h = hash_u64(h, ctx.config().kb.facts_per_topic);
  h = hash_u64(h, ctx.config().kb.seed);
  h = hash_f64(h, ctx.config().kb.math_fraction);
  const rag::RagConfig& rc = ctx.config().rag;
  h = hash_u64(h, rc.top_k_chunks);
  h = hash_u64(h, rc.top_k_traces);
  h = hash_u64(h, rc.reserve_tokens);
  h = hash_f64(h, eval::Judge().min_similarity());
  const llm::SimulationCoefficients& sim = ctx.config().sim;
  h = hash_f64(h, sim.importance_tilt);
  h = hash_f64(h, sim.importance_center);
  h = hash_f64(h, sim.saliency_floor);
  h = hash_f64(h, sim.recall_fidelity);
  h = hash_f64(h, sim.extract_fidelity);
  h = hash_f64(h, sim.worked_math_boost);
  h = hash_f64(h, sim.mislead_scale);
  return h;
}

std::uint64_t EvalCellCache::cell_key(std::string_view model,
                                      rag::Condition condition) const {
  std::uint64_t h = util::hash_combine(util::fnv1a64("eval-cell"), sweep_key_);
  h = util::hash_combine(h, model_fingerprint(model));
  h = hash_u64(h, static_cast<std::uint64_t>(condition));
  return h;
}

std::optional<eval::Accuracy> EvalCellCache::load(
    std::string_view model, rag::Condition condition,
    std::size_t expected_total) const {
  const auto blob = cache_.load(kCellBlobName, cell_key(model, condition));
  if (blob.has_value()) {
    try {
      const EvalCellArtifact cell = deserialize_eval_cell(*blob);
      // All-or-nothing: the payload must agree with what the key
      // promised and with the sweep asking for it.
      if (cell.model == model &&
          cell.condition == static_cast<std::int64_t>(condition) &&
          cell.total == expected_total) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        eval::Accuracy acc;
        acc.correct = cell.correct;
        acc.total = cell.total;
        acc.unparseable = cell.unparseable;
        return acc;
      }
    } catch (const std::exception&) {
      // Corrupt blob: fall through to a miss and recompute.
      cache_.note_corrupt();
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void EvalCellCache::store(std::string_view model, rag::Condition condition,
                          const eval::Accuracy& accuracy) const {
  EvalCellArtifact cell;
  cell.model = std::string(model);
  cell.condition = static_cast<std::int64_t>(condition);
  cell.correct = accuracy.correct;
  cell.total = accuracy.total;
  cell.unparseable = accuracy.unparseable;
  cache_.store(kCellBlobName, cell_key(model, condition),
               serialize_eval_cell(cell));
  stores_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t EvalCellCache::group_key(std::string_view model,
                                       rag::Condition condition,
                                       std::uint64_t group_fp) const {
  std::uint64_t h = util::hash_combine(util::fnv1a64("eval-group"),
                                       group_base_);
  h = util::hash_combine(h, model_fingerprint(model));
  h = hash_u64(h, static_cast<std::uint64_t>(condition));
  h = hash_u64(h, group_fp);
  return h;
}

std::optional<eval::Accuracy> EvalCellCache::load_group(
    std::string_view model, rag::Condition condition, std::uint64_t group_fp,
    std::size_t expected_total) const {
  const auto blob =
      cache_.load(kGroupBlobName, group_key(model, condition, group_fp));
  if (blob.has_value()) {
    try {
      const EvalCellArtifact cell = deserialize_eval_cell(*blob);
      if (cell.model == model &&
          cell.condition == static_cast<std::int64_t>(condition) &&
          cell.total == expected_total) {
        group_hits_.fetch_add(1, std::memory_order_relaxed);
        eval::Accuracy acc;
        acc.correct = cell.correct;
        acc.total = cell.total;
        acc.unparseable = cell.unparseable;
        return acc;
      }
    } catch (const std::exception&) {
      cache_.note_corrupt();
    }
  }
  group_misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void EvalCellCache::store_group(std::string_view model,
                                rag::Condition condition,
                                std::uint64_t group_fp,
                                const eval::Accuracy& accuracy) const {
  EvalCellArtifact cell;
  cell.model = std::string(model);
  cell.condition = static_cast<std::int64_t>(condition);
  cell.correct = accuracy.correct;
  cell.total = accuracy.total;
  cell.unparseable = accuracy.unparseable;
  cache_.store(kGroupBlobName, group_key(model, condition, group_fp),
               serialize_eval_cell(cell));
  group_stores_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<eval::RecordGroup> record_groups(
    const PipelineContext& ctx, const std::vector<qgen::McqRecord>& records) {
  std::unordered_map<std::string, std::string> doc_of_chunk;
  doc_of_chunk.reserve(ctx.chunks().size());
  for (const chunk::Chunk& c : ctx.chunks()) {
    doc_of_chunk.emplace(c.chunk_id, c.doc_id);
  }

  // Group indexes by provenance unit in first-appearance order.  Exam
  // records (chunk_id not in the chunk table) become singleton groups
  // keyed by their record id.
  std::vector<eval::RecordGroup> groups;
  std::unordered_map<std::string, std::size_t> slot_of_unit;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto it = doc_of_chunk.find(records[i].chunk_id);
    const std::string unit =
        it != doc_of_chunk.end() ? it->second : "exam:" + records[i].record_id;
    const auto [slot, inserted] =
        slot_of_unit.emplace(unit, groups.size());
    if (inserted) groups.emplace_back();
    groups[slot->second].indexes.push_back(i);
  }

  // Fingerprint each group's record bytes via the canonical benchmark
  // codec (same serialization the sweep key uses).
  for (eval::RecordGroup& g : groups) {
    BenchmarkArtifact subset;
    subset.records.reserve(g.indexes.size());
    for (const std::size_t i : g.indexes) subset.records.push_back(records[i]);
    g.content_fp = util::fnv1a64(serialize_benchmark(subset));
  }
  return groups;
}

}  // namespace mcqa::core
