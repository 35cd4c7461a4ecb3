#include "eval/harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "index/kernels.hpp"
#include "parallel/dag.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"

namespace mcqa::eval {

double Accuracy::ci95_halfwidth() const {
  if (total == 0) return 0.0;
  const double n = static_cast<double>(total);
  const double p = value();
  const double z = 1.96;
  const double denom = 1.0 + z * z / n;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom;
  return half;
}

namespace {

std::string cell_index_key(std::string_view model, rag::Condition c) {
  std::string key(model);
  key += '\x1f';
  key += static_cast<char>('0' + static_cast<int>(c));
  return key;
}

}  // namespace

const Accuracy& SweepResult::at(std::string_view model,
                                rag::Condition c) const {
  if (indexed_cells_ != cells.size()) {
    index_.clear();
    index_.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      // First occurrence wins, matching the seed's front-to-back scan.
      index_.emplace(cell_index_key(cells[i].model, cells[i].condition), i);
    }
    indexed_cells_ = cells.size();
  }
  const auto it = index_.find(cell_index_key(model, c));
  if (it == index_.end()) {
    throw std::out_of_range("SweepResult::at: no such cell");
  }
  return cells[it->second].accuracy;
}

std::pair<rag::Condition, Accuracy> SweepResult::best_trace(
    std::string_view model) const {
  std::pair<rag::Condition, Accuracy> best{rag::Condition::kTraceDetailed, {}};
  bool found = false;
  for (const auto& cell : cells) {
    if (cell.model != model || !rag::is_trace_condition(cell.condition)) {
      continue;
    }
    // Strict > keeps the earliest trace cell on ties (deterministic:
    // the first trace condition swept wins).
    if (!found || cell.accuracy.value() > best.second.value()) {
      best = {cell.condition, cell.accuracy};
      found = true;
    }
  }
  if (!found) throw std::out_of_range("SweepResult::best_trace: no traces");
  return best;
}

EvalHarness::EvalHarness(const rag::RagPipeline& rag, HarnessConfig config)
    : rag_(rag), config_(config) {}

Accuracy EvalHarness::evaluate(const llm::LanguageModel& model,
                               const llm::ModelSpec& spec,
                               const std::vector<qgen::McqRecord>& records,
                               rag::Condition condition) const {
  return sweep({&model}, {spec}, records, {condition}).cells[0].accuracy;
}

namespace {

/// Records per range block: about 16 blocks per worker, rounded up to
/// whole kTileQ query tiles so a block's plan fill reads each store row
/// once per tile.  A block's task carries every model's work for its
/// records, so blocks this small keep the last tasks of a sweep short
/// and the workers evenly loaded.
std::size_t block_grain(std::size_t n, std::size_t workers) {
  constexpr std::size_t kTile = index::kernels::kTileQ;
  const std::size_t grain =
      std::max<std::size_t>(1, n / (std::max<std::size_t>(workers, 1) * 16));
  return (grain + kTile - 1) / kTile * kTile;
}

/// Contiguous index ranges of `grain` records covering [0, n).
std::vector<RecordGroup> range_blocks(std::size_t n, std::size_t grain) {
  std::vector<RecordGroup> blocks;
  for (std::size_t lo = 0; lo < n; lo += grain) {
    RecordGroup& block = blocks.emplace_back();
    for (std::size_t i = lo; i < std::min(n, lo + grain); ++i) {
      block.indexes.push_back(i);
    }
  }
  return blocks;
}

/// True iff `groups` covers every index in [0, n) exactly once.
bool is_partition(const std::vector<RecordGroup>& groups, std::size_t n) {
  std::vector<char> seen(n, 0);
  std::size_t covered = 0;
  for (const auto& g : groups) {
    for (const std::size_t i : g.indexes) {
      if (i >= n || seen[i] != 0) return false;
      seen[i] = 1;
      ++covered;
    }
  }
  return covered == n;
}

/// Fingerprint of a group's retrieval inputs under one condition: per
/// record (in group order) the hit count, then each hit's id, payload
/// text and exact score bits.  Conditions that do not retrieve share a
/// constant — their cells depend on record content alone.
std::uint64_t group_hits_fp(const rag::RetrievalPlan& plan,
                            const RecordGroup& group) {
  std::uint64_t h = util::fnv1a64("group-hits");
  if (!plan.active) return h;
  for (const std::size_t i : group.indexes) {
    const auto& hits = plan.hits[i];
    h = util::hash_combine(h, util::fnv1a64(hits.size()));
    for (const auto& hit : hits) {
      h = util::hash_combine(h, util::fnv1a64(hit.id));
      h = util::hash_combine(h, util::fnv1a64(hit.text));
      std::uint32_t bits = 0;
      static_assert(sizeof(bits) == sizeof(hit.score));
      std::memcpy(&bits, &hit.score, sizeof(bits));
      h = util::hash_combine(h, util::fnv1a64(bits));
    }
  }
  return h;
}

/// One (model, condition, block) tally, written by exactly one grid task.
struct BlockTally {
  Accuracy acc;           ///< over the block's records (total = its size)
  bool restored = false;  ///< from the group cache, not evaluated
};

}  // namespace

SweepResult EvalHarness::sweep(
    const std::vector<const llm::LanguageModel*>& models,
    const std::vector<llm::ModelSpec>& specs,
    const std::vector<qgen::McqRecord>& records,
    const std::vector<rag::Condition>& conditions, SweepStats* stats) const {
  if (models.size() != specs.size()) {
    throw std::invalid_argument("sweep: models/specs size mismatch");
  }
  const std::size_t m_count = models.size();
  const std::size_t c_count = conditions.size();
  const std::size_t n = records.size();
  const CellCache* cache = config_.cell_cache;

  std::optional<parallel::ThreadPool> own_pool;
  parallel::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : own_pool.emplace();

  std::vector<RecordGroup> ranges;
  if (config_.groups == nullptr) {
    ranges = range_blocks(n, block_grain(n, pool.thread_count()));
  } else if (!is_partition(*config_.groups, n)) {
    throw std::invalid_argument("sweep: groups must partition the record set");
  }
  const std::vector<RecordGroup>& blocks =
      config_.groups != nullptr ? *config_.groups : ranges;
  const std::size_t b_count = blocks.size();
  const bool group_cache = config_.groups != nullptr && cache != nullptr;

  // Whole cells the cache restores; every other cell is on its
  // condition's todo list.  One plan per condition serves the list.
  SweepStats tally;
  std::vector<std::optional<Accuracy>> restored(m_count * c_count);
  std::vector<std::vector<std::size_t>> todo(c_count);
  std::vector<rag::RetrievalPlan> plans(c_count);
  for (std::size_t ci = 0; ci < c_count; ++ci) {
    plans[ci] = rag_.make_plan(records, conditions[ci]);
    if (plans[ci].active) tally.naive_retrieval_queries += m_count * n;
    for (std::size_t m = 0; m < m_count; ++m) {
      if (cache != nullptr) {
        restored[m * c_count + ci] =
            cache->load(models[m]->name(), conditions[ci], n);
      }
      if (restored[m * c_count + ci].has_value()) {
        ++tally.cells_restored;
      } else {
        todo[ci].push_back(m);
      }
    }
    tally.cells_computed += todo[ci].size();
    if (plans[ci].active && !todo[ci].empty()) tally.retrieval_queries += n;
  }

  // The grid: one task per (condition, block).  Each task writes only
  // its block's plan rows, its (condition, block) fingerprint and task
  // count, and its (model, condition, block) tallies, so tasks never
  // share a slot.
  std::vector<BlockTally> tallies(m_count * c_count * b_count);
  std::vector<std::uint64_t> block_fps(c_count * b_count, 0);
  std::vector<std::size_t> block_tasks(c_count * b_count, 0);
  parallel::TaskGroup grid(pool);
  for (std::size_t ci = 0; ci < c_count; ++ci) {
    if (todo[ci].empty()) continue;
    for (std::size_t b = 0; b < b_count; ++b) {
      grid.spawn([&, ci, b]() {
        const RecordGroup& block = blocks[b];
        rag::RetrievalPlan& plan = plans[ci];
        rag_.fill_plan(plan, records, block.indexes);
        if (group_cache) {
          block_fps[ci * b_count + b] = util::hash_combine(
              block.content_fp, group_hits_fp(plan, block));
        }
        // The models that answer this block: every uncached one whose
        // block tally the group cache does not restore.
        std::vector<std::size_t> live;
        std::vector<const llm::ModelSpec*> live_specs;
        for (const std::size_t m : todo[ci]) {
          BlockTally& t = tallies[(m * c_count + ci) * b_count + b];
          t.acc.total = block.indexes.size();
          if (group_cache) {
            const auto cached = cache->load_group(
                models[m]->name(), conditions[ci],
                block_fps[ci * b_count + b], t.acc.total);
            if (cached.has_value()) {
              t.acc = *cached;
              t.restored = true;
              continue;
            }
          }
          live.push_back(m);
          live_specs.push_back(&specs[m]);
        }
        if (live.empty()) return;
        // Each record is assembled once per distinct cut of its hits;
        // every model answers its cut's shared task.
        for (const std::size_t i : block.indexes) {
          const rag::SharedTasks shared = rag_.prepare_shared(
              records[i], plan.condition, live_specs, plan.hits_for(i));
          block_tasks[ci * b_count + b] += shared.tasks.size();
          for (std::size_t j = 0; j < live.size(); ++j) {
            const llm::McqTask& task = shared.tasks[shared.task_of[j]];
            const llm::AnswerResult answer = models[live[j]]->answer(task);
            const trace::GradingResult grading =
                judge_.grade(task, answer.text);
            BlockTally& t = tallies[(live[j] * c_count + ci) * b_count + b];
            if (grading.is_correct) ++t.acc.correct;
            if (grading.extracted_option_number < 0) ++t.acc.unparseable;
          }
        }
      });
    }
  }
  grid.wait();

  // Merge in (model, condition) order, summing blocks in partition
  // order.  Every store happens here, on one thread: ArtifactCache
  // names its temporary files per process.
  SweepResult out;
  out.cells.reserve(m_count * c_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    for (std::size_t ci = 0; ci < c_count; ++ci) {
      CellResult& cell = out.cells.emplace_back();
      cell.model = std::string(models[m]->name());
      cell.condition = conditions[ci];
      if (restored[m * c_count + ci].has_value()) {
        cell.accuracy = *restored[m * c_count + ci];
        continue;
      }
      cell.accuracy.total = n;
      for (std::size_t b = 0; b < b_count; ++b) {
        const BlockTally& t = tallies[(m * c_count + ci) * b_count + b];
        cell.accuracy.correct += t.acc.correct;
        cell.accuracy.unparseable += t.acc.unparseable;
        if (t.restored) {
          ++tally.groups_restored;
          continue;
        }
        tally.records_evaluated += t.acc.total;
        if (config_.groups != nullptr) ++tally.groups_computed;
        if (group_cache) {
          cache->store_group(cell.model, cell.condition,
                             block_fps[ci * b_count + b], t.acc);
        }
      }
      if (cache != nullptr) {
        cache->store(cell.model, cell.condition, cell.accuracy);
      }
    }
  }
  for (const std::size_t count : block_tasks) tally.tasks_prepared += count;
  if (stats != nullptr) *stats = tally;
  return out;
}

std::vector<rag::Condition> all_conditions() {
  return {rag::Condition::kBaseline, rag::Condition::kChunks,
          rag::Condition::kTraceDetailed, rag::Condition::kTraceFocused,
          rag::Condition::kTraceEfficient};
}

std::vector<rag::Condition> trace_conditions() {
  return {rag::Condition::kTraceDetailed, rag::Condition::kTraceFocused,
          rag::Condition::kTraceEfficient};
}

}  // namespace mcqa::eval
