#pragma once
// Benchmark construction: chunks -> candidate MCQs -> quality filter.
//
// One candidate per chunk (the paper generates 173,318 candidates from
// 173,318 chunks), then the two LLM checks gate acceptance:
// relevance >= threshold AND quality >= threshold keeps a record.  The
// paper's funnel lands at 16,680 accepted (~9.6%).

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "chunk/chunker.hpp"
#include "llm/teacher_model.hpp"
#include "qgen/mcq_record.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::qgen {

struct BuilderConfig {
  double quality_threshold = 7.0;    ///< the paper's published filter
  double relevance_threshold = 5.0;  ///< relevance gate
  /// Residual flaw probability of accepted items (what the 1-10 filter
  /// cannot see); propagated into each record.
  double residual_ambiguity = 0.10;
};

struct FunnelStats {
  std::size_t chunks = 0;
  std::size_t candidates = 0;       ///< drafts the teacher produced
  std::size_t rejected_no_fact = 0; ///< chunk carried nothing testable
  std::size_t rejected_quality = 0;
  std::size_t rejected_relevance = 0;
  std::size_t accepted = 0;

  double acceptance_rate() const {
    return chunks == 0 ? 0.0
                       : static_cast<double>(accepted) /
                             static_cast<double>(chunks);
  }
};

/// Shared funnel tally for callers that run build_one concurrently
/// (the overlapped executor).  `accepted` and `chunks` are derived by
/// the caller from its merge, so only rejection paths live here.
struct FunnelCounters {
  std::atomic<std::size_t> candidates{0};
  std::atomic<std::size_t> rejected_no_fact{0};
  std::atomic<std::size_t> rejected_quality{0};
  std::atomic<std::size_t> rejected_relevance{0};
};

class BenchmarkBuilder {
 public:
  BenchmarkBuilder(const llm::TeacherModel& teacher, BuilderConfig config = {});

  /// Build the benchmark from chunks across `pool`.  Deterministic,
  /// order-stable, identical at any pool width.
  std::vector<McqRecord> build(const std::vector<chunk::Chunk>& chunks,
                               parallel::ThreadPool& pool,
                               FunnelStats* stats = nullptr) const;

  /// Draft + filter the candidate for one chunk.  Pure per chunk and
  /// thread-safe, so callers may fan chunks out in any order; build()
  /// is exactly build_one over every chunk merged in input order.
  std::optional<McqRecord> build_one(const chunk::Chunk& chunk,
                                     FunnelCounters& tally) const;

 private:
  const llm::TeacherModel& teacher_;
  BuilderConfig config_;
};

}  // namespace mcqa::qgen
