#pragma once
// Reasoning-trace distillation: the teacher answers every benchmark
// question in all three modes, prediction withheld from retrieval text.

#include <vector>

#include "llm/teacher_model.hpp"
#include "qgen/mcq_record.hpp"
#include "trace/trace_record.hpp"

namespace mcqa::parallel {
class ThreadPool;
}

namespace mcqa::trace {

struct TraceGenConfig {
  std::uint64_t seed = 0x7ace5eedu;
};

class TraceGenerator {
 public:
  TraceGenerator(const llm::TeacherModel& teacher, TraceGenConfig config = {});

  /// One trace for one record in one mode.
  TraceRecord generate(const qgen::McqRecord& record, TraceMode mode) const;

  /// All records, one mode, across `pool` (order-stable, identical at
  /// any pool width).
  std::vector<TraceRecord> generate_all(
      const std::vector<qgen::McqRecord>& records, TraceMode mode,
      parallel::ThreadPool& pool) const;

 private:
  const llm::TeacherModel& teacher_;
  TraceGenConfig config_;
};

}  // namespace mcqa::trace
