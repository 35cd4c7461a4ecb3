#pragma once
// Benchmark-side span tracer.
//
// Spans are recorded around the calls the benchmark makes into each
// layer's public functions (the program itself carries no spans).  Each
// thread appends to its own buffer; buffers are registered once and kept
// until exit, so a summary or the Chrome export reads them after the
// pool has drained.  Off by default: a disabled Span costs one relaxed
// atomic load.
//
// Two kinds of span:
//   * a phase is opened on the coordinating thread around one step of a
//     replay (e.g. "every document through the parser"); spans opened on
//     pool threads while it is open take it as their parent;
//   * an item span wraps one call (one parse, one embed, one answer).
// A layer's busy time is the self time of its item spans (duration minus
// same-thread children); its wall is the phase walls, each split across
// the layers busy inside the phase in proportion to their busy time.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kCorpus,
  kParse,
  kChunk,
  kEmbed,
  kIndex,
  kQgen,
  kTrace,
  kRag,
  kLlm,
  kEval,
  kCore,
  kServe,
};
inline constexpr std::size_t kLayerCount = 12;

const char* layer_name(Layer layer);

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kCore;
  bool phase = false;
  std::uint32_t tid = 0;
  std::int64_t t0_ns = 0;  ///< steady_clock, ns
  std::int64_t t1_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = none
};

/// Monotonic nanoseconds on the clock spans use.
std::int64_t now_ns();

void set_tracing(bool on);
bool tracing();

/// RAII span.  Construct on the thread doing the work.
class Span {
 public:
  Span(const char* name, Layer layer, bool phase = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  SpanRecord rec_;
  bool active_ = false;
  std::uint64_t saved_phase_ = 0;
};

/// Every span recorded with t0 >= from_ns and t1 <= to_ns.  Call only
/// while no other thread is recording.
std::vector<SpanRecord> spans_between(std::int64_t from_ns, std::int64_t to_ns);

/// Per-layer accounting of one traced window.
struct LayerSummary {
  std::array<double, kLayerCount> busy_s{};   ///< item self time
  std::array<double, kLayerCount> wall_s{};   ///< share of phase walls
  std::array<std::size_t, kLayerCount> items{};
  double phase_wall_s = 0.0;  ///< sum of phase walls
  double busy_total_s = 0.0;
};

LayerSummary summarize(const std::vector<SpanRecord>& spans);

/// Item-span durations (ms) of one named span kind, for latency quantiles.
std::vector<double> durations_ms(const std::vector<SpanRecord>& spans,
                                 const char* name);

/// Write the first `max_events` spans (by start time) recorded before
/// `until_ns` as Chrome trace-event JSON (complete "X" events,
/// microseconds).  Returns the event count, or -1 when the file cannot
/// be written.
long write_chrome_trace(const std::string& path, std::int64_t until_ns,
                        std::size_t max_events);

}  // namespace perfbench
