#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
/// The innermost open phase; spans opened on threads with no open span
/// of their own take it as parent.
std::atomic<std::uint64_t> g_phase{0};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_registry_mu

thread_local Buffer* t_buffer = nullptr;
thread_local std::vector<std::uint64_t> t_open;

Buffer& buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 14);
    const std::lock_guard<std::mutex> lock(g_registry_mu);
    owned->tid = static_cast<std::uint32_t>(g_buffers.size() + 1);
    t_buffer = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *t_buffer;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "corpus", "parse", "chunk", "embed", "index", "qgen",
      "trace",  "rag",   "llm",   "eval",  "core",  "serve"};
  return kNames[static_cast<std::size_t>(layer)];
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }

Span::Span(const char* name, Layer layer, bool phase) {
  if (!tracing()) return;
  active_ = true;
  rec_.name = name;
  rec_.layer = layer;
  rec_.phase = phase;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent =
      t_open.empty() ? g_phase.load(std::memory_order_acquire) : t_open.back();
  if (phase) saved_phase_ = g_phase.exchange(rec_.id, std::memory_order_acq_rel);
  t_open.push_back(rec_.id);
  rec_.t0_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.t1_ns = now_ns();
  t_open.pop_back();
  if (rec_.phase) g_phase.store(saved_phase_, std::memory_order_release);
  Buffer& buf = buffer();
  rec_.tid = buf.tid;
  buf.spans.push_back(rec_);
}

std::vector<SpanRecord> spans_between(std::int64_t from_ns, std::int64_t to_ns) {
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buf : g_buffers) {
    for (const SpanRecord& s : buf->spans) {
      if (s.t0_ns >= from_ns && s.t1_ns <= to_ns) out.push_back(s);
    }
  }
  return out;
}

LayerSummary summarize(const std::vector<SpanRecord>& spans) {
  LayerSummary sum;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace(spans[i].id, i);
    self[i] = static_cast<double>(spans[i].t1_ns - spans[i].t0_ns) * 1e-9;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent);
    if (it == by_id.end() || spans[it->second].tid != spans[i].tid) continue;
    self[it->second] -= static_cast<double>(spans[i].t1_ns - spans[i].t0_ns) * 1e-9;
  }

  std::vector<const SpanRecord*> phases;
  for (const SpanRecord& s : spans) {
    if (s.phase) phases.push_back(&s);
  }
  std::sort(phases.begin(), phases.end(),
            [](const SpanRecord* a, const SpanRecord* b) { return a->t0_ns < b->t0_ns; });
  std::vector<std::array<double, kLayerCount>> busy_in(phases.size());
  for (auto& b : busy_in) b.fill(0.0);

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.phase) continue;
    const auto l = static_cast<std::size_t>(s.layer);
    sum.busy_s[l] += self[i];
    sum.busy_total_s += self[i];
    ++sum.items[l];
    // The phase this item ran in: the last phase opened at or before it.
    const auto it = std::upper_bound(
        phases.begin(), phases.end(), s.t0_ns,
        [](std::int64_t t, const SpanRecord* p) { return t < p->t0_ns; });
    if (it == phases.begin()) continue;
    const std::size_t p = static_cast<std::size_t>(it - phases.begin()) - 1;
    if (s.t0_ns <= phases[p]->t1_ns) busy_in[p][l] += self[i];
  }

  for (std::size_t p = 0; p < phases.size(); ++p) {
    const double wall = static_cast<double>(phases[p]->t1_ns - phases[p]->t0_ns) * 1e-9;
    sum.phase_wall_s += wall;
    double busy = 0.0;
    for (const double b : busy_in[p]) busy += b;
    if (busy <= 0.0) {
      sum.wall_s[static_cast<std::size_t>(phases[p]->layer)] += wall;
      continue;
    }
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      sum.wall_s[l] += wall * busy_in[p][l] / busy;
    }
  }
  return sum;
}

std::vector<double> durations_ms(const std::vector<SpanRecord>& spans,
                                 const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-6);
    }
  }
  return out;
}

long write_chrome_trace(const std::string& path, std::int64_t until_ns,
                        std::size_t max_events) {
  std::vector<SpanRecord> spans = spans_between(0, until_ns);
  std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.t0_ns < b.t0_ns;
  });
  if (spans.size() > max_events) spans.resize(max_events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().t0_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name, layer_name(s.layer),
                 s.phase ? ",phase" : "",
                 static_cast<double>(s.t0_ns - origin) * 1e-3,
                 static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok ? static_cast<long>(spans.size()) : -1;
}

}  // namespace perfbench
