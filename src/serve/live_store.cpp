#include "serve/live_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "index/quantized.hpp"
#include "util/fp16.hpp"

namespace mcqa::serve {

// --- StoreSnapshot -----------------------------------------------------------

embed::Vector StoreSnapshot::Segment::widen(std::size_t r) const {
  if (const auto* flat = dynamic_cast<const index::FlatIndex*>(index.get())) {
    return flat->vector(r);
  }
  if (const auto* sq8 = dynamic_cast<const index::Sq8Index*>(index.get())) {
    // The SQ8 rerank rows hold the same fp16 bits a flat index would;
    // widening them is exact (fp16 -> float is injective).
    const std::size_t dim = sq8->dim();
    const util::fp16_t* src = sq8->rows().row(r);
    embed::Vector out(dim);
    for (std::size_t i = 0; i < dim; ++i) out[i] = util::fp16_to_float(src[i]);
    return out;
  }
  throw std::logic_error("StoreSnapshot: segment index kind has no fp16 rows");
}

std::size_t StoreSnapshot::base_rows() const {
  return base_ == nullptr ? 0 : base_->ids.size();
}

std::vector<index::Hit> StoreSnapshot::query(std::string_view text,
                                             std::size_t k) const {
  return query_vector(embedder_->embed(text), k);
}

std::vector<index::Hit> StoreSnapshot::query_vector(const embed::Vector& v,
                                                    std::size_t k) const {
  // Each segment is asked for k + tombstones rows: at most dead_count_
  // of a segment's hits can be filtered, so the survivors still cover
  // that segment's live top-k, and the merge covers the global one.
  const std::size_t fetch = k + dead_count_;
  struct Cand {
    std::size_t ordinal;
    float score;
    const Segment* segment;
    std::size_t local;
  };
  std::vector<Cand> merged;
  const auto scan = [&](const Segment& seg) {
    for (const index::SearchResult& r : seg.index->search(v, fetch)) {
      const std::size_t ordinal = seg.first_ordinal + r.row;
      if (dead_ != nullptr && (*dead_)[ordinal] != 0) continue;
      merged.push_back(Cand{ordinal, r.score, &seg, r.row});
    }
  };
  if (base_ != nullptr) scan(*base_);
  for (const auto& seg : deltas_) scan(*seg);

  // The comparator FlatIndex::search applies, with insertion-ordered
  // ordinals standing in for rebuilt row numbers (gaps left by dead
  // rows preserve relative order, which is all the tie-break uses).
  std::sort(merged.begin(), merged.end(), [](const Cand& a, const Cand& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.ordinal < b.ordinal;
  });
  if (merged.size() > k) merged.resize(k);

  std::vector<index::Hit> hits;
  hits.reserve(merged.size());
  for (const Cand& c : merged) {
    hits.push_back(index::Hit{c.segment->ids[c.local],
                              c.segment->texts[c.local], c.score});
  }
  return hits;
}

std::vector<std::vector<index::Hit>> StoreSnapshot::query_batch(
    const std::vector<std::string>& texts, std::size_t k) const {
  std::vector<embed::Vector> vs;
  vs.reserve(texts.size());
  for (const auto& text : texts) vs.push_back(embedder_->embed(text));
  return query_vectors(vs, k);
}

std::vector<std::vector<index::Hit>> StoreSnapshot::query_vectors(
    const std::vector<embed::Vector>& vs, std::size_t k) const {
  // Same per-segment fetch depth and merge as query_vector; the only
  // change is that each segment scans the whole batch through its
  // tiled path, sharing row decodes across kTileQ queries.  Per-query
  // segment results are bit-identical to search(v, fetch) — the
  // tile-kernel contract — so the filtered merge is too.
  const std::size_t fetch = k + dead_count_;
  struct Cand {
    std::size_t ordinal;
    float score;
    const Segment* segment;
    std::size_t local;
  };
  std::vector<const Segment*> segments;
  if (base_ != nullptr) segments.push_back(base_.get());
  for (const auto& seg : deltas_) segments.push_back(seg.get());

  std::vector<std::vector<std::vector<index::SearchResult>>> per_segment;
  per_segment.reserve(segments.size());
  for (const Segment* seg : segments) {
    per_segment.push_back(seg->index->search_tiled(vs, fetch));
  }

  std::vector<std::vector<index::Hit>> out(vs.size());
  std::vector<Cand> merged;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    merged.clear();
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const Segment& seg = *segments[s];
      for (const index::SearchResult& r : per_segment[s][i]) {
        const std::size_t ordinal = seg.first_ordinal + r.row;
        if (dead_ != nullptr && (*dead_)[ordinal] != 0) continue;
        merged.push_back(Cand{ordinal, r.score, &seg, r.row});
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const Cand& a, const Cand& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.ordinal < b.ordinal;
              });
    if (merged.size() > k) merged.resize(k);
    out[i].reserve(merged.size());
    for (const Cand& c : merged) {
      out[i].push_back(index::Hit{c.segment->ids[c.local],
                                  c.segment->texts[c.local], c.score});
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> StoreSnapshot::live_rows()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(rows());
  const auto emit = [&](const Segment& seg) {
    for (std::size_t r = 0; r < seg.ids.size(); ++r) {
      const std::size_t ordinal = seg.first_ordinal + r;
      if (dead_ != nullptr && (*dead_)[ordinal] != 0) continue;
      out.emplace_back(seg.ids[r], seg.texts[r]);
    }
  };
  if (base_ != nullptr) emit(*base_);
  for (const auto& seg : deltas_) emit(*seg);
  return out;
}

// --- LiveStore ---------------------------------------------------------------

std::unique_ptr<index::VectorIndex> LiveStore::make_base_index(
    std::size_t dim) const {
  switch (config_.compact_kind) {
    case index::IndexKind::kFlat:
      return std::make_unique<index::FlatIndex>(dim);
    case index::IndexKind::kSq8:
      return std::make_unique<index::Sq8Index>(
          dim, index::Sq8Config{config_.oversample, config_.min_candidates});
    case index::IndexKind::kIvfPq:
      break;
  }
  throw std::invalid_argument(
      "LiveStore: compact_kind must be flat or sq8 (exact fp16 rows)");
}

LiveStore::LiveStore(const embed::Embedder& embedder, LiveStoreConfig config)
    : embedder_(&embedder), config_(config) {
  auto empty = std::make_shared<StoreSnapshot>();
  empty->embedder_ = embedder_;
  head_.store(std::move(empty), std::memory_order_release);
}

LiveStore::LiveStore(const index::VectorStore& seed, LiveStoreConfig config)
    : LiveStore(seed.embedder(), config) {
  // Seed rows become epoch 1's base segment; a flat seed's fp16 rows
  // widen without re-embedding (bit-identical either way).
  const std::size_t n = seed.size();
  auto base = std::make_shared<StoreSnapshot::Segment>();
  std::vector<embed::Vector> vecs;
  vecs.reserve(n);
  base->ids.reserve(n);
  base->texts.reserve(n);
  for (std::size_t row = 0; row < n; ++row) {
    base->ids.push_back(seed.id_of(row));
    base->texts.push_back(seed.text_of(row));
    vecs.push_back(seed.row_vector(row));
    live_.emplace(seed.id_of(row), row);
  }
  auto next = std::make_shared<StoreSnapshot>();
  next->embedder_ = embedder_;
  next->epoch_ = 1;
  next->total_rows_ = n;
  next->dead_ = std::make_shared<const std::vector<std::uint8_t>>(n, 0);
  if (n > 0) {
    auto idx = make_base_index(embedder_->dim());
    idx->add_batch(vecs);
    idx->build();
    base->index = std::move(idx);
    next->base_ = std::move(base);
  }
  head_.store(std::move(next), std::memory_order_release);
  epoch_hint_.store(1, std::memory_order_release);
}

void LiveStore::append(std::string id, std::string text) {
  embed::Vector v = embedder_->embed(text);  // off the writer critical path
  const std::lock_guard<std::mutex> lock(writer_mu_);
  const auto it = live_.find(id);
  if (it != live_.end()) {
    pend_dead_.push_back(it->second);  // upsert: old row dies this epoch
    live_.erase(it);
  }
  const auto head = head_.load(std::memory_order_acquire);
  const std::size_t ordinal = head->total_rows_ + pend_ids_.size();
  live_.emplace(id, ordinal);
  pend_ids_.push_back(std::move(id));
  pend_texts_.push_back(std::move(text));
  pend_vecs_.push_back(std::move(v));
  pending_hint_.store(pend_ids_.size() + pend_dead_.size(),
                      std::memory_order_release);
}

bool LiveStore::tombstone(std::string_view id) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  const auto it = live_.find(std::string(id));
  if (it == live_.end()) return false;
  pend_dead_.push_back(it->second);
  live_.erase(it);
  pending_hint_.store(pend_ids_.size() + pend_dead_.size(),
                      std::memory_order_release);
  return true;
}

std::shared_ptr<const StoreSnapshot> LiveStore::publish(double sim_now_ms) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return publish_locked(sim_now_ms);
}

std::shared_ptr<const StoreSnapshot> LiveStore::publish_locked(
    double sim_now_ms) {
  const auto old = head_.load(std::memory_order_acquire);
  auto next = std::make_shared<StoreSnapshot>();
  next->embedder_ = embedder_;
  next->epoch_ = old->epoch_ + 1;
  next->published_at_ms_ = sim_now_ms;
  next->base_ = old->base_;
  next->deltas_ = old->deltas_;
  next->total_rows_ = old->total_rows_ + pend_ids_.size();
  next->dead_count_ = old->dead_count_ + pend_dead_.size();

  if (!pend_ids_.empty()) {
    auto seg = std::make_shared<StoreSnapshot::Segment>();
    seg->first_ordinal = old->total_rows_;
    seg->ids = std::move(pend_ids_);
    seg->texts = std::move(pend_texts_);
    auto idx = std::make_unique<index::FlatIndex>(embedder_->dim());
    idx->add_batch(pend_vecs_);
    seg->index = std::move(idx);
    next->deltas_.push_back(std::move(seg));
  }
  auto dead = std::make_shared<std::vector<std::uint8_t>>();
  if (old->dead_ != nullptr) *dead = *old->dead_;
  dead->resize(next->total_rows_, 0);
  for (const std::size_t ordinal : pend_dead_) (*dead)[ordinal] = 1;
  next->dead_ = std::move(dead);

  pend_ids_.clear();
  pend_texts_.clear();
  pend_vecs_.clear();
  pend_dead_.clear();

  std::shared_ptr<const StoreSnapshot> sealed = std::move(next);
  const std::size_t fold = sealed->delta_rows() + sealed->tombstones();
  if (fold > 0 && fold >= config_.compact_threshold) {
    sealed = compact_locked(*sealed, sim_now_ms);
  }
  head_.store(sealed, std::memory_order_release);
  epoch_hint_.store(sealed->epoch(), std::memory_order_release);
  pending_hint_.store(0, std::memory_order_release);
  compactions_hint_.store(compactions_, std::memory_order_release);
  return sealed;
}

std::shared_ptr<const StoreSnapshot> LiveStore::compact_locked(
    const StoreSnapshot& sealed, double sim_now_ms) {
  auto base = std::make_shared<StoreSnapshot::Segment>();
  std::vector<embed::Vector> vecs;
  const std::size_t live = sealed.rows();
  base->ids.reserve(live);
  base->texts.reserve(live);
  vecs.reserve(live);
  const auto fold = [&](const StoreSnapshot::Segment& seg) {
    for (std::size_t r = 0; r < seg.ids.size(); ++r) {
      const std::size_t ordinal = seg.first_ordinal + r;
      if ((*sealed.dead_)[ordinal] != 0) continue;
      base->ids.push_back(seg.ids[r]);
      base->texts.push_back(seg.texts[r]);
      vecs.push_back(seg.widen(r));
    }
  };
  if (sealed.base_ != nullptr) fold(*sealed.base_);
  for (const auto& seg : sealed.deltas_) fold(*seg);

  auto next = std::make_shared<StoreSnapshot>();
  next->embedder_ = embedder_;
  next->epoch_ = sealed.epoch_;
  next->published_at_ms_ = sim_now_ms;
  next->total_rows_ = base->ids.size();
  next->dead_ =
      std::make_shared<const std::vector<std::uint8_t>>(base->ids.size(), 0);
  if (!base->ids.empty()) {
    auto idx = make_base_index(embedder_->dim());
    idx->add_batch(vecs);
    idx->build();
    base->index = std::move(idx);
    next->base_ = std::move(base);
  }
  // Ordinals restart at 0; remap the live id table to match.
  live_.clear();
  const StoreSnapshot::Segment* folded = next->base_.get();
  if (folded != nullptr) {
    for (std::size_t r = 0; r < folded->ids.size(); ++r) {
      live_.emplace(folded->ids[r], r);
    }
  }
  ++compactions_;
  return next;
}

}  // namespace mcqa::serve
