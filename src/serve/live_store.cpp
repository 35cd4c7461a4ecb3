#include "serve/live_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mcqa::serve {

// --- StoreSnapshot -----------------------------------------------------------

std::size_t StoreSnapshot::base_rows() const {
  return base_ == nullptr ? 0 : base_->ids.size();
}

std::vector<const StoreSnapshot::Segment*> StoreSnapshot::segments() const {
  std::vector<const Segment*> out;
  out.reserve(deltas_.size() + 1);
  if (base_ != nullptr) out.push_back(base_.get());
  for (const auto& seg : deltas_) out.push_back(seg.get());
  return out;
}

std::vector<index::Hit> StoreSnapshot::merge(
    const std::vector<const Segment*>& segments,
    const std::vector<std::vector<index::SearchResult>>& found,
    std::size_t k) const {
  struct Cand {
    std::size_t ordinal;
    float score;
    const Segment* segment;
    std::size_t local;
  };
  std::vector<Cand> merged;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const Segment& seg = *segments[s];
    for (const index::SearchResult& r : found[s]) {
      const std::size_t ordinal = seg.first_ordinal + r.row;
      if (dead_ != nullptr && (*dead_)[ordinal] != 0) continue;
      merged.push_back(Cand{ordinal, r.score, &seg, r.row});
    }
  }
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

std::vector<index::Hit> StoreSnapshot::query(std::string_view text,
                                             std::size_t k) const {
  return query_vector(embedder_->embed(text), k);
}

std::vector<index::Hit> StoreSnapshot::query_vector(const embed::Vector& v,
                                                    std::size_t k) const {
  // Each segment is asked for k + tombstones rows: at most dead_count_
  // of a segment's hits can be filtered, so the survivors still cover
  // that segment's live top-k, and the merge covers the global one.
  const std::vector<const Segment*> segs = segments();
  std::vector<std::vector<index::SearchResult>> found;
  found.reserve(segs.size());
  for (const Segment* seg : segs) {
    found.push_back(seg->index.search(v, k + dead_count_));
  }
  return merge(segs, found, k);
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
  // Same fetch depth and merge as query_vector; each segment scans the
  // whole batch through its tiled path, whose per-query results are
  // bit-identical to search(v, fetch) (the tile-kernel contract).
  const std::vector<const Segment*> segs = segments();
  std::vector<std::vector<std::vector<index::SearchResult>>> per_segment;
  per_segment.reserve(segs.size());
  for (const Segment* seg : segs) {
    per_segment.push_back(seg->index.search_tiled(vs, k + dead_count_));
  }
  std::vector<std::vector<index::Hit>> out(vs.size());
  std::vector<std::vector<index::SearchResult>> found(segs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t s = 0; s < segs.size(); ++s) {
      found[s] = std::move(per_segment[s][i]);
    }
    out[i] = merge(segs, found, k);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> StoreSnapshot::live_rows()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(rows());
  for (const Segment* seg : segments()) {
    for (std::size_t r = 0; r < seg->ids.size(); ++r) {
      const std::size_t ordinal = seg->first_ordinal + r;
      if (dead_ != nullptr && (*dead_)[ordinal] != 0) continue;
      out.emplace_back(seg->ids[r], seg->texts[r]);
    }
  }
  return out;
}

// --- LiveStore ---------------------------------------------------------------

LiveStore::LiveStore(const embed::Embedder& embedder, LiveStoreConfig config)
    : embedder_(&embedder), config_(config) {
  if (config_.compact_kind != index::IndexKind::kFlat) {
    throw std::invalid_argument("LiveStore: compact_kind must be flat");
  }
  auto empty = std::make_shared<StoreSnapshot>();
  empty->embedder_ = embedder_;
  head_.store(std::move(empty), std::memory_order_release);
}

LiveStore::LiveStore(const index::VectorStore& seed, LiveStoreConfig config)
    : LiveStore(seed.embedder(), config) {
  // Seed rows become epoch 1's base segment; a flat seed's fp16 rows
  // widen without re-embedding (bit-identical either way).
  const std::size_t n = seed.size();
  auto base = std::make_shared<StoreSnapshot::Segment>(embedder_->dim());
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
    base->index.add_batch(vecs);
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

std::shared_ptr<const StoreSnapshot> LiveStore::publish() {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  const auto old = head_.load(std::memory_order_acquire);
  auto next = std::make_shared<StoreSnapshot>();
  next->embedder_ = embedder_;
  next->epoch_ = old->epoch_ + 1;
  next->base_ = old->base_;
  next->deltas_ = old->deltas_;
  next->total_rows_ = old->total_rows_ + pend_ids_.size();
  next->dead_count_ = old->dead_count_ + pend_dead_.size();

  if (!pend_ids_.empty()) {
    auto seg = std::make_shared<StoreSnapshot::Segment>(embedder_->dim());
    seg->first_ordinal = old->total_rows_;
    seg->ids = std::move(pend_ids_);
    seg->texts = std::move(pend_texts_);
    seg->index.add_batch(pend_vecs_);
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
    sealed = compact_locked(*sealed);
  }
  head_.store(sealed, std::memory_order_release);
  epoch_hint_.store(sealed->epoch(), std::memory_order_release);
  pending_hint_.store(0, std::memory_order_release);
  compactions_hint_.store(compactions_, std::memory_order_release);
  return sealed;
}

std::shared_ptr<const StoreSnapshot> LiveStore::compact_locked(
    const StoreSnapshot& sealed) {
  auto base = std::make_shared<StoreSnapshot::Segment>(embedder_->dim());
  std::vector<embed::Vector> vecs;
  const std::size_t live = sealed.rows();
  base->ids.reserve(live);
  base->texts.reserve(live);
  vecs.reserve(live);
  for (const StoreSnapshot::Segment* seg : sealed.segments()) {
    for (std::size_t r = 0; r < seg->ids.size(); ++r) {
      const std::size_t ordinal = seg->first_ordinal + r;
      if ((*sealed.dead_)[ordinal] != 0) continue;
      base->ids.push_back(seg->ids[r]);
      base->texts.push_back(seg->texts[r]);
      // Widening the stored fp16 bits is exact, so the rebuilt base
      // holds the same rows.
      vecs.push_back(seg->index.vector(r));
    }
  }

  auto next = std::make_shared<StoreSnapshot>();
  next->embedder_ = embedder_;
  next->epoch_ = sealed.epoch_;
  next->total_rows_ = base->ids.size();
  next->dead_ =
      std::make_shared<const std::vector<std::uint8_t>>(base->ids.size(), 0);
  if (!base->ids.empty()) {
    base->index.add_batch(vecs);
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
