#pragma once
// Live (mutable-under-traffic) retrieval store: RCU-style epoch
// snapshots over the vector-index substrate.
//
// The offline stores (index/vector_store.hpp) are frozen after build().
// The live-serving tier needs the corpus to keep growing *under* query
// traffic — the ROADMAP's "millions of users while the corpus grows"
// shape — without read-path locks and without giving up determinism.
//
// Design (classic read-copy-update, with shared_ptr as the grace
// period):
//
//   * Readers call snapshot() — one atomic shared_ptr load — and run
//     every query against that immutable StoreSnapshot.  No locks, no
//     waits; in-flight queries keep their epoch alive until they drain
//     (the shared_ptr refcount is the RCU grace period).
//   * Writers buffer append/tombstone mutations (embedding happens at
//     append time, off the publish path) and publish() seals them into
//     a new immutable snapshot: the sealed delta becomes one more
//     exact-scan segment, tombstones flip bits in a copied dead bitmap,
//     and the epoch pointer swaps atomically.  Writers serialize on a
//     writer mutex that readers never touch.
//   * When the accumulated deltas + tombstones reach the compaction
//     threshold, publish() folds everything into one rebuilt flat base
//     segment, resetting ordinals and clearing the dead bitmap.
//
// Exactness contract (the live analogue of the sharded scatter-gather
// argument, DESIGN.md §11): every segment is a FlatIndex, so its
// per-query scores are the exact fp16 kernel evaluations a flat rebuild
// makes; each segment is asked for k + dead_count rows so tombstone
// filtering can never evict a true top-k member, and the merge
// comparator is (score desc, live-ordinal asc) where ordinals increase
// in insertion order.  A from-scratch flat store built from the
// snapshot's live rows in ordinal order therefore returns bit-identical
// hits (ids, texts, scores) at every published epoch.
//
// Determinism: publish/compaction decisions are pure functions of the
// mutation sequence and config — no wall-clock, no thread-count
// dependence.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "embed/embedder.hpp"
#include "index/vector_index.hpp"
#include "index/vector_store.hpp"

namespace mcqa::serve {

struct LiveStoreConfig {
  /// Index kind of every segment.  Only kFlat: the LiveStore
  /// constructors throw std::invalid_argument on any other kind.
  index::IndexKind compact_kind = index::IndexKind::kFlat;
  /// Fold deltas + tombstones into a rebuilt base when their combined
  /// count reaches this at publish time.  0 compacts on every publish.
  std::size_t compact_threshold = 256;
};

/// One immutable published epoch: a base segment, zero or more sealed
/// delta segments, and a dead bitmap over row ordinals.  Queries touch
/// only immutable state, so a snapshot can be shared by any number of
/// concurrent readers while later epochs are published.
class StoreSnapshot {
 public:
  std::uint64_t epoch() const { return epoch_; }

  std::size_t rows() const { return total_rows_ - dead_count_; }
  std::size_t base_rows() const;
  std::size_t delta_rows() const { return total_rows_ - base_rows(); }
  std::size_t delta_segments() const { return deltas_.size(); }
  std::size_t tombstones() const { return dead_count_; }

  /// Exact top-k over the live rows: bit-identical to a from-scratch
  /// flat store of live_rows().
  std::vector<index::Hit> query(std::string_view text, std::size_t k) const;
  std::vector<index::Hit> query_vector(const embed::Vector& v,
                                       std::size_t k) const;

  /// Tiled batch variant: every segment scans the whole batch in
  /// kTileQ query tiles (search_tiled) before the per-query dead-row
  /// filter + merge.  Entry i is bit-identical to query(texts[i], k) /
  /// query_vector(vs[i], k).
  std::vector<std::vector<index::Hit>> query_batch(
      const std::vector<std::string>& texts, std::size_t k) const;
  std::vector<std::vector<index::Hit>> query_vectors(
      const std::vector<embed::Vector>& vs, std::size_t k) const;

  /// Live (id, text) pairs in ordinal order — exactly the rows a
  /// from-scratch rebuild of this epoch would index, in order.
  std::vector<std::pair<std::string, std::string>> live_rows() const;

 private:
  friend class LiveStore;

  /// One immutable run of rows sharing a contiguous ordinal range.
  struct Segment {
    explicit Segment(std::size_t dim) : index(dim) {}
    index::FlatIndex index;
    std::vector<std::string> ids;
    std::vector<std::string> texts;
    std::size_t first_ordinal = 0;
  };

  /// The base (if any), then the deltas: ascending ordinal order.
  std::vector<const Segment*> segments() const;
  /// One query's live top-k from each segment's top k + dead_count_
  /// rows (found[s] belongs to segments()[s]): dead rows are dropped,
  /// the rest merged by (score desc, ordinal asc).
  std::vector<index::Hit> merge(
      const std::vector<const Segment*>& segments,
      const std::vector<std::vector<index::SearchResult>>& found,
      std::size_t k) const;

  const embed::Embedder* embedder_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const Segment> base_;
  std::vector<std::shared_ptr<const Segment>> deltas_;
  /// Dead bitmap indexed by ordinal (size total_rows_); copied on
  /// publish, never mutated after.
  std::shared_ptr<const std::vector<std::uint8_t>> dead_;
  std::size_t dead_count_ = 0;
  std::size_t total_rows_ = 0;
};

class LiveStore {
 public:
  LiveStore(const embed::Embedder& embedder, LiveStoreConfig config = {});
  /// Seed from a frozen store's rows (flat stores copy their fp16 rows
  /// without re-embedding; other kinds re-embed, which is pure).  The
  /// seed rows become epoch 1's base segment.  Both constructors throw
  /// std::invalid_argument unless config.compact_kind is kFlat.
  LiveStore(const index::VectorStore& seed, LiveStoreConfig config = {});

  // --- write path (serialized on a writer mutex; never blocks readers) ------

  /// Buffer one row.  Appending an id that is already live upserts:
  /// the old row is tombstoned and the new one appended.
  void append(std::string id, std::string text);
  /// Buffer a tombstone.  False when `id` is not live.
  bool tombstone(std::string_view id);
  /// Seal buffered mutations into a new immutable snapshot and swap the
  /// epoch pointer.  Compacts when deltas + tombstones reach
  /// config.compact_threshold.  Publishing with nothing buffered still
  /// advances the epoch.
  std::shared_ptr<const StoreSnapshot> publish();

  // --- read path (zero locks) -----------------------------------------------

  /// The current epoch's snapshot: one atomic load.  The returned
  /// snapshot stays valid for as long as the caller holds it, however
  /// many epochs are published meanwhile.
  std::shared_ptr<const StoreSnapshot> snapshot() const {
    return head_.load(std::memory_order_acquire);
  }

  std::uint64_t epoch() const {
    return epoch_hint_.load(std::memory_order_acquire);
  }
  /// Buffered mutations not yet published (staleness numerator).
  std::size_t pending() const {
    return pending_hint_.load(std::memory_order_acquire);
  }
  std::size_t compactions() const {
    return compactions_hint_.load(std::memory_order_acquire);
  }

  const embed::Embedder& embedder() const { return *embedder_; }
  const LiveStoreConfig& config() const { return config_; }

 private:
  std::shared_ptr<const StoreSnapshot> compact_locked(
      const StoreSnapshot& sealed);

  const embed::Embedder* embedder_;
  LiveStoreConfig config_;

  mutable std::mutex writer_mu_;
  std::atomic<std::shared_ptr<const StoreSnapshot>> head_;
  // Writer-side state (guarded by writer_mu_).
  std::vector<std::string> pend_ids_;
  std::vector<std::string> pend_texts_;
  std::vector<embed::Vector> pend_vecs_;
  std::vector<std::size_t> pend_dead_;  ///< ordinals tombstoned since publish
  std::unordered_map<std::string, std::size_t> live_;  ///< id -> ordinal
  std::uint64_t compactions_ = 0;

  // Lock-free mirrors for monitoring (read path / metrics).
  std::atomic<std::uint64_t> epoch_hint_{0};
  std::atomic<std::size_t> pending_hint_{0};
  std::atomic<std::uint64_t> compactions_hint_{0};
};

}  // namespace mcqa::serve
