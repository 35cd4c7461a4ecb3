// Live store: RCU epoch snapshots, upsert/tombstone semantics,
// deterministic compaction, and the bit-identity contract against a
// from-scratch rebuild at every published epoch.  The
// LiveStoreConcurrency suite is the tsan lane's RCU publish/drain
// surface: lock-free readers racing writers across compactions.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "embed/embedder.hpp"
#include "embed/hashed_embedder.hpp"
#include "index/vector_store.hpp"
#include "serve/live_store.hpp"

namespace mcqa::serve {
namespace {

std::string row_text(int i) {
  return "sepsis cohort protocol note " + std::to_string(i * 13 % 97) +
         " marker " + std::to_string(i);
}

std::string row_id(int i) { return "row-" + std::to_string(i); }

/// From-scratch flat store over the snapshot's live rows — the oracle
/// every published epoch must match bit-for-bit.
index::VectorStore rebuild_flat(const embed::Embedder& embedder,
                                const StoreSnapshot& snap) {
  index::VectorStore store(embedder, index::IndexKind::kFlat);
  for (const auto& [id, text] : snap.live_rows()) store.add(id, text);
  store.build();
  return store;
}

void expect_same_hits(const std::vector<index::Hit>& got,
                      const std::vector<index::Hit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].text, want[i].text) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

void expect_matches_rebuild(const embed::Embedder& embedder,
                            const StoreSnapshot& snap) {
  const index::VectorStore oracle = rebuild_flat(embedder, snap);
  ASSERT_EQ(snap.rows(), oracle.size());
  for (const std::string& q :
       {std::string("sepsis cohort protocol"), row_text(3), row_text(17),
        std::string("unrelated query about quasars")}) {
    expect_same_hits(snap.query(q, 5), oracle.query(q, 5));
  }
}

LiveStoreConfig flat_config(std::size_t threshold = 1u << 20) {
  LiveStoreConfig config;
  config.compact_threshold = threshold;
  return config;
}

TEST(LiveStoreTest, EmptyStoreQueriesAndPublishes) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder);
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->epoch(), 0u);
  EXPECT_EQ(snap->rows(), 0u);
  EXPECT_TRUE(snap->query("anything", 5).empty());
  EXPECT_TRUE(snap->live_rows().empty());

  // Publishing with nothing buffered still advances the epoch.
  const auto next = store.publish();
  EXPECT_EQ(next->epoch(), 1u);
  EXPECT_EQ(next->rows(), 0u);
  EXPECT_EQ(store.epoch(), 1u);
}

TEST(LiveStoreTest, AppendsInvisibleUntilPublish) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config());
  for (int i = 0; i < 8; ++i) store.append(row_id(i), row_text(i));
  EXPECT_EQ(store.pending(), 8u);
  EXPECT_EQ(store.snapshot()->rows(), 0u);

  store.publish();
  EXPECT_EQ(store.pending(), 0u);
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->rows(), 8u);
  EXPECT_EQ(snap->delta_segments(), 1u);
  expect_matches_rebuild(embedder, *snap);
}

TEST(LiveStoreTest, SnapshotOutlivesLaterEpochs) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config());
  for (int i = 0; i < 6; ++i) store.append(row_id(i), row_text(i));
  store.publish();

  const auto old_snap = store.snapshot();
  const auto old_hits = old_snap->query("sepsis cohort protocol", 5);

  for (int i = 6; i < 40; ++i) store.append(row_id(i), row_text(i));
  store.publish();
  store.tombstone(row_id(0));
  store.publish();

  // The pinned epoch still answers from its own immutable state.
  EXPECT_EQ(old_snap->epoch(), 1u);
  EXPECT_EQ(old_snap->rows(), 6u);
  expect_same_hits(old_snap->query("sepsis cohort protocol", 5), old_hits);
  EXPECT_EQ(store.snapshot()->epoch(), 3u);
  EXPECT_EQ(store.snapshot()->rows(), 39u);
}

TEST(LiveStoreTest, UpsertReplacesLiveRow) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config());
  store.append("doc", "version one of the payload");
  store.publish();
  store.append("doc", "version two of the payload");
  store.publish();

  const auto snap = store.snapshot();
  EXPECT_EQ(snap->rows(), 1u);
  EXPECT_EQ(snap->tombstones(), 1u);
  const auto rows = snap->live_rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, "doc");
  EXPECT_EQ(rows[0].second, "version two of the payload");
  expect_matches_rebuild(embedder, *snap);
}

TEST(LiveStoreTest, UpsertBeforeFirstPublishTombstonesPendingRow) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config());
  store.append("doc", "first draft");
  store.append("doc", "second draft");
  store.publish();
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->rows(), 1u);
  const auto rows = snap->live_rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "second draft");
  expect_matches_rebuild(embedder, *snap);
}

TEST(LiveStoreTest, TombstoneFiltersTopKExactly) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config());
  for (int i = 0; i < 24; ++i) store.append(row_id(i), row_text(i));
  store.publish();

  const auto before = store.snapshot()->query(row_text(7), 3);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before[0].id, row_id(7));

  EXPECT_TRUE(store.tombstone(row_id(7)));
  EXPECT_FALSE(store.tombstone(row_id(7)));  // no longer live
  EXPECT_FALSE(store.tombstone("never-existed"));
  store.publish();

  const auto snap = store.snapshot();
  EXPECT_EQ(snap->rows(), 23u);
  for (const index::Hit& hit : snap->query(row_text(7), 5)) {
    EXPECT_NE(hit.id, row_id(7));
  }
  expect_matches_rebuild(embedder, *snap);
}

TEST(LiveStoreTest, SeededFromFlatStoreIsBitIdentical) {
  const embed::HashedNGramEmbedder embedder;
  index::VectorStore seed(embedder, index::IndexKind::kFlat);
  for (int i = 0; i < 32; ++i) seed.add(row_id(i), row_text(i));
  seed.build();

  LiveStore store(seed, flat_config());
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->rows(), 32u);
  EXPECT_EQ(snap->base_rows(), 32u);
  EXPECT_EQ(snap->delta_segments(), 0u);
  for (const std::string& q : {row_text(4), row_text(21)}) {
    expect_same_hits(snap->query(q, 5), seed.query(q, 5));
  }
}

TEST(LiveStoreTest, ConstructorsRejectKindsOtherThanFlat) {
  // Every segment is a FlatIndex; a store that could only fail at its
  // first compaction is refused when it is built.
  const embed::HashedNGramEmbedder embedder;
  index::VectorStore seed(embedder, index::IndexKind::kFlat);
  seed.add(row_id(0), row_text(0));
  seed.build();
  for (const index::IndexKind kind :
       {index::IndexKind::kIvfPq, static_cast<index::IndexKind>(3)}) {
    LiveStoreConfig config;
    config.compact_kind = kind;
    EXPECT_THROW((LiveStore{embedder, config}), std::invalid_argument);
    EXPECT_THROW((LiveStore{seed, config}), std::invalid_argument);
  }
}

TEST(LiveStoreTest, CompactionFoldsDeltasAndTombstones) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config(/*threshold=*/16));
  for (int round = 0; round < 4; ++round) {
    for (int i = round * 8; i < (round + 1) * 8; ++i) {
      store.append(row_id(i), row_text(i));
    }
    if (round > 0) store.tombstone(row_id(round));  // retire an old row
    store.publish();
  }
  EXPECT_GE(store.compactions(), 1u);

  const auto snap = store.snapshot();
  EXPECT_EQ(snap->rows(), 32u - 3u);
  // The last fold rebuilt the base and cleared the delta/tombstone tail.
  EXPECT_LE(snap->tombstones() + snap->delta_rows(), 16u);
  expect_matches_rebuild(embedder, *snap);

  // Mutations keep working against the rebuilt base (ordinals remapped).
  EXPECT_TRUE(store.tombstone(row_id(20)));
  store.append(row_id(5), "refreshed payload for row five");
  store.publish();
  expect_matches_rebuild(embedder, *store.snapshot());
}

TEST(LiveStoreTest, EveryEpochMatchesFromScratchRebuild) {
  const embed::HashedNGramEmbedder embedder;
  // Threshold low enough that the script crosses several compactions.
  LiveStore store(embedder, flat_config(12));
  int next_row = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int j = 0; j < 5; ++j) {
      store.append(row_id(next_row), row_text(next_row));
      ++next_row;
    }
    if (epoch % 2 == 1) store.tombstone(row_id(epoch));
    if (epoch % 3 == 2) store.append(row_id(1), row_text(90 + epoch));
    store.publish();
    expect_matches_rebuild(embedder, *store.snapshot());
  }
  EXPECT_GE(store.compactions(), 1u);
}

TEST(LiveStoreTest, CompactionIsDeterministic) {
  const embed::HashedNGramEmbedder embedder;
  const auto run = [&embedder] {
    LiveStore store(embedder, flat_config(/*threshold=*/8));
    for (int i = 0; i < 30; ++i) {
      store.append(row_id(i), row_text(i));
      if (i % 5 == 4) {
        store.tombstone(row_id(i - 3));
        store.publish();
      }
    }
    store.publish();
    return store.snapshot();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a->epoch(), b->epoch());
  EXPECT_EQ(a->rows(), b->rows());
  EXPECT_EQ(a->live_rows(), b->live_rows());
  for (const std::string& q : {row_text(11), row_text(28)}) {
    expect_same_hits(a->query(q, 6), b->query(q, 6));
  }
}

// --- tsan surface: lock-free readers racing the writer ----------------------

TEST(LiveStoreConcurrency, ReadersNeverBlockDuringPublish) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config(/*threshold=*/24));
  for (int i = 0; i < 16; ++i) store.append(row_id(i), row_text(i));
  store.publish();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&store, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = store.snapshot();
        // Each snapshot must be internally consistent however many
        // epochs the writer publishes meanwhile.
        const auto hits = snap->query("sepsis cohort protocol", 5);
        EXPECT_LE(hits.size(), 5u);
        EXPECT_LE(hits.size(), snap->rows());
        EXPECT_EQ(snap->live_rows().size(), snap->rows());
      }
    });
  }

  for (int i = 16; i < 112; ++i) {
    store.append(row_id(i), row_text(i));
    if (i % 7 == 0) store.tombstone(row_id(i - 10));
    if (i % 4 == 0) store.publish();
  }
  store.publish();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GE(store.compactions(), 1u);
  expect_matches_rebuild(embedder, *store.snapshot());
}

TEST(LiveStoreConcurrency, PinnedSnapshotStableUnderWriterChurn) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config(/*threshold=*/16));
  for (int i = 0; i < 12; ++i) store.append(row_id(i), row_text(i));
  store.publish();

  const auto pinned = store.snapshot();
  const auto want = pinned->query(row_text(3), 4);

  std::thread writer([&store] {
    for (int i = 12; i < 140; ++i) {
      store.append(row_id(i), row_text(i));
      if (i % 3 == 0) store.publish();
    }
    store.publish();
  });
  for (int probe = 0; probe < 50; ++probe) {
    expect_same_hits(pinned->query(row_text(3), 4), want);
  }
  writer.join();

  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->rows(), 12u);
  EXPECT_GT(store.snapshot()->epoch(), pinned->epoch());
}

TEST(LiveStoreConcurrency, ConcurrentWritersSerialize) {
  const embed::HashedNGramEmbedder embedder;
  LiveStore store(embedder, flat_config(/*threshold=*/32));
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < 25; ++i) {
        store.append("w" + std::to_string(w) + "-" + std::to_string(i),
                     row_text(w * 100 + i));
        if (i % 6 == 5) store.publish();
      }
    });
  }
  for (auto& t : writers) t.join();
  store.publish();

  const auto snap = store.snapshot();
  EXPECT_EQ(snap->rows(), 100u);
  expect_matches_rebuild(embedder, *snap);
}

}  // namespace
}  // namespace mcqa::serve
