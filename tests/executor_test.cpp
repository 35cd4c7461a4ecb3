// Build + checkpoint determinism contract:
//
//  * the build reproduces its pinned golden digest at any thread count,
//    with the embedding cache on or off;
//  * a checkpoint-restored context is byte-identical to the cold build
//    that populated the cache, and builds that differ only in speed
//    knobs share cache keys;
//  * the docart and manifest codecs round-trip real artifacts byte for
//    byte and reject truncated or hostile lengths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "artifact_digest.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "parallel/dag.hpp"

namespace {

using namespace mcqa;
using core::ArtifactCache;
using core::PipelineConfig;
using core::PipelineContext;
using test::artifact_digest;

constexpr double kTestScale = 0.008;

PipelineConfig test_config(std::size_t threads, bool embed_cache = true,
                           std::string checkpoint_dir = {}) {
  PipelineConfig cfg = PipelineConfig::paper_scale(kTestScale);
  cfg.threads = threads;
  cfg.embed_cache = embed_cache;
  cfg.checkpoint_dir = std::move(checkpoint_dir);
  return cfg;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("mcqa-exec-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

// --- golden byte identity ----------------------------------------------------

TEST(Executor, MatchesGoldenDigestAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const PipelineContext ctx(test_config(threads));
    EXPECT_EQ(artifact_digest(ctx), test::kDigestScale0008)
        << "build diverged at " << threads << " threads";
  }
}

TEST(Executor, EmbedCacheDoesNotChangeArtifacts) {
  const PipelineContext ctx(test_config(8, /*embed_cache=*/false));
  EXPECT_EQ(artifact_digest(ctx), test::kDigestScale0008);
}

TEST(Executor, PerModeStatsAreIndependent) {
  const PipelineContext ctx(test_config(2));
  const auto& s = ctx.stats();
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    EXPECT_EQ(s.traces_per_mode[mi],
              ctx.traces(static_cast<trace::TraceMode>(m)).size());
    EXPECT_GT(s.trace_grading_accuracy[mi], 0.0);
    EXPECT_LE(s.trace_grading_accuracy[mi], 1.0);
  }
}

// --- checkpoint restore ------------------------------------------------------

TEST(Checkpoint, WarmRestoreIsByteIdentical) {
  const TempDir dir;
  const auto cold_cfg = test_config(2, true, dir.path.string());
  const PipelineContext cold(cold_cfg);
  EXPECT_EQ(cold.stats().checkpoint_hits, 0u);
  EXPECT_GT(cold.stats().checkpoint_misses, 0u);
  EXPECT_EQ(artifact_digest(cold), test::kDigestScale0008);

  const PipelineContext warm(cold_cfg);
  EXPECT_GT(warm.stats().checkpoint_hits, 0u);
  EXPECT_EQ(warm.stats().checkpoint_misses, 0u);
  EXPECT_EQ(artifact_digest(warm), test::kDigestScale0008);
  // Restored stats blocks match the cold build's.
  EXPECT_EQ(warm.stats().documents, cold.stats().documents);
  EXPECT_EQ(warm.stats().parse_failures, cold.stats().parse_failures);
  EXPECT_EQ(warm.stats().funnel.candidates, cold.stats().funnel.candidates);
  EXPECT_EQ(warm.stats().routing.fast_routed, cold.stats().routing.fast_routed);
  for (std::size_t m = 0; m < warm.stats().traces_per_mode.size(); ++m) {
    EXPECT_EQ(warm.stats().traces_per_mode[m], cold.stats().traces_per_mode[m]);
    EXPECT_DOUBLE_EQ(warm.stats().trace_grading_accuracy[m],
                     cold.stats().trace_grading_accuracy[m]);
  }
}

TEST(Checkpoint, ThreadCountAndEmbedCacheShareCacheEntries) {
  const TempDir dir;
  // Cold-build on one thread with the embedding cache, then warm-load on
  // eight without it: neither knob is part of the key, so every lookup
  // must hit.
  const PipelineContext cold(test_config(1, true, dir.path.string()));
  const PipelineContext warm(test_config(8, false, dir.path.string()));
  EXPECT_GT(warm.stats().checkpoint_hits, 0u);
  EXPECT_EQ(warm.stats().checkpoint_misses, 0u);
  EXPECT_EQ(artifact_digest(warm), artifact_digest(cold));
}

TEST(Checkpoint, ConfigChangeMissesAndRebuilds) {
  const TempDir dir;
  auto cfg = test_config(2, true, dir.path.string());
  const PipelineContext cold(cfg);
  cfg.builder.quality_threshold += 0.5;  // new benchmark key chain
  const PipelineContext rebuilt(cfg);
  // Upstream artifacts (parsed, chunks, chunk store) still hit.
  EXPECT_GT(rebuilt.stats().checkpoint_misses, 0u);
  EXPECT_NE(artifact_digest(rebuilt), artifact_digest(cold));
}

TEST(Checkpoint, CorruptBlobFallsBackToBuild) {
  const TempDir dir;
  const auto cfg = test_config(2, true, dir.path.string());
  const PipelineContext cold(cfg);
  // Truncate every cached blob; the warm path must rebuild, not crash.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "ckparse1\n";
  }
  const PipelineContext warm(cfg);
  EXPECT_EQ(artifact_digest(warm), artifact_digest(cold));
}

TEST(Checkpoint, UnknownIndexKindFallsBackToBuild) {
  const TempDir dir;
  const auto cfg = test_config(2, true, dir.path.string());
  const PipelineContext cold(cfg);
  // Rewrite every index-blob magic inside the cached artifacts to an
  // unrecognized kind — the version-stamped loaders must reject it, and
  // the warm path must fall into the corrupt-blob rebuild, not crash.
  bool rewrote = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bool changed = false;
    for (const std::string_view magic :
         {"flatidx", "ivfidx", "hnswidx", "sq8idx", "ivfpqidx"}) {
      for (auto pos = bytes.find(magic); pos != std::string::npos;
           pos = bytes.find(magic, pos + 1)) {
        bytes.replace(pos, 3, "zzz");
        changed = true;
      }
    }
    if (changed) {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      rewrote = true;
    }
  }
  ASSERT_TRUE(rewrote);  // trace-store artifacts embed index blobs
  const PipelineContext warm(cfg);
  EXPECT_EQ(artifact_digest(warm), artifact_digest(cold));
}

TEST(Checkpoint, KeysIgnoreSpeedKnobsButTrackConfig) {
  const auto base = test_config(1);
  const auto keys = core::derive_checkpoint_keys(base, 256);

  auto speed = base;
  speed.threads = 8;
  speed.embed_cache = false;
  const auto speed_keys = core::derive_checkpoint_keys(speed, 256);
  EXPECT_EQ(keys.parsed, speed_keys.parsed);
  EXPECT_EQ(keys.chunks, speed_keys.chunks);
  EXPECT_EQ(keys.benchmark, speed_keys.benchmark);
  EXPECT_EQ(keys.traces, speed_keys.traces);

  auto changed = base;
  changed.chunker.target_words += 10;
  const auto changed_keys = core::derive_checkpoint_keys(changed, 256);
  EXPECT_EQ(keys.parsed, changed_keys.parsed);  // upstream unaffected
  EXPECT_NE(keys.chunks, changed_keys.chunks);
  EXPECT_NE(keys.benchmark, changed_keys.benchmark);  // chained downstream
  EXPECT_NE(keys.trace_stores, changed_keys.trace_stores);

  auto dim = core::derive_checkpoint_keys(base, 128);
  EXPECT_NE(keys.chunks, dim.chunks);
}

TEST(Checkpoint, ArtifactCacheRoundTrip) {
  const TempDir dir;
  const ArtifactCache cache(dir.path.string());
  EXPECT_FALSE(cache.load("thing", 42).has_value());
  cache.store("thing", 42, "payload-bytes");
  const auto blob = cache.load("thing", 42);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, "payload-bytes");
  EXPECT_FALSE(cache.load("thing", 43).has_value());
  EXPECT_FALSE(cache.load("other", 42).has_value());
}

/// `v` as the eight little-endian bytes the checkpoint codecs write.
std::string u64_bytes(std::uint64_t v) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &v, 8);
  return out;
}

/// Every blob in `blob`'s prefix family must fail to decode; strided so
/// large blobs stay cheap, always including the last byte.
template <typename Decode>
void expect_truncations_throw(const std::string& blob, Decode decode) {
  const std::size_t step = std::max<std::size_t>(1, blob.size() / 257);
  for (std::size_t len = 0; len < blob.size(); len += step) {
    EXPECT_THROW(decode(std::string_view(blob).substr(0, len)),
                 std::runtime_error)
        << "prefix of " << len << " of " << blob.size() << " bytes";
  }
  EXPECT_THROW(decode(std::string_view(blob).substr(0, blob.size() - 1)),
               std::runtime_error);
}

TEST(Checkpoint, SerializersRoundTrip) {
  // The formats the build reads back: one real per-document artifact
  // (with a record and kept trace lanes) and the manifest.
  const TempDir dir;
  const auto cfg = test_config(2, true, dir.path.string());
  const PipelineContext ctx(cfg);
  const ArtifactCache cache(dir.path.string());
  const std::size_t dim = ctx.embedder().dim();

  std::optional<std::string> doc_blob;
  for (const std::uint64_t key :
       core::derive_doc_keys(cfg, ctx.corpus(), dim)) {
    auto blob = cache.load("docart", key);
    ASSERT_TRUE(blob.has_value());
    const core::DocArtifact art = core::deserialize_docart(*blob);
    const bool traced = std::any_of(
        art.chunks.begin(), art.chunks.end(), [](const auto& c) {
          return c.has_record && c.traces[0].kept;
        });
    if (traced) {
      doc_blob = std::move(blob);
      break;
    }
  }
  ASSERT_TRUE(doc_blob.has_value());
  EXPECT_EQ(core::serialize_docart(core::deserialize_docart(*doc_blob)),
            *doc_blob);
  expect_truncations_throw(*doc_blob, [](std::string_view b) {
    return core::deserialize_docart(b);
  });

  const auto manifest_blob =
      cache.load("manifest", core::derive_manifest_key(cfg, dim));
  ASSERT_TRUE(manifest_blob.has_value());
  const core::ManifestArtifact manifest =
      core::deserialize_manifest(*manifest_blob);
  EXPECT_EQ(manifest.doc_ids.size(), ctx.stats().documents);
  EXPECT_EQ(core::serialize_manifest(manifest), *manifest_blob);
  expect_truncations_throw(*manifest_blob, [](std::string_view b) {
    return core::deserialize_manifest(b);
  });
}

TEST(Checkpoint, HostileDocartLengthThrows) {
  // A route length of 2^64 - pos wraps `pos + n` to zero.  The old
  // check accepted it, took the rest of the blob as the route, rewound
  // the read position to 0 and returned an empty failed parse.
  std::string blob = "ckdoc1\n" + u64_bytes(0);  // magic, parsed_ok
  const std::uint64_t pos = blob.size() + 8;
  blob += u64_bytes(0 - pos) + std::string(64, '\0');
  EXPECT_THROW(core::deserialize_docart(blob), std::runtime_error);
}

TEST(Checkpoint, HostileManifestLengthThrows) {
  std::string blob = "ckmani1\n";
  for (int k = 0; k < 4 + 2 * trace::kTraceModeCount; ++k) {
    blob += u64_bytes(0);  // aggregate keys
  }
  blob += u64_bytes(1);  // one document
  const std::uint64_t pos = blob.size() + 8;
  blob += u64_bytes(0 - pos) + std::string(64, '\0');  // its id
  EXPECT_THROW(core::deserialize_manifest(blob), std::runtime_error);
}

// --- dynamic task groups -----------------------------------------------------

TEST(TaskGroup, DrainsNestedSpawns) {
  parallel::ThreadPool pool(4);
  std::atomic<int> count{0};
  {
    parallel::TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      group.spawn([&group, &count]() {
        count.fetch_add(1);
        group.spawn([&group, &count]() {
          count.fetch_add(1);
          group.spawn([&count]() { count.fetch_add(1); });
        });
      });
    }
    group.wait();
    EXPECT_EQ(count.load(), 48);
  }
}

TEST(TaskGroup, WaitOnEmptyGroupReturns) {
  parallel::ThreadPool pool(2);
  parallel::TaskGroup group(pool);
  group.wait();
  SUCCEED();
}

}  // namespace
