#include "core/executor.hpp"

#include <array>
#include <memory>
#include <optional>
#include <utility>

#include "core/checkpoint.hpp"
#include "parallel/dag.hpp"
#include "parallel/thread_pool.hpp"

namespace mcqa::core {

/// Per-trace slot filled by a fused generate+grade+embed task.
struct OverlappedBuilder::TraceSlot {
  trace::TraceRecord trace;
  std::string retrieval;
  embed::Vector vector;
};

/// Everything one document's task tree produces, slot-indexed so
/// concurrent writers never touch the same element.  The funnel
/// counters are per-document so an incremental run can persist and
/// restore each document's rejection tally exactly; document-ordered
/// sums of relaxed counters equal the old process-global totals
/// bit-for-bit (commutative integer adds).  Atomics make DocSlots
/// immovable — the slots vector is sized once and never reallocated.
struct OverlappedBuilder::DocSlots {
  parse::ParseOutcome outcome;
  std::vector<chunk::Chunk> chunks;
  std::vector<embed::Vector> vectors;
  std::vector<std::optional<qgen::McqRecord>> records;
  std::vector<std::array<std::unique_ptr<TraceSlot>, trace::kTraceModeCount>>
      traces;
  qgen::FunnelCounters funnel;
};

/// Store-ready rows extracted by merge_slots in (document, chunk, mode)
/// order.
struct OverlappedBuilder::StoreRows {
  struct Rows {
    std::vector<std::string> ids;
    std::vector<std::string> texts;
    std::vector<embed::Vector> vectors;
  };
  Rows chunks;
  std::array<Rows, trace::kTraceModeCount> traces;
};

void OverlappedBuilder::build_slots(parallel::ThreadPool& pool,
                                    std::vector<DocSlots>& slots,
                                    const std::vector<char>& dirty) {
  PipelineContext& ctx = ctx_;
  const PipelineConfig& config = ctx.config_;
  // Every build text is embedded once, so the build goes straight to
  // the encoder; the query cache would only store vectors never asked
  // for again.
  const embed::Embedder& embedder = ctx.embedder();

  const parse::AdaptiveParser parser(config.parser);
  std::optional<chunk::SemanticChunker> semantic;
  std::optional<chunk::FixedSizeChunker> fixed;
  if (config.semantic_chunking) {
    semantic.emplace(embedder, config.chunker);
  } else {
    fixed.emplace(config.chunker);
  }
  const qgen::BenchmarkBuilder builder(*ctx.teacher_, config.builder);
  const trace::TraceGenerator tracer(*ctx.teacher_, config.tracegen);

  const auto& docs = ctx.corpus_.documents;

  // The dataflow: one task per document fans out per-chunk question
  // tasks (and, for fixed-size chunks, embed tasks; the semantic
  // chunker hands over its own window vectors) as soon as its chunks
  // exist; each accepted record fans out its three trace-mode tasks.
  // Tasks only write their own slot and only spawn — never block — so
  // the group drains without any cross-task waiting.  Every per-item
  // computation is a pure function of that item's content, so running
  // the tree over any dirty subset yields the same slot bytes as
  // running it over all.
  parallel::TaskGroup group(pool);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (dirty[i] == 0) continue;
    group.spawn([&, i]() {
      DocSlots& slot = slots[i];
      slot.outcome = parser.parse(docs[i].bytes);
      if (!slot.outcome.ok) return;
      // Provenance fallback must precede chunking: chunk ids derive
      // from the doc id.
      if (slot.outcome.document.doc_id.empty()) {
        slot.outcome.document.doc_id = docs[i].doc_id;
      }
      if (semantic) {
        slot.chunks = semantic->chunk(slot.outcome.document, slot.vectors);
      } else {
        slot.chunks = fixed->chunk(slot.outcome.document);
        slot.vectors.resize(slot.chunks.size());
      }
      const std::size_t n = slot.chunks.size();
      slot.records.resize(n);
      slot.traces.resize(n);
      for (std::size_t c = 0; c < n; ++c) {
        if (fixed) {
          group.spawn([&, i, c]() {
            DocSlots& s = slots[i];
            s.vectors[c] = embedder.embed(s.chunks[c].text);
          });
        }
        group.spawn([&, i, c]() {
          DocSlots& s = slots[i];
          s.records[c] = builder.build_one(s.chunks[c], s.funnel);
          if (!s.records[c].has_value()) return;
          for (int m = 0; m < trace::kTraceModeCount; ++m) {
            group.spawn([&, i, c, m]() {
              DocSlots& sm = slots[i];
              auto out = std::make_unique<TraceSlot>();
              out->trace = tracer.generate(*sm.records[c],
                                           static_cast<trace::TraceMode>(m));
              trace::grade_trace(out->trace);
              if (!out->trace.grading.is_correct) return;
              out->retrieval = out->trace.retrieval_text();
              out->vector = embedder.embed(out->retrieval);
              sm.traces[c][static_cast<std::size_t>(m)] = std::move(out);
            });
          }
        });
      }
    });
  }
  group.wait();
}

OverlappedBuilder::StoreRows OverlappedBuilder::merge_slots(
    std::vector<DocSlots>& slots) {
  // Merge in (document, chunk, mode) order, so the artifacts come out
  // byte-for-byte the same whatever order the tasks finished in.
  PipelineContext& ctx = ctx_;
  PipelineStats& stats = ctx.stats_;
  std::size_t ok_docs = 0;
  std::size_t total_chunks = 0;
  for (const auto& slot : slots) {
    ok_docs += slot.outcome.ok ? 1 : 0;
    total_chunks += slot.chunks.size();
  }
  ctx.parsed_.reserve(ok_docs);
  ctx.chunks_.reserve(total_chunks);

  for (std::size_t i = 0; i < slots.size(); ++i) {
    auto& outcome = slots[i].outcome;
    ++stats.routing.total;
    stats.routing.compute_cost += outcome.compute_cost;
    stats.routing.always_accurate_cost += 8.0;  // AccurateSpdfParser::cost
    if (outcome.route == "fast") ++stats.routing.fast_routed;
    else if (outcome.route == "accurate") ++stats.routing.accurate_routed;
    else if (outcome.route == "fast->accurate") ++stats.routing.escalated;
    else if (outcome.route == "markdown" || outcome.route == "text")
      ++stats.routing.non_spdf;
    if (!outcome.ok) {
      ++stats.routing.failed;
      ++stats.parse_failures;
      continue;
    }
    ctx.parsed_.push_back(std::move(outcome.document));
  }
  stats.documents = slots.size();

  StoreRows rows;
  rows.chunks.ids.reserve(total_chunks);
  rows.chunks.texts.reserve(total_chunks);
  rows.chunks.vectors.reserve(total_chunks);
  for (auto& slot : slots) {
    for (std::size_t c = 0; c < slot.chunks.size(); ++c) {
      rows.chunks.ids.push_back(slot.chunks[c].chunk_id);
      rows.chunks.texts.push_back(slot.chunks[c].text);
      rows.chunks.vectors.push_back(std::move(slot.vectors[c]));
      ctx.chunks_.push_back(std::move(slot.chunks[c]));
    }
  }
  stats.chunks = ctx.chunks_.size();

  for (auto& slot : slots) {
    for (auto& record : slot.records) {
      if (record.has_value()) ctx.benchmark_.push_back(std::move(*record));
    }
  }
  std::size_t candidates = 0;
  std::size_t rejected_no_fact = 0;
  std::size_t rejected_quality = 0;
  std::size_t rejected_relevance = 0;
  for (const auto& slot : slots) {
    candidates += slot.funnel.candidates.load();
    rejected_no_fact += slot.funnel.rejected_no_fact.load();
    rejected_quality += slot.funnel.rejected_quality.load();
    rejected_relevance += slot.funnel.rejected_relevance.load();
  }
  stats.funnel.chunks = total_chunks;
  stats.funnel.candidates = candidates;
  stats.funnel.rejected_no_fact = rejected_no_fact;
  stats.funnel.rejected_quality = rejected_quality;
  stats.funnel.rejected_relevance = rejected_relevance;
  stats.funnel.accepted = ctx.benchmark_.size();

  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    auto& lane = rows.traces[mi];
    lane.ids.reserve(ctx.benchmark_.size());
    lane.texts.reserve(ctx.benchmark_.size());
    lane.vectors.reserve(ctx.benchmark_.size());
    for (auto& slot : slots) {
      for (auto& lanes : slot.traces) {
        if (!lanes[mi]) continue;
        lane.ids.push_back(lanes[mi]->trace.trace_id);
        lane.texts.push_back(std::move(lanes[mi]->retrieval));
        lane.vectors.push_back(std::move(lanes[mi]->vector));
        ctx.traces_[mi].push_back(std::move(lanes[mi]->trace));
      }
    }
    stats.traces_per_mode[mi] = ctx.traces_[mi].size();
    // Every record was traced and graded in each mode; the filter kept
    // exactly the correct ones, so the pre-filter tally is the record
    // count — the same integers the dataflow's completion counters
    // held, now derivable for any restored/recomputed doc mix.
    const std::size_t graded = ctx.benchmark_.size();
    stats.trace_grading_accuracy[mi] =
        graded == 0 ? 0.0
                    : static_cast<double>(ctx.traces_[mi].size()) /
                          static_cast<double>(graded);
  }
  return rows;
}

DocArtifact OverlappedBuilder::to_artifact(const DocSlots& slot) {
  DocArtifact art;
  art.parsed_ok = slot.outcome.ok;
  art.route = slot.outcome.route;
  art.compute_cost = slot.outcome.compute_cost;
  if (slot.outcome.ok) art.document = slot.outcome.document;
  art.funnel_candidates = slot.funnel.candidates.load();
  art.funnel_rejected_no_fact = slot.funnel.rejected_no_fact.load();
  art.funnel_rejected_quality = slot.funnel.rejected_quality.load();
  art.funnel_rejected_relevance = slot.funnel.rejected_relevance.load();
  art.chunks.resize(slot.chunks.size());
  for (std::size_t c = 0; c < slot.chunks.size(); ++c) {
    DocChunkArtifact& ca = art.chunks[c];
    ca.chunk = slot.chunks[c];
    ca.vector = slot.vectors[c];
    ca.has_record = slot.records[c].has_value();
    if (!ca.has_record) continue;
    ca.record = *slot.records[c];
    for (int m = 0; m < trace::kTraceModeCount; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      const auto& lane = slot.traces[c][mi];
      if (!lane) continue;
      ca.traces[mi].kept = true;
      ca.traces[mi].trace = lane->trace;
      ca.traces[mi].retrieval = lane->retrieval;
      ca.traces[mi].vector = lane->vector;
    }
  }
  return art;
}

void OverlappedBuilder::fill_slot(DocSlots& slot, DocArtifact&& art) {
  slot.outcome.ok = art.parsed_ok;
  slot.outcome.route = std::move(art.route);
  slot.outcome.compute_cost = art.compute_cost;
  if (art.parsed_ok) slot.outcome.document = std::move(art.document);
  slot.funnel.candidates.store(art.funnel_candidates);
  slot.funnel.rejected_no_fact.store(art.funnel_rejected_no_fact);
  slot.funnel.rejected_quality.store(art.funnel_rejected_quality);
  slot.funnel.rejected_relevance.store(art.funnel_rejected_relevance);
  const std::size_t n = art.chunks.size();
  slot.chunks.reserve(n);
  slot.vectors.reserve(n);
  slot.records.reserve(n);
  slot.traces.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    DocChunkArtifact& ca = art.chunks[c];
    slot.chunks.push_back(std::move(ca.chunk));
    slot.vectors.push_back(std::move(ca.vector));
    if (ca.has_record) {
      slot.records.emplace_back(std::move(ca.record));
      for (int m = 0; m < trace::kTraceModeCount; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        if (!ca.traces[mi].kept) continue;
        auto out = std::make_unique<TraceSlot>();
        out->trace = std::move(ca.traces[mi].trace);
        out->retrieval = std::move(ca.traces[mi].retrieval);
        out->vector = std::move(ca.traces[mi].vector);
        slot.traces[c][mi] = std::move(out);
      }
    } else {
      slot.records.emplace_back(std::nullopt);
    }
  }
}

void OverlappedBuilder::run(parallel::ThreadPool& pool,
                            const ArtifactCache* cache) {
  PipelineContext& ctx = ctx_;
  const PipelineConfig& config = ctx.config_;
  // The stores answer text queries through the query cache.
  const embed::Embedder& embedder = ctx.query_embedder();
  const auto& docs = ctx.corpus_.documents;
  const std::size_t n = docs.size();

  std::vector<DocSlots> slots(n);
  std::vector<char> dirty(n, 1);
  CheckpointKeys keys;
  std::vector<std::uint64_t> doc_keys;
  std::uint64_t manifest_key = 0;
  // The previous revision's manifest (same configuration family): the
  // IVF-PQ delta path finds its donor stores through its aggregate
  // keys.  A corrupt manifest is ignored — it only costs the donor.
  std::optional<ManifestArtifact> previous;
  if (cache != nullptr) {
    keys = derive_checkpoint_keys(config, embedder.dim());
    doc_keys = derive_doc_keys(config, ctx.corpus_, embedder.dim());
    manifest_key = derive_manifest_key(config, embedder.dim());
    if (const auto blob = cache->load("manifest", manifest_key)) {
      try {
        previous = deserialize_manifest(*blob);
      } catch (const std::exception&) {
        cache->note_corrupt();
      }
    }

    // Restore pass: every document's subtree loads independently, in
    // parallel.  Decode fully before touching the slot, so a corrupt
    // blob dirties the document instead of half-filling it.
    parallel::parallel_for(pool, 0, n, [&](std::size_t i) {
      const auto blob = cache->load("docart", doc_keys[i]);
      if (!blob.has_value()) return;
      std::optional<DocArtifact> art;
      try {
        art.emplace(deserialize_docart(*blob));
      } catch (const std::exception&) {
        cache->note_corrupt();
        return;
      }
      fill_slot(slots[i], std::move(*art));
      dirty[i] = 0;
    });
  }

  std::size_t dirty_count = 0;
  for (const char d : dirty) dirty_count += static_cast<std::size_t>(d);
  if (cache != nullptr) {
    ctx.stats_.doc_artifacts_restored = n - dirty_count;
    ctx.stats_.doc_artifacts_recomputed = dirty_count;
  }

  if (dirty_count > 0) {
    build_slots(pool, slots, dirty);
    // Persist the recomputed subtrees before the merge moves them out.
    if (cache != nullptr) {
      parallel::parallel_for(pool, 0, n, [&](std::size_t i) {
        if (dirty[i] == 0) return;
        cache->store("docart", doc_keys[i],
                     serialize_docart(to_artifact(slots[i])));
      });
    }
  }

  // Changed-row fractions per store, computed before the merge consumes
  // the slots.  A restored document contributes unchanged rows.
  std::size_t chunk_rows = 0;
  std::size_t dirty_chunk_rows = 0;
  std::array<std::size_t, trace::kTraceModeCount> trace_rows{};
  std::array<std::size_t, trace::kTraceModeCount> dirty_trace_rows{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = slots[i].chunks.size();
    chunk_rows += c;
    if (dirty[i] != 0) dirty_chunk_rows += c;
    for (const auto& lanes : slots[i].traces) {
      for (int m = 0; m < trace::kTraceModeCount; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        if (!lanes[mi]) continue;
        ++trace_rows[mi];
        if (dirty[i] != 0) ++dirty_trace_rows[mi];
      }
    }
  }
  const auto fraction_of = [](std::size_t dirty_rows, std::size_t total) {
    return total == 0
               ? 0.0
               : static_cast<double>(dirty_rows) / static_cast<double>(total);
  };

  StoreRows rows = merge_slots(slots);

  // Stores: a fully-restored run warm-loads the store blobs outright;
  // otherwise (or when a blob is corrupt/missing) the store is
  // assembled from the merged rows — reusing every surviving embedding
  // — and finalized delta-aware: IVF-PQ re-encodes against the donor's
  // frozen codebooks when the changed fraction is at or under the
  // retrain threshold, every other kind (and every cold build) builds
  // from scratch.  `previous` is only ever set on the cache path.
  struct StoreJob {
    std::unique_ptr<index::VectorStore>* target;
    std::string name;
    std::uint64_t key;
    std::uint64_t donor_key;
    StoreRows::Rows* data;
    double changed;
    std::unique_ptr<index::VectorStore> donor;
    bool assembled = false;  ///< built from rows, not restored
  };
  std::vector<StoreJob> jobs;
  jobs.push_back({&ctx.chunk_store_, "chunk-store", keys.chunk_store,
                  previous.has_value() ? previous->keys.chunk_store
                                       : keys.chunk_store,
                  &rows.chunks, fraction_of(dirty_chunk_rows, chunk_rows),
                  nullptr});
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    jobs.push_back(
        {&ctx.trace_stores_[mi],
         trace_mode_blob_name("trace-store", static_cast<trace::TraceMode>(m)),
         keys.trace_stores[mi],
         previous.has_value() ? previous->keys.trace_stores[mi]
                              : keys.trace_stores[mi],
         &rows.traces[mi], fraction_of(dirty_trace_rows[mi], trace_rows[mi]),
         nullptr});
  }

  const auto assemble = [&](StoreJob& job) {
    if (cache != nullptr && dirty_count == 0) {
      if (const auto blob = cache->load(job.name, job.key)) {
        try {
          *job.target = std::make_unique<index::VectorStore>(
              index::VectorStore::load(embedder, *blob));
          return;
        } catch (const std::exception&) {
          cache->note_corrupt();
        }
      }
    }
    auto target =
        std::make_unique<index::VectorStore>(embedder, config.index_kind);
    target->add_precomputed(std::move(job.data->ids),
                            std::move(job.data->texts), job.data->vectors);
    job.data->vectors = {};  // the index holds its own copy now
    if (config.index_kind == index::IndexKind::kIvfPq &&
        previous.has_value() &&
        job.changed <= config.ivfpq_retrain_threshold &&
        job.donor_key != job.key) {
      if (const auto blob = cache->load(job.name, job.donor_key)) {
        try {
          job.donor = std::make_unique<index::VectorStore>(
              index::VectorStore::load(embedder, *blob));
        } catch (const std::exception&) {
          cache->note_corrupt();
        }
      }
    }
    *job.target = std::move(target);
    job.assembled = true;
  };

  // The stores are independent: assemble them, and later save them, as
  // concurrent pool tasks.  Training runs between the two phases, one
  // store at a time across the whole pool, from this thread: a pool
  // task may not wait on its own pool (parallel/dag.hpp).
  parallel::parallel_for(
      pool, 0, jobs.size(), [&](std::size_t j) { assemble(jobs[j]); },
      /*grain=*/1);
  for (StoreJob& job : jobs) {
    if (!job.assembled) continue;
    (*job.target)->build_delta(job.donor.get(), job.changed,
                               config.ivfpq_retrain_threshold, pool);
    job.donor.reset();
  }
  if (cache != nullptr) {
    parallel::parallel_for(
        pool, 0, jobs.size(),
        [&](std::size_t j) {
          if (jobs[j].assembled) {
            cache->store(jobs[j].name, jobs[j].key, (*jobs[j].target)->save());
          }
        },
        /*grain=*/1);
  }
  ctx.stats_.embedding_bytes = ctx.chunk_store_->embedding_bytes();

  if (cache == nullptr) return;
  // Manifest last: it must only ever name a fully-persisted artifact
  // set.  Rewritten every run — the slot is keyed by configuration
  // family, so this is what retires the previous revision.
  ManifestArtifact manifest;
  manifest.keys = keys;
  manifest.doc_ids.reserve(n);
  for (const auto& doc : docs) manifest.doc_ids.push_back(doc.doc_id);
  manifest.doc_keys = doc_keys;
  cache->store("manifest", manifest_key, serialize_manifest(manifest));
}

}  // namespace mcqa::core
