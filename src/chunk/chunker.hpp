#pragma once
// Chunking: parsed documents -> retrieval units.
//
// The paper chunks with PubMedBERT embeddings to respect semantic
// boundaries ("semantic chunking ... yielding 173,318 chunks").  We
// implement the same drift-based algorithm over our embedder, plus a
// fixed-size baseline used by the chunker ablation (A2 in DESIGN.md).

#include <memory>
#include <string>
#include <vector>

#include "embed/embedder.hpp"
#include "parse/document.hpp"

namespace mcqa::chunk {

struct Chunk {
  std::string chunk_id;  ///< "filehash_index" per the paper's Fig. 2 schema
  std::string doc_id;
  std::string path;      ///< provenance: source "file" path
  std::string text;
  std::size_t index = 0;        ///< position within the document
  std::size_t word_count = 0;
  std::size_t sentence_count = 0;
};

struct ChunkerConfig {
  std::size_t target_words = 160;  ///< soft target per chunk
  std::size_t max_words = 260;     ///< hard ceiling (SLM context safety)
  std::size_t min_words = 40;      ///< merge tiny trailing chunks
  /// Semantic chunker: boundary declared when the cosine between the
  /// running window embedding and the next sentence drops below this.
  double drift_threshold = 0.22;
  /// Fixed chunker: words of overlap between consecutive chunks.
  std::size_t overlap_words = 24;
};

class Chunker {
 public:
  virtual ~Chunker() = default;
  virtual std::string_view name() const = 0;

  /// Split a parsed document.  Chunk ids are assigned from the doc id
  /// hash + running index; deterministic.
  virtual std::vector<Chunk> chunk(const parse::ParsedDocument& doc) const = 0;
};

/// Boundary at embedding drift between the accumulated window and the
/// next sentence; sections always break.  The window is embedded only
/// when a drift test reads it.
class SemanticChunker final : public Chunker {
 public:
  SemanticChunker(const embed::Embedder& embedder, ChunkerConfig config = {});
  std::string_view name() const override { return "semantic"; }
  std::vector<Chunk> chunk(const parse::ParsedDocument& doc) const override;

  /// chunk(doc), also handing over each chunk's embedding:
  /// `vectors[i]` is embedder.embed(chunks[i].text) bit for bit, taken
  /// from the window the chunker already embedded (only a merged tail
  /// is embedded again).  `vectors` is replaced.
  std::vector<Chunk> chunk(const parse::ParsedDocument& doc,
                           std::vector<embed::Vector>& vectors) const;

 private:
  /// Both chunk() forms; `vectors` is null when the caller wants none.
  std::vector<Chunk> split(const parse::ParsedDocument& doc,
                           std::vector<embed::Vector>* vectors) const;

  const embed::Embedder& embedder_;
  ChunkerConfig config_;
};

/// Fixed word-count windows with overlap; ignores semantics.
class FixedSizeChunker final : public Chunker {
 public:
  explicit FixedSizeChunker(ChunkerConfig config = {});
  std::string_view name() const override { return "fixed"; }
  std::vector<Chunk> chunk(const parse::ParsedDocument& doc) const override;

 private:
  ChunkerConfig config_;
};

/// Helper shared by implementations: provenance-stable chunk id.
std::string make_chunk_id(const std::string& doc_id, std::size_t index);

}  // namespace mcqa::chunk
