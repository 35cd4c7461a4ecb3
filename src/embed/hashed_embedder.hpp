#pragma once
// Feature-hashing embedder.
//
// Deterministic replacement for a transformer encoder: word unigrams,
// word bigrams and character trigrams are hashed into a d-dimensional
// signed feature space (Weinberger et al., 2009), sublinearly weighted
// and L2-normalized.  On synthetic scientific text whose semantics are
// carried by domain terms, cosine over these vectors reproduces the
// retrieval behaviour the paper gets from PubMedBERT embeddings:
// fact-bearing chunks score high against questions probing those facts.
//
// embed() streams every feature through an incremental FNV-1a hasher
// over string views — no per-feature string is ever materialized, and
// the per-thread normalize buffers are reused across calls, so the hot
// path performs zero allocations beyond the output vector once warm.
// It equals the original string-materializing formulation bit for bit
// (bench_embed_ablation keeps that one as its oracle; embed_test pins
// digests), because FNV-1a folds bytes one at a time: hashing w1, ' ',
// w2 piecewise equals hashing the "w1 w2" string.

#include <array>
#include <cstdint>
#include <string>

#include "embed/embedder.hpp"

namespace mcqa::embed {

struct HashedEmbedderConfig {
  std::size_t dim = 256;
  bool word_unigrams = true;
  bool word_bigrams = true;
  bool char_trigrams = true;
  /// Weight multipliers per feature family.
  double unigram_weight = 1.0;
  double bigram_weight = 1.5;   // bigrams are more discriminative
  double trigram_weight = 0.4;  // char features add robustness to noise
  std::uint64_t seed = 0xb10cfee1u;
};

class HashedNGramEmbedder final : public Embedder {
 public:
  explicit HashedNGramEmbedder(HashedEmbedderConfig config = {});

  std::size_t dim() const override { return config_.dim; }
  Vector embed(std::string_view text) const override;

  const HashedEmbedderConfig& config() const { return config_; }

 private:
  void add_hashed(Vector& v, std::uint64_t h, double weight) const;

  HashedEmbedderConfig config_;
  /// dim-1 when dim is a power of two (h & mask_ == h % dim), else 0.
  std::size_t mask_;
  /// FNV-1a state after feeding byte b from the seed — the first step of
  /// every feature hash, precomputed per byte value.
  std::array<std::uint64_t, 256> first_state_;
};

/// The role PubMedBERT plays in the paper: the corpus/chunk encoder.
/// 256-dim hashed embedder with the default feature mix.
HashedNGramEmbedder make_biomed_encoder();

}  // namespace mcqa::embed
