#include "embed/hashed_embedder.hpp"

#include <vector>

#include "text/normalize.hpp"
#include "text/tokenizer.hpp"
#include "util/hash.hpp"

namespace mcqa::embed {

namespace {

/// Fold a byte sequence into an FNV-1a state (same math as util::Fnv1a,
/// kept local so the hot loops inline).
inline std::uint64_t fnv_extend(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h = (h ^ static_cast<std::uint8_t>(c)) * util::kFnvPrime64;
  }
  return h;
}

}  // namespace

HashedNGramEmbedder::HashedNGramEmbedder(HashedEmbedderConfig config)
    : config_(config),
      mask_(config_.dim != 0 && (config_.dim & (config_.dim - 1)) == 0
                ? config_.dim - 1
                : 0) {
  for (std::size_t b = 0; b < first_state_.size(); ++b) {
    first_state_[b] = (config_.seed ^ b) * util::kFnvPrime64;
  }
}

void HashedNGramEmbedder::add_hashed(Vector& v, std::uint64_t h,
                                     double weight) const {
  // h & (dim-1) == h % dim for power-of-two dims; the AND replaces a
  // 64-bit divide on the per-feature hot path.
  const std::size_t bucket = mask_ != 0 ? (h & mask_) : (h % config_.dim);
  // Sign bit from an independent hash region removes the bias a single
  // hash would introduce (standard signed feature hashing).
  const float sign = ((h >> 61) & 1) != 0 ? 1.0f : -1.0f;
  v[bucket] += sign * static_cast<float>(weight);
}

Vector HashedNGramEmbedder::embed(std::string_view text) const {
  Vector v(config_.dim, 0.0f);

  // Per-thread reusable state: the normalize buffer plus the word-view
  // list.  embed() is const and thread-safe by contract; thread_local
  // keeps the buffers private to each pipeline worker, so once they hit
  // steady-state capacity the whole call allocates nothing but `v`.
  thread_local std::string norm;
  thread_local std::vector<std::string_view> words;
  thread_local std::vector<std::uint64_t> word_states;

  text::normalize_for_matching_into(text, norm);
  if (norm.empty()) return v;

  // Accumulation order is part of the embedding's bytes: all unigrams,
  // then all bigrams, then all char trigrams, each in left-to-right text
  // order (bench_embed_ablation's string-materializing oracle follows
  // it).  Every feature hash starts from the precomputed first-byte
  // state (words are never empty, trigrams have three bytes), saving one
  // xor-multiply per feature.
  if (config_.word_unigrams || config_.word_bigrams) {
    words.clear();
    word_states.clear();
    for (const std::string_view w : text::WordViews(norm)) {
      words.push_back(w);
      // The FNV state after a whole word doubles as the word's unigram
      // hash and as the bigram prefix state, so each word's bytes are
      // folded from the seed exactly once.
      word_states.push_back(fnv_extend(
          first_state_[static_cast<std::uint8_t>(w[0])], w.substr(1)));
    }
    if (config_.word_unigrams) {
      for (const std::uint64_t h : word_states) {
        add_hashed(v, h, config_.unigram_weight);
      }
    }
    if (config_.word_bigrams && words.size() >= 2) {
      for (std::size_t i = 0; i + 1 < words.size(); ++i) {
        // Piecewise FNV over (w1, ' ', w2) == one-shot FNV of "w1 w2".
        std::uint64_t h =
            (word_states[i] ^ static_cast<std::uint8_t>(' ')) *
            util::kFnvPrime64;
        h = fnv_extend(h, words[i + 1]);
        add_hashed(v, h, config_.bigram_weight);
      }
    }
  }
  if (config_.char_trigrams && norm.size() >= 3) {
    const auto* p = reinterpret_cast<const unsigned char*>(norm.data());
    for (std::size_t i = 0; i + 3 <= norm.size(); ++i) {
      std::uint64_t h = first_state_[p[i]];
      h = (h ^ p[i + 1]) * util::kFnvPrime64;
      h = (h ^ p[i + 2]) * util::kFnvPrime64;
      add_hashed(v, h, config_.trigram_weight);
    }
  }
  normalize(v);
  return v;
}

HashedNGramEmbedder make_biomed_encoder() {
  return HashedNGramEmbedder(HashedEmbedderConfig{});
}

}  // namespace mcqa::embed
