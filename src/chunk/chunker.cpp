#include "chunk/chunker.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "text/sentence.hpp"
#include "text/tokenizer.hpp"
#include "util/hash.hpp"

namespace mcqa::chunk {

std::string make_chunk_id(const std::string& doc_id, std::size_t index) {
  return util::hex_digest(util::fnv1a64(doc_id)) + "_" + std::to_string(index);
}

namespace {

/// `word_count` is the caller's precomputed text::count_words(text):
/// both chunkers already know it (running window sums, byte-offset
/// prefix sums), so finishing a chunk never re-scans its text.
Chunk finish_chunk(const std::string& doc_id, std::size_t index,
                   std::string text, std::size_t sentences,
                   std::size_t word_count) {
  Chunk c;
  c.doc_id = doc_id;
  c.index = index;
  c.chunk_id = make_chunk_id(doc_id, index);
  c.path = "corpus/" + doc_id + ".spdf";
  c.sentence_count = sentences;
  c.word_count = word_count;
  c.text = std::move(text);
  return c;
}

/// Merge a trailing too-small chunk into its predecessor.  `floor` bounds
/// the merge so it never crosses a section boundary.  Returns whether it
/// merged.
bool merge_small_tail(std::vector<Chunk>& chunks, std::size_t min_words,
                      std::size_t floor = 0) {
  if (chunks.size() < 2 || chunks.size() - floor < 2) return false;
  Chunk& tail = chunks.back();
  if (tail.word_count >= min_words) return false;
  Chunk& prev = chunks[chunks.size() - 2];
  prev.text += ' ';
  prev.text += tail.text;
  prev.word_count += tail.word_count;
  prev.sentence_count += tail.sentence_count;
  chunks.pop_back();
  return true;
}

}  // namespace

// --- SemanticChunker --------------------------------------------------------

SemanticChunker::SemanticChunker(const embed::Embedder& embedder,
                                 ChunkerConfig config)
    : embedder_(embedder), config_(config) {}

std::vector<Chunk> SemanticChunker::chunk(
    const parse::ParsedDocument& doc) const {
  return split(doc, nullptr);
}

std::vector<Chunk> SemanticChunker::chunk(
    const parse::ParsedDocument& doc,
    std::vector<embed::Vector>& vectors) const {
  vectors.clear();
  return split(doc, &vectors);
}

std::vector<Chunk> SemanticChunker::split(
    const parse::ParsedDocument& doc,
    std::vector<embed::Vector>* vectors) const {
  std::vector<Chunk> out;
  std::size_t index = 0;

  for (const auto& section : doc.sections) {
    const auto sentences = text::split_sentences(section.text);
    if (sentences.empty()) continue;
    const std::size_t section_floor = out.size();

    std::string window_text;
    std::size_t window_words = 0;
    std::size_t window_sentences = 0;
    // The window's embedding, computed on first use after it last grew.
    embed::Vector window_vec;
    bool window_vec_current = false;
    const auto window_embedding = [&]() -> embed::Vector& {
      if (!window_vec_current) {
        window_vec = embedder_.embed(window_text);
        window_vec_current = true;
      }
      return window_vec;
    };

    const auto flush = [&]() {
      if (window_sentences == 0) return;
      if (vectors != nullptr) vectors->push_back(std::move(window_embedding()));
      window_vec_current = false;
      // Sentences join with single spaces, so the window's word count is
      // exactly the sum of the per-sentence counts already accumulated.
      out.push_back(
          finish_chunk(doc.doc_id, index++, std::move(window_text),
                       window_sentences, window_words));
      window_text.clear();
      window_words = 0;
      window_sentences = 0;
    };

    for (const auto& sentence : sentences) {
      const std::size_t words = text::count_words(sentence.text);

      bool boundary = false;
      if (window_sentences > 0) {
        if (window_words + words > config_.max_words) {
          boundary = true;
        } else if (window_words >= config_.min_words) {
          // Drift test: compare the running window against the incoming
          // sentence; low cosine means the topic moved on.
          const embed::Vector next_vec = embedder_.embed(sentence.text);
          const float sim = embed::dot(window_embedding(), next_vec);
          if (sim < static_cast<float>(config_.drift_threshold) &&
              window_words >= config_.target_words / 2) {
            boundary = true;
          } else if (window_words >= config_.target_words &&
                     sim < static_cast<float>(config_.drift_threshold) + 0.1f) {
            boundary = true;
          }
        }
      }
      if (boundary) flush();

      if (!window_text.empty()) window_text += ' ';
      window_text += sentence.text;
      window_words += words;
      ++window_sentences;
      window_vec_current = false;
    }
    flush();
    // Tiny trailing chunks merge into their predecessor, but never
    // across a section boundary.  The merged text is new, so its
    // embedding is too.
    if (merge_small_tail(out, config_.min_words, section_floor) &&
        vectors != nullptr) {
      vectors->pop_back();
      vectors->back() = embedder_.embed(out.back().text);
    }
  }
  return out;
}

// --- FixedSizeChunker -------------------------------------------------------

FixedSizeChunker::FixedSizeChunker(ChunkerConfig config) : config_(config) {}

std::vector<Chunk> FixedSizeChunker::chunk(
    const parse::ParsedDocument& doc) const {
  std::vector<Chunk> out;
  std::size_t index = 0;

  // Flatten to a single word stream; fixed chunking ignores structure.
  const std::string body = doc.body_text();
  const auto words = text::word_tokenize(body);
  if (words.empty()) return out;

  const std::size_t stride = config_.target_words > config_.overlap_words
                                 ? config_.target_words - config_.overlap_words
                                 : config_.target_words;

  // Prefix word-start counts over the body: starts[j] = number of
  // positions p in [1, j) where body[p] begins a whitespace-delimited
  // word (non-space preceded by space).  Overlapping chunks share body
  // bytes, so counting each chunk with count_words() re-scans the
  // overlap; every chunk starts on a token (non-space) byte, so
  //   count_words(body.substr(b, e - b)) == 1 + starts[e] - starts[b + 1]
  // and the whole sweep counts words in O(body) total.
  std::vector<std::uint32_t> starts(body.size() + 1, 0);
  for (std::size_t p = 1; p < body.size(); ++p) {
    const bool word_start =
        !std::isspace(static_cast<unsigned char>(body[p])) &&
        std::isspace(static_cast<unsigned char>(body[p - 1]));
    starts[p + 1] = starts[p] + (word_start ? 1u : 0u);
  }

  for (std::size_t start = 0; start < words.size(); start += stride) {
    const std::size_t end =
        std::min(words.size(), start + config_.target_words);
    const std::size_t byte_begin = words[start].begin;
    const std::size_t byte_end = words[end - 1].end;
    std::string chunk_text = body.substr(byte_begin, byte_end - byte_begin);
    const std::size_t chunk_words =
        1 + starts[byte_end] - starts[byte_begin + 1];
    out.push_back(finish_chunk(doc.doc_id, index++, std::move(chunk_text),
                               /*sentences=*/0, chunk_words));
    if (end == words.size()) break;
  }
  merge_small_tail(out, config_.min_words);
  return out;
}

}  // namespace mcqa::chunk
