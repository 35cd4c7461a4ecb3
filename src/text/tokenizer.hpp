#pragma once
// Word-level tokenization and token counting.
//
// Context windows in Table 1 are measured in tokens; the RAG prompt
// assembler budgets retrieved context against each model's window using
// these counts.  We approximate subword token counts from word tokens
// with a calibrated inflation factor (real tokenizers emit ~1.3 subwords
// per English word); the BPE tokenizer (bpe.hpp) provides exact counts
// where a trained vocabulary exists.

#include <string>
#include <string_view>
#include <vector>

namespace mcqa::text {

struct Token {
  std::string text;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Split into word/number/punctuation tokens.
std::vector<Token> word_tokenize(std::string_view s);

/// Just the count, without materializing tokens.
std::size_t count_words(std::string_view s);

/// Approximate LLM (subword) token count for budgeting.
std::size_t approx_llm_tokens(std::string_view s);

/// Allocation-free iteration over the space-delimited words of an
/// already-normalized string.  Each dereference is a std::string_view
/// into the original buffer; runs of ' ' separate words, so
/// `for (auto w : WordViews(s))` visits every word without a per-word
/// std::string.
class WordViews {
 public:
  class iterator {
   public:
    using value_type = std::string_view;

    iterator(std::string_view s, std::size_t pos) : s_(s), pos_(pos) {
      advance();
    }

    std::string_view operator*() const { return s_.substr(pos_, len_); }

    iterator& operator++() {
      pos_ += len_;
      advance();
      return *this;
    }

    bool operator!=(const iterator& other) const { return pos_ != other.pos_; }
    bool operator==(const iterator& other) const { return pos_ == other.pos_; }

   private:
    void advance() {
      while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
      std::size_t end = pos_;
      while (end < s_.size() && s_[end] != ' ') ++end;
      len_ = end - pos_;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::size_t len_ = 0;
  };

  explicit WordViews(std::string_view s) : s_(s) {}
  iterator begin() const { return iterator(s_, 0); }
  iterator end() const { return iterator(s_, s_.size()); }

 private:
  std::string_view s_;
};

}  // namespace mcqa::text
