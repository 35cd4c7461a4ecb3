#include "text/tokenizer.hpp"

#include "text/char_class.hpp"

namespace mcqa::text {

using detail::byte;

std::vector<Token> word_tokenize(std::string_view s) {
  const auto& t = detail::char_tables();
  const auto is_word_char = [&t](char c) {
    return t.alnum[byte(c)] || c == '_';
  };
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (t.space[byte(c)]) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    if (is_word_char(c)) {
      while (i < s.size() && (is_word_char(s[i]) ||
                              // keep intra-word hyphens and decimal points
                              ((s[i] == '-' || s[i] == '.') && i + 1 < s.size() &&
                               is_word_char(s[i + 1]) && i > start))) {
        ++i;
      }
    } else {
      ++i;  // single punctuation token
    }
    out.push_back(Token{std::string(s.substr(start, i - start)), start, i});
  }
  return out;
}

std::size_t count_words(std::string_view s) {
  const auto& t = detail::char_tables();
  std::size_t count = 0;
  bool in_word = false;
  for (const char c : s) {
    const bool w = !t.space[byte(c)];
    if (w && !in_word) ++count;
    in_word = w;
  }
  return count;
}

std::size_t approx_llm_tokens(std::string_view s) {
  // ~1.33 subword tokens per whitespace-delimited word is a good fit for
  // scientific English across GPT-2/Llama-family tokenizers.
  const std::size_t words = count_words(s);
  return words + (words / 3) + 1;
}

}  // namespace mcqa::text
