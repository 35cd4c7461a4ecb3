#include "text/sentence.hpp"

#include <algorithm>
#include <array>

#include "text/char_class.hpp"

namespace mcqa::text {

namespace {

using detail::byte;

// "et al." ends in "al": the word before a dot never holds a space.
constexpr std::array<std::string_view, 14> kAbbreviations = {
    "al", "fig", "figs", "eq", "eqs", "e.g", "i.e", "cf", "vs",
    "dr", "no", "ref", "refs", "approx"};

/// One past the longest abbreviation: a longer word matches none.
constexpr std::size_t kWordCap = [] {
  std::size_t longest = 0;
  for (const std::string_view a : kAbbreviations) {
    longest = std::max(longest, a.size());
  }
  return longest + 1;
}();

bool is_terminator(char c) { return c == '.' || c == '!' || c == '?'; }

/// Does the text ending at position `dot` (exclusive of the '.') look
/// like a known abbreviation?  The word before the dot runs back over
/// alnum bytes and '.'; it is compared lowercased in place, and the scan
/// stops at kWordCap bytes, since a word that long matches no entry
/// and is no initial.
bool ends_with_abbreviation(std::string_view s, std::size_t dot,
                            const detail::CharTables& t) {
  std::size_t start = dot;
  while (start > 0 && dot - start < kWordCap &&
         (t.alnum[byte(s[start - 1])] || s[start - 1] == '.')) {
    --start;
  }
  const std::string_view word = s.substr(start, dot - start);
  if (word.empty()) return false;
  for (const std::string_view abbr : kAbbreviations) {
    if (abbr.size() != word.size()) continue;
    std::size_t k = 0;
    while (k < word.size() && t.lower[byte(word[k])] == abbr[k]) ++k;
    if (k == word.size()) return true;
  }
  // Single-letter initials ("J. Smith").
  return word.size() == 1 && t.alpha[byte(word[0])];
}

bool is_decimal_point(std::string_view s, std::size_t dot,
                      const detail::CharTables& t) {
  return dot > 0 && dot + 1 < s.size() && t.digit[byte(s[dot - 1])] &&
         t.digit[byte(s[dot + 1])];
}

}  // namespace

std::vector<Sentence> split_sentences(std::string_view s) {
  const auto& t = detail::char_tables();
  std::vector<Sentence> out;
  std::size_t start = 0;

  const auto flush = [&](std::size_t end_pos) {
    // Trim the candidate [start, end_pos).
    std::size_t b = start;
    std::size_t e = end_pos;
    while (b < e && t.space[byte(s[b])]) ++b;
    while (e > b && t.space[byte(s[e - 1])]) --e;
    if (e > b) {
      out.push_back(Sentence{std::string(s.substr(b, e - b)), b, e});
    }
    start = end_pos;
  };

  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '\n' && i + 1 < s.size() && s[i + 1] == '\n') {
      flush(i);  // paragraph break always ends a sentence
      continue;
    }
    if (!is_terminator(c)) continue;
    if (c == '.' && (is_decimal_point(s, i, t) ||
                     ends_with_abbreviation(s, i, t))) {
      continue;
    }
    // Consume trailing terminators / closing quotes.
    std::size_t j = i + 1;
    while (j < s.size() && (is_terminator(s[j]) || s[j] == '"' ||
                            s[j] == ')' || s[j] == '\'')) {
      ++j;
    }
    // Require end-of-text or whitespace next; otherwise it's mid-token.
    if (j < s.size() && !t.space[byte(s[j])]) continue;
    flush(j);
    i = j > 0 ? j - 1 : 0;
  }
  flush(s.size());
  return out;
}

}  // namespace mcqa::text
