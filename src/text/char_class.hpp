#pragma once
// The text layer's one byte-classification table.  Internal: the
// normalizers, tokenizers, sentence splitter and the judge include it;
// no public header does.
//
// Built once from <cctype>, so a scan pays a table load per byte
// instead of a locale-aware libc call.  The process never calls
// setlocale, so the "C" locale's answers are frozen at first use: ASCII
// whitespace (' ' \t \n \v \f \r), ASCII letters and digits, and
// nothing at or above 0x80.

#include <array>
#include <cctype>
#include <cstddef>

namespace mcqa::text::detail {

struct CharTables {
  std::array<char, 256> lower;
  std::array<bool, 256> space;
  std::array<bool, 256> alnum;
  std::array<bool, 256> alpha;
  std::array<bool, 256> digit;
  CharTables() {
    for (int c = 0; c < 256; ++c) {
      const auto i = static_cast<std::size_t>(c);
      lower[i] = static_cast<char>(std::tolower(c));
      space[i] = std::isspace(c) != 0;
      alnum[i] = std::isalnum(c) != 0;
      alpha[i] = std::isalpha(c) != 0;
      digit[i] = std::isdigit(c) != 0;
    }
  }
};

inline const CharTables& char_tables() {
  static const CharTables t;
  return t;
}

/// A char as a table index.
constexpr std::size_t byte(char c) { return static_cast<unsigned char>(c); }

}  // namespace mcqa::text::detail
