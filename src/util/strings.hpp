#pragma once
// Small string helpers shared across modules.  Everything here is
// allocation-conscious: splitters return string_views into the input
// where lifetime permits.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcqa::util {

/// Split on a single delimiter character; empty fields are kept.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on any run of whitespace; empty fields are dropped.
std::vector<std::string_view> split_ws(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string join(const std::vector<std::string_view>& parts,
                 std::string_view sep);

std::string_view trim(std::string_view s);
std::string to_upper(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
bool contains_ci(std::string_view haystack, std::string_view needle);

/// Replace all occurrences of `from` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// printf-lite formatting of doubles with fixed precision (locale-free).
std::string format_double(double v, int precision);

/// "1.1 B", "14 B" style parameter-count formatting.
std::string format_param_count(double billions);

/// Levenshtein edit distance (used by the judge to match noisy option
/// references back to canonical option text).  Bit-parallel
/// (BitPattern) when the shorter string has at most 64 bytes, a
/// two-row DP otherwise.
std::size_t edit_distance(std::string_view a, std::string_view b);

/// A pattern of at most 64 bytes prepared for Myers' bit-parallel edit
/// distance: its per-byte match masks are built once, and each
/// distance() then costs a few word operations per text byte.  The
/// judge slides one option's pattern over many answer windows.
class BitPattern {
 public:
  static constexpr std::size_t kMaxSize = 64;

  /// Throws std::length_error past kMaxSize bytes.
  explicit BitPattern(std::string_view pattern);

  /// edit_distance(pattern, text), exactly.
  std::size_t distance(std::string_view text) const;

 private:
  std::array<std::uint64_t, 256> match_{};  ///< bit i: pattern[i] == byte
  std::size_t size_;
};

/// Normalized similarity in [0,1] derived from edit distance.
double string_similarity(std::string_view a, std::string_view b);

}  // namespace mcqa::util
