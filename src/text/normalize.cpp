#include "text/normalize.hpp"

#include "text/char_class.hpp"

namespace mcqa::text {

void normalize_ws_into(std::string_view s, std::string& out) {
  const auto& t = detail::char_tables();
  // Size to the upper bound and write through a raw pointer: one bounds
  // decision per call instead of a capacity check per emitted byte.
  out.resize(s.size());
  char* const base = out.data();
  char* dst = base;
  bool in_space = true;  // leading whitespace is dropped
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (t.space[u]) {
      if (!in_space) *dst++ = ' ';
      in_space = true;
    } else {
      *dst++ = t.lower[u];
      in_space = false;
    }
  }
  while (dst != base && dst[-1] == ' ') --dst;
  out.resize(static_cast<std::size_t>(dst - base));
}

std::string normalize_ws(std::string_view s) {
  std::string out;
  normalize_ws_into(s, out);
  return out;
}

// Single fused pass equivalent to normalize_ws followed by the
// punctuation filter.  The filter's neighbour checks are defined on the
// intermediate lowered/collapsed string; they map onto the raw bytes
// exactly:
//   * lowered[i-1] is alphanumeric iff the raw character immediately
//     before was non-space alphanumeric (a space run collapses to ' ',
//     any punctuation stays itself — neither is alnum), and
//   * lowered[i+1] is alphanumeric iff the raw character immediately
//     after is alphanumeric (whitespace next means lowered has ' ' or
//     ends there after the trailing trim).
// Dropped punctuation never introduces a space and leaves the in-space
// state untouched, so collapsing while filtering is also exact.
void normalize_for_matching_into(std::string_view s, std::string& out) {
  const auto& t = detail::char_tables();
  out.resize(s.size());
  char* const base = out.data();
  char* dst = base;
  bool in_space = true;     // output space state (leading trim + collapse)
  bool prev_alnum = false;  // was the immediately preceding raw byte alnum?
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto u = static_cast<unsigned char>(s[i]);
    if (t.space[u]) {
      if (!in_space) *dst++ = ' ';
      in_space = true;
      prev_alnum = false;
      continue;
    }
    if (t.alnum[u]) {
      *dst++ = t.lower[u];
      in_space = false;
      prev_alnum = true;
      continue;
    }
    if ((s[i] == '-' || s[i] == '.') && prev_alnum && i + 1 < s.size() &&
        t.alnum[static_cast<unsigned char>(s[i + 1])]) {
      *dst++ = s[i];  // intra-word: cobalt-60, 2.5
      in_space = false;
    }
    // other punctuation dropped (without affecting the space state)
    prev_alnum = false;
  }
  while (dst != base && dst[-1] == ' ') --dst;
  out.resize(static_cast<std::size_t>(dst - base));
}

std::string normalize_for_matching(std::string_view s) {
  std::string out;
  normalize_for_matching_into(s, out);
  return out;
}

}  // namespace mcqa::text
