#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

namespace mcqa::util {

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

namespace {
template <typename Parts>
std::string join_impl(const Parts& parts, std::string_view sep) {
  std::string out;
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  out.reserve(total);
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return join_impl(parts, sep);
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool contains_ci(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  const auto lower = [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  };
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (lower(static_cast<unsigned char>(haystack[i + j])) !=
          lower(static_cast<unsigned char>(needle[j]))) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      return out;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string format_param_count(double billions) {
  char buf[32];
  if (billions == static_cast<long long>(billions)) {
    std::snprintf(buf, sizeof(buf), "%lld B",
                  static_cast<long long>(billions));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f B", billions);
  }
  return buf;
}

BitPattern::BitPattern(std::string_view pattern) : size_(pattern.size()) {
  if (size_ > kMaxSize) {
    throw std::length_error("BitPattern: pattern longer than 64 bytes");
  }
  for (std::size_t i = 0; i < size_; ++i) {
    match_[static_cast<unsigned char>(pattern[i])] |= std::uint64_t{1} << i;
  }
}

// Myers' algorithm in Hyyrö's global form.  Bit i of vp / vn says the DP
// column steps up / down by one from row i to row i+1; bits at and above
// size_ never reach the low bits (carries and shifts only move up).
// D[0][j] = j, so the top row grows by one per text byte: that is the 1
// shifted into hp.  `score` follows the bottom row, D[m][j].
std::size_t BitPattern::distance(std::string_view text) const {
  if (size_ == 0) return text.size();
  const std::uint64_t last = std::uint64_t{1} << (size_ - 1);
  std::uint64_t vp = ~std::uint64_t{0};
  std::uint64_t vn = 0;
  std::size_t score = size_;
  for (const char c : text) {
    const std::uint64_t x = match_[static_cast<unsigned char>(c)];
    const std::uint64_t d0 = (((x & vp) + vp) ^ vp) | x | vn;
    std::uint64_t hp = vn | ~(d0 | vp);
    std::uint64_t hn = d0 & vp;
    score += (hp & last) != 0;
    score -= (hn & last) != 0;
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return score;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() <= BitPattern::kMaxSize) return BitPattern(a).distance(b);
  std::vector<std::size_t> prev(a.size() + 1);
  std::vector<std::size_t> cur(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double string_similarity(std::string_view a, std::string_view b) {
  const std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  const std::size_t d = edit_distance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

}  // namespace mcqa::util
