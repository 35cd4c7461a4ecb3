#include "eval/judge.hpp"

#include "text/char_class.hpp"
#include "text/normalize.hpp"
#include "util/strings.hpp"

namespace mcqa::eval {

namespace {

using text::detail::byte;

/// Find "(C)", "option 3", "answer: B", "3." style references.
int extract_pattern(const std::string& text, std::size_t n_options) {
  const auto& t = text::detail::char_tables();
  std::string lower(text.size(), '\0');
  for (std::size_t i = 0; i < text.size(); ++i) {
    lower[i] = t.lower[byte(text[i])];
  }

  // "(c)" / "(3)" parenthesized markers, first occurrence wins.
  for (std::size_t i = 0; i + 2 < lower.size(); ++i) {
    if (lower[i] != '(') continue;
    const char c = lower[i + 1];
    if (lower[i + 2] != ')') continue;
    if (c >= 'a' && c < static_cast<char>('a' + n_options)) {
      return c - 'a';
    }
    if (c >= '1' && c < static_cast<char>('1' + n_options)) {
      return c - '1';
    }
  }

  // "answer is c" / "answer: 3" / "option b" phrasings.
  static constexpr std::string_view kAnchors[] = {
      "answer is ", "answer: ", "option ", "choice ", "select "};
  for (const auto anchor : kAnchors) {
    std::size_t pos = 0;
    while ((pos = lower.find(anchor, pos)) != std::string::npos) {
      const std::size_t at = pos + anchor.size();
      pos = at;
      if (at >= lower.size()) break;
      const char c = lower[at];
      const bool end_ok =
          at + 1 >= lower.size() || !t.alnum[byte(lower[at + 1])];
      if (!end_ok) continue;
      if (c >= 'a' && c < static_cast<char>('a' + n_options)) return c - 'a';
      if (c >= '1' && c < static_cast<char>('1' + n_options)) return c - '1';
    }
  }
  return -1;
}

}  // namespace

int Judge::extract_option(const std::string& answer_text,
                          const std::vector<std::string>& options) const {
  if (options.empty()) return -1;

  const int by_pattern = extract_pattern(answer_text, options.size());
  if (by_pattern >= 0) return by_pattern;

  // Exact option-text containment (normalized).  When several options
  // appear, prefer the one mentioned first in the answer.
  const std::string norm_answer =
      text::normalize_for_matching(answer_text);
  std::vector<std::string> norm_opts(options.size());
  int best = -1;
  std::size_t best_pos = std::string::npos;
  for (std::size_t i = 0; i < options.size(); ++i) {
    text::normalize_for_matching_into(options[i], norm_opts[i]);
    if (norm_opts[i].empty()) continue;
    const std::size_t pos = norm_answer.find(norm_opts[i]);
    if (pos != std::string::npos && pos < best_pos) {
      best_pos = pos;
      best = static_cast<int>(i);
    }
  }
  if (best >= 0) return best;

  // Fuzzy rescue: compare each option against the answer's final clause
  // (models usually restate their pick at the end).
  const std::size_t tail_start =
      norm_answer.size() > 80 ? norm_answer.size() - 80 : 0;
  const std::string_view tail =
      std::string_view(norm_answer).substr(tail_start);
  double best_sim = min_similarity_;
  best = -1;
  for (std::size_t i = 0; i < options.size(); ++i) {
    const std::string& opt = norm_opts[i];
    if (opt.empty() || opt.size() > tail.size() + 2) continue;
    // Slide the option over the tail for the best local alignment; the
    // final windows clip at the string end so a truncated restatement
    // ("cisplatn") still aligns.  A window is never longer than the
    // option, so util::string_similarity's 1 - d / max(|window|, |opt|)
    // is 1 - d / |opt|.  Options of at most 64 bytes build their match
    // masks once for all windows.
    const bool bit_parallel = opt.size() <= util::BitPattern::kMaxSize;
    const util::BitPattern pattern(bit_parallel ? opt : std::string_view());
    for (std::size_t off = 0; off < tail.size(); ++off) {
      const std::string_view window = tail.substr(off, opt.size());
      const std::size_t d = bit_parallel ? pattern.distance(window)
                                         : util::edit_distance(window, opt);
      const double sim = 1.0 - static_cast<double>(d) /
                                   static_cast<double>(opt.size());
      if (sim > best_sim) {
        best_sim = sim;
        best = static_cast<int>(i);
      }
    }
  }
  return best;
}

trace::GradingResult Judge::grade(const llm::McqTask& task,
                                  const std::string& answer_text) const {
  trace::GradingResult g;
  const int extracted = extract_option(answer_text, task.options);
  g.extracted_option_number = extracted >= 0 ? extracted + 1 : -1;
  g.correct_option_number = task.correct_index + 1;
  g.is_correct = extracted >= 0 && extracted == task.correct_index;
  g.confidence = extracted >= 0 ? 0.95 : 0.3;
  if (extracted < 0) {
    g.reasoning = "no option reference could be extracted from the answer";
  } else if (g.is_correct) {
    g.reasoning = "extracted option matches the keyed answer";
  } else {
    g.reasoning = "extracted option differs from the keyed answer";
  }
  return g;
}

}  // namespace mcqa::eval
