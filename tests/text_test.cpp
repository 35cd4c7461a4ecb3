// Unit tests for text processing: normalization, sentence splitting,
// tokenization, BPE.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/bpe.hpp"
#include "text/char_class.hpp"
#include "text/normalize.hpp"
#include "text/sentence.hpp"
#include "text/tokenizer.hpp"

namespace mcqa::text {
namespace {

// --- byte classes ------------------------------------------------------------

// Every byte value classifies as <cctype> does, and as the "C" locale
// defines it: six ASCII whitespace bytes, ASCII digits and letters, and
// nothing at or above 0x80.
TEST(CharClass, MatchesCctypeForEveryByte) {
  const auto& t = detail::char_tables();
  for (int c = 0; c < 256; ++c) {
    const auto i = static_cast<std::size_t>(c);
    const bool digit = c >= '0' && c <= '9';
    const bool upper = c >= 'A' && c <= 'Z';
    const bool alpha = upper || (c >= 'a' && c <= 'z');
    const bool space = c == ' ' || (c >= '\t' && c <= '\r');
    EXPECT_EQ(t.space[i], space) << c;
    EXPECT_EQ(t.alnum[i], alpha || digit) << c;
    EXPECT_EQ(t.alpha[i], alpha) << c;
    EXPECT_EQ(t.digit[i], digit) << c;
    EXPECT_EQ(t.lower[i], static_cast<char>(upper ? c + 32 : c)) << c;
    EXPECT_EQ(t.space[i], std::isspace(c) != 0) << c;
    EXPECT_EQ(t.alnum[i], std::isalnum(c) != 0) << c;
    EXPECT_EQ(t.alpha[i], std::isalpha(c) != 0) << c;
    EXPECT_EQ(t.digit[i], std::isdigit(c) != 0) << c;
    EXPECT_EQ(t.lower[i], static_cast<char>(std::tolower(c))) << c;
  }
}

// --- normalize ---------------------------------------------------------------

TEST(Normalize, CollapsesWhitespaceAndLowercases) {
  EXPECT_EQ(normalize_ws("  Hello   World\t\nAgain  "), "hello world again");
  EXPECT_EQ(normalize_ws(""), "");
  EXPECT_EQ(normalize_ws("   "), "");
}

TEST(NormalizeForMatching, KeepsIntraWordMarks) {
  EXPECT_EQ(normalize_for_matching("Cobalt-60 gamma rays!"),
            "cobalt-60 gamma rays");
  EXPECT_EQ(normalize_for_matching("dose of 2.5 Gy."), "dose of 2.5 gy");
  EXPECT_EQ(normalize_for_matching("p53, ATM; and (RAD51)"),
            "p53 atm and rad51");
}

TEST(NormalizeForMatching, DropsDanglingPunctuation) {
  EXPECT_EQ(normalize_for_matching("end- of line"), "end of line");
  EXPECT_EQ(normalize_for_matching("...leading"), "leading");
}

// --- sentences ----------------------------------------------------------------

TEST(Sentences, BasicSplit) {
  const auto s = split_sentences("First one. Second one! Third?");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].text, "First one.");
  EXPECT_EQ(s[1].text, "Second one!");
  EXPECT_EQ(s[2].text, "Third?");
}

TEST(Sentences, OffsetsPointIntoSource) {
  const std::string src = "Alpha beta. Gamma delta.";
  const auto s = split_sentences(src);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(src.substr(s[1].begin, s[1].end - s[1].begin), "Gamma delta.");
}

TEST(Sentences, AbbreviationsDontSplit) {
  const auto s = split_sentences(
      "As shown by Smith et al. the effect persists. See Fig. 3 for details.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_NE(s[0].text.find("et al."), std::string::npos);
}

TEST(Sentences, DecimalNumbersDontSplit) {
  const auto s = split_sentences("The dose was 2.5 Gy. Cells died.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].text, "The dose was 2.5 Gy.");
}

TEST(Sentences, InitialsDontSplit) {
  const auto s = split_sentences("Reported by J. Smith. Confirmed later.");
  ASSERT_EQ(s.size(), 2u);
}

TEST(Sentences, ParagraphBreakEndsSentence) {
  const auto s = split_sentences("No terminator here\n\nNext paragraph.");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].text, "No terminator here");
}

TEST(Sentences, TrailingTextWithoutTerminator) {
  const auto s = split_sentences("Complete. incomplete trailing text");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1].text, "incomplete trailing text");
}

TEST(Sentences, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(split_sentences("").empty());
  EXPECT_TRUE(split_sentences("   \n\t ").empty());
}

TEST(Sentences, ClosingQuotesAndParens) {
  const auto s = split_sentences("He said \"stop.\" Then left.");
  ASSERT_EQ(s.size(), 2u);
}

// --- tokenizer ------------------------------------------------------------------

TEST(Tokenizer, WordsAndPunctuation) {
  const auto toks = word_tokenize("TP53 activates apoptosis, strongly.");
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[0].text, "TP53");
  EXPECT_EQ(toks[3].text, ",");
  EXPECT_EQ(toks[5].text, ".");
}

TEST(Tokenizer, KeepsHyphenatedAndDecimal) {
  const auto toks = word_tokenize("cobalt-60 at 2.5 Gy");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "cobalt-60");
  EXPECT_EQ(toks[2].text, "2.5");
}

TEST(Tokenizer, OffsetsMatchSource) {
  const std::string src = "ab cd";
  const auto toks = word_tokenize(src);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(src.substr(toks[1].begin, toks[1].end - toks[1].begin), "cd");
}

TEST(Tokenizer, CountWords) {
  EXPECT_EQ(count_words(""), 0u);
  EXPECT_EQ(count_words("one"), 1u);
  EXPECT_EQ(count_words("  one   two three  "), 3u);
}

TEST(Tokenizer, ApproxLlmTokensInflates) {
  const std::size_t words = 30;
  std::string text;
  for (std::size_t i = 0; i < words; ++i) text += "word ";
  const std::size_t toks = approx_llm_tokens(text);
  EXPECT_GT(toks, words);
  EXPECT_LT(toks, words * 2);
}

TEST(Tokenizer, WordViews) {
  const auto words = [](std::string_view s) {
    std::vector<std::string_view> out;
    for (const std::string_view w : WordViews(s)) out.push_back(w);
    return out;
  };
  EXPECT_EQ(words("a b c"), (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_EQ(words("  ab   c "), (std::vector<std::string_view>{"ab", "c"}));
  EXPECT_TRUE(words("").empty());
  EXPECT_TRUE(words("   ").empty());
}

// --- pinned scans -----------------------------------------------------------------

// One row per text: the spans split_sentences returns, count_words and
// the word_tokenize tokens joined by '|'.  The rows were pinned against
// the <cctype> scans and hold for the byte-class table: mixed-case
// abbreviations, initials, decimals, \v \f \r as whitespace, and bytes
// >= 0x80 (neither space nor alnum in the "C" locale) next to '.'.
struct ScanCase {
  std::string_view text;
  std::vector<std::pair<std::size_t, std::size_t>> sentences;
  std::size_t words;
  std::string_view tokens;
};

TEST(TextScans, PinnedCases) {
  const ScanCase cases[] = {
      {"", {}, 0, ""},
      {"See FIG. 2 for details. Next one.", {{0, 23}, {24, 33}}, 7,
       "See|FIG|.|2|for|details|.|Next|one|."},
      {"Smith Et Al. found it. Then more.", {{0, 22}, {23, 33}}, 7,
       "Smith|Et|Al|.|found|it|.|Then|more|."},
      {"Use E.G. this one. Done.", {{0, 18}, {19, 24}}, 5,
       "Use|E.G|.|this|one|.|Done|."},
      {"Reported by J. Smith. Confirmed.", {{0, 21}, {22, 32}}, 5,
       "Reported|by|J|.|Smith|.|Confirmed|."},
      {"Dose 2.5. Then 3.0 Gy.", {{0, 9}, {10, 22}}, 5,
       "Dose|2.5|.|Then|3.0|Gy|."},
      {"Roughly approx. 5 Gy, not xapprox. Done.", {{0, 34}, {35, 40}}, 7,
       "Roughly|approx|.|5|Gy|,|not|xapprox|.|Done|."},
      {"One.\vTwo.\fThree.\rFour.\tFive",
       {{0, 4}, {5, 9}, {10, 16}, {17, 22}, {23, 27}}, 5,
       "One|.|Two|.|Three|.|Four|.|Five"},
      {"Caf\xc3\xa9. Then end.\xc2\xa0More.", {{0, 6}, {7, 23}}, 3,
       "Caf|\xc3|\xa9|.|Then|end|.|\xc2|\xa0|More|."},
  };
  for (const ScanCase& c : cases) {
    SCOPED_TRACE(c.text);
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (const Sentence& s : split_sentences(c.text)) {
      EXPECT_EQ(s.text, c.text.substr(s.begin, s.end - s.begin));
      spans.emplace_back(s.begin, s.end);
    }
    EXPECT_EQ(spans, c.sentences);
    EXPECT_EQ(count_words(c.text), c.words);
    std::string tokens;
    for (const Token& t : word_tokenize(c.text)) {
      if (!tokens.empty()) tokens += '|';
      tokens += t.text;
    }
    EXPECT_EQ(tokens, c.tokens);
  }
}

// --- BPE -------------------------------------------------------------------------

TEST(Bpe, TrainsAndEncodesDeterministically) {
  const std::string corpus =
      "radiation induces apoptosis radiation induces arrest "
      "radiation biology radiation therapy apoptosis pathway";
  const BpeTokenizer t1 = BpeTokenizer::train(corpus, 100);
  const BpeTokenizer t2 = BpeTokenizer::train(corpus, 100);
  const auto ids1 = t1.encode("radiation induces apoptosis");
  const auto ids2 = t2.encode("radiation induces apoptosis");
  EXPECT_EQ(ids1, ids2);
  EXPECT_FALSE(ids1.empty());
}

TEST(Bpe, DecodeInvertsEncodeOnTrainedText) {
  const std::string corpus =
      "the cell cycle checkpoint controls the cell cycle arrest after "
      "the radiation dose is delivered to the cell";
  const BpeTokenizer t = BpeTokenizer::train(corpus, 200);
  const std::string sample = "the cell cycle arrest";
  EXPECT_EQ(t.decode(t.encode(sample)), sample);
}

TEST(Bpe, FrequentPairsMerge) {
  std::string corpus;
  for (int i = 0; i < 50; ++i) corpus += "abab ";
  const BpeTokenizer t = BpeTokenizer::train(corpus, 64);
  EXPECT_GT(t.merge_count(), 0u);
  // "abab" should encode to far fewer tokens than its character count.
  EXPECT_LT(t.encode("abab").size(), 4u);
}

TEST(Bpe, VocabBudgetRespected) {
  std::string corpus;
  for (int i = 0; i < 30; ++i) {
    corpus += "alpha beta gamma delta epsilon zeta ";
  }
  const BpeTokenizer t = BpeTokenizer::train(corpus, 40);
  EXPECT_LE(t.vocab_size(), 40u);
}

TEST(Bpe, UnknownCharactersMapToUnk) {
  const BpeTokenizer t = BpeTokenizer::train("aaa bbb aaa bbb", 32);
  const auto ids = t.encode("zzz");
  ASSERT_FALSE(ids.empty());
  for (const auto id : ids) {
    // id 0 is <unk>; characters unseen in training can only be unk or
    // end-of-word.
    EXPECT_TRUE(id == 0 || t.token(id) == "</w>") << t.token(id);
  }
}

TEST(Bpe, SaveLoadRoundTrip) {
  const std::string corpus =
      "homologous recombination repairs double strand breaks "
      "non-homologous end joining repairs breaks quickly";
  const BpeTokenizer t = BpeTokenizer::train(corpus, 150);
  const BpeTokenizer loaded = BpeTokenizer::load(t.save());
  EXPECT_EQ(loaded.vocab_size(), t.vocab_size());
  EXPECT_EQ(loaded.merge_count(), t.merge_count());
  const std::string probe = "recombination repairs breaks";
  EXPECT_EQ(loaded.encode(probe), t.encode(probe));
}

TEST(Bpe, LoadRejectsBadMagic) {
  EXPECT_THROW(BpeTokenizer::load("not-a-bpe-blob"), std::runtime_error);
}

TEST(Bpe, EmptyInputEncodesEmpty) {
  const BpeTokenizer t = BpeTokenizer::train("some text here", 32);
  EXPECT_TRUE(t.encode("").empty());
  EXPECT_EQ(t.decode({}), "");
}

}  // namespace
}  // namespace mcqa::text
