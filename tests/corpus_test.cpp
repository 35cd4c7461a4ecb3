// Unit tests for corpus synthesis: knowledge base, realization, paper
// generation, SPDF rendering, corpus builder, fact matcher.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "corpus/corpus_builder.hpp"
#include "corpus/fact_matcher.hpp"
#include "corpus/knowledge_base.hpp"
#include "corpus/paper_generator.hpp"
#include "corpus/realization.hpp"
#include "corpus/spdf.hpp"
#include "corpus/term_banks.hpp"
#include "core/pipeline.hpp"

namespace mcqa::corpus {
namespace {

KbConfig small_kb_config() {
  KbConfig cfg;
  cfg.facts_per_topic = 12;
  cfg.seed = 5;
  return cfg;
}

const KnowledgeBase& test_kb() {
  static const KnowledgeBase kb = KnowledgeBase::generate(small_kb_config());
  return kb;
}

// --- term banks ---------------------------------------------------------------

TEST(TermBanks, AllKindsNonEmpty) {
  for (int k = 0; k < kEntityKindCount; ++k) {
    EXPECT_FALSE(term_bank(static_cast<EntityKind>(k)).empty())
        << entity_kind_name(static_cast<EntityKind>(k));
  }
  EXPECT_FALSE(topic_bank().empty());
  EXPECT_FALSE(discourse_bank().empty());
}

TEST(TermBanks, HalfLivesAlignedWithIsotopes) {
  EXPECT_EQ(isotope_half_life_days().size(),
            term_bank(EntityKind::kIsotope).size());
  for (const double hl : isotope_half_life_days()) EXPECT_GT(hl, 0.0);
}

TEST(TermBanks, NamesUniqueWithinKind) {
  for (int k = 0; k < kEntityKindCount; ++k) {
    const auto& bank = term_bank(static_cast<EntityKind>(k));
    std::set<std::string_view> unique(bank.begin(), bank.end());
    EXPECT_EQ(unique.size(), bank.size());
  }
}

// --- knowledge base -------------------------------------------------------------

TEST(KnowledgeBase, GenerationDeterministic) {
  const KnowledgeBase a = KnowledgeBase::generate(small_kb_config());
  const KnowledgeBase b = KnowledgeBase::generate(small_kb_config());
  ASSERT_EQ(a.facts().size(), b.facts().size());
  for (std::size_t i = 0; i < a.facts().size(); ++i) {
    EXPECT_EQ(a.facts()[i].subject, b.facts()[i].subject);
    EXPECT_EQ(a.facts()[i].relation, b.facts()[i].relation);
    EXPECT_EQ(a.facts()[i].object, b.facts()[i].object);
  }
}

TEST(KnowledgeBase, NoDuplicateRelations) {
  const auto& kb = test_kb();
  std::set<std::tuple<EntityId, int, EntityId>> seen;
  for (const auto& f : kb.facts()) {
    const auto key = std::make_tuple(
        f.subject, static_cast<int>(f.relation), f.object);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate fact";
  }
}

TEST(KnowledgeBase, RelationHoldsMatchesFacts) {
  const auto& kb = test_kb();
  for (const auto& f : kb.facts()) {
    EXPECT_TRUE(kb.relation_holds(f.subject, f.relation, f.object));
  }
  // A relation not in the KB.
  EXPECT_FALSE(kb.relation_holds(0, RelationKind::kActivates, 0));
}

TEST(KnowledgeBase, FactsRespectRelationSignatures) {
  const auto& kb = test_kb();
  for (const auto& f : kb.facts()) {
    const EntityKind sk = kb.entity(f.subject).kind;
    switch (f.relation) {
      case RelationKind::kPhosphorylates:
        EXPECT_EQ(sk, EntityKind::kGene);
        EXPECT_EQ(kb.entity(f.object).kind, EntityKind::kGene);
        break;
      case RelationKind::kSensitizes:
      case RelationKind::kProtects:
        EXPECT_EQ(sk, EntityKind::kAgent);
        EXPECT_EQ(kb.entity(f.object).kind, EntityKind::kCellType);
        break;
      case RelationKind::kHalfLife:
        EXPECT_EQ(sk, EntityKind::kIsotope);
        EXPECT_TRUE(f.quantitative);
        EXPECT_GT(f.value, 0.0);
        break;
      case RelationKind::kHasQuantity:
        EXPECT_EQ(kb.entity(f.object).kind, EntityKind::kQuantity);
        EXPECT_TRUE(f.quantitative);
        break;
      default:
        break;
    }
  }
}

TEST(KnowledgeBase, TopicsPartitionFacts) {
  const auto& kb = test_kb();
  std::size_t total = 0;
  for (const auto& t : kb.topics()) total += t.facts.size();
  EXPECT_EQ(total, kb.facts().size());
}

TEST(KnowledgeBase, ImportanceInRange) {
  for (const auto& f : test_kb().facts()) {
    EXPECT_GE(f.importance, 0.0);
    EXPECT_LE(f.importance, 1.0);
  }
}

TEST(KnowledgeBase, FindEntityByName) {
  const auto& kb = test_kb();
  const auto id = kb.find_entity("TP53");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(kb.entity(*id).name, "TP53");
  EXPECT_FALSE(kb.find_entity("NOT-A-GENE").has_value());
}

TEST(KnowledgeBase, FactsMentioningIndexesBothSides) {
  const auto& kb = test_kb();
  for (const auto& f : kb.facts()) {
    const auto subj_facts = kb.facts_mentioning(f.subject);
    EXPECT_NE(std::find(subj_facts.begin(), subj_facts.end(), f.id),
              subj_facts.end());
  }
}

// --- realization -----------------------------------------------------------------

TEST(Realization, StatementVariantsDiffer) {
  const auto& kb = test_kb();
  const Fact& f = kb.facts().front();
  std::set<std::string> variants;
  for (int v = 0; v < statement_variant_count(f); ++v) {
    variants.insert(realize_statement(kb, f, v));
  }
  EXPECT_EQ(variants.size(),
            static_cast<std::size_t>(statement_variant_count(f)));
}

TEST(Realization, StatementMentionsEntities) {
  const auto& kb = test_kb();
  for (const auto& f : kb.facts()) {
    const std::string s = realize_statement(kb, f, 0);
    EXPECT_NE(s.find(kb.entity(f.subject).name), std::string::npos) << s;
  }
}

TEST(Realization, QuestionHasDistinctOptions) {
  const auto& kb = test_kb();
  util::Rng rng(3);
  for (const auto& f : kb.facts()) {
    util::Rng qrng = rng.fork(f.id);
    const QuestionRealization q = realize_question(kb, f, qrng);
    EXPECT_FALSE(q.stem.empty());
    EXPECT_FALSE(q.correct.empty());
    std::set<std::string> all(q.distractors.begin(), q.distractors.end());
    EXPECT_EQ(all.size(), q.distractors.size()) << "duplicate distractors";
    EXPECT_FALSE(all.contains(q.correct)) << "correct leaked into distractors";
  }
}

TEST(Realization, EntityDistractorsAreFalse) {
  const auto& kb = test_kb();
  util::Rng rng(17);
  int relational_checked = 0;
  for (const auto& f : kb.facts()) {
    if (f.quantitative) continue;
    util::Rng qrng = rng.fork(f.id);
    const QuestionRealization q = realize_question(kb, f, qrng);
    // Each distractor, substituted into the asked slot, must not be a
    // true relation.
    for (const auto& d : q.distractors) {
      const auto id = kb.find_entity(d);
      if (!id.has_value()) continue;
      const bool as_subject = kb.relation_holds(*id, f.relation, f.object);
      const bool as_object = kb.relation_holds(f.subject, f.relation, *id);
      EXPECT_FALSE(as_subject && as_object);
    }
    ++relational_checked;
  }
  EXPECT_GT(relational_checked, 0);
}

TEST(Realization, MathQuestionsFlagged) {
  const auto& kb = test_kb();
  util::Rng rng(23);
  bool saw_math = false;
  for (const auto& f : kb.facts()) {
    if (!f.math) continue;
    util::Rng qrng = rng.fork(f.id);
    const QuestionRealization q = realize_question(kb, f, qrng);
    EXPECT_TRUE(q.math);
    saw_math = true;
  }
  EXPECT_TRUE(saw_math) << "KB generated no math facts";
}

TEST(Realization, FormatQuantity) {
  EXPECT_EQ(format_quantity(2.50, "Gy"), "2.5 Gy");
  EXPECT_EQ(format_quantity(3.0, ""), "3");
  EXPECT_EQ(format_quantity(11.04, "days"), "11 days");
}

// --- paper generation ---------------------------------------------------------------

TEST(PaperGenerator, FactsAppearInText) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec spec = gen.generate(0, DocKind::kFullPaper, util::Rng(77));
  const FactMatcher matcher(kb);
  const auto found = matcher.match(spec.plain_text());
  const std::unordered_set<FactId> found_set(found.begin(), found.end());
  // Every fact the generator claims to have realized must be detectable
  // in the plain text.
  for (const FactId f : spec.facts) {
    EXPECT_TRUE(found_set.contains(f)) << "fact " << f << " not in text";
  }
}

TEST(PaperGenerator, FullPaperHasStandardSections) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec spec = gen.generate(1, DocKind::kFullPaper, util::Rng(78));
  std::vector<std::string> headings;
  for (const auto& s : spec.sections) headings.push_back(s.heading);
  EXPECT_NE(std::find(headings.begin(), headings.end(), "Abstract"),
            headings.end());
  EXPECT_NE(std::find(headings.begin(), headings.end(), "Results"),
            headings.end());
}

TEST(PaperGenerator, AbstractIsSingleSection) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec spec = gen.generate(2, DocKind::kAbstract, util::Rng(79));
  ASSERT_EQ(spec.sections.size(), 1u);
  EXPECT_EQ(spec.sections[0].heading, "Abstract");
  EXPECT_FALSE(spec.facts.empty());
}

TEST(PaperGenerator, DeterministicPerSeed) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec a = gen.generate(3, DocKind::kFullPaper, util::Rng(80));
  const PaperSpec b = gen.generate(3, DocKind::kFullPaper, util::Rng(80));
  EXPECT_EQ(a.plain_text(), b.plain_text());
  EXPECT_EQ(a.facts, b.facts);
}

TEST(PaperGenerator, SentenceFactAttribution) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec spec = gen.generate(4, DocKind::kFullPaper, util::Rng(81));
  const FactMatcher matcher(kb);
  for (const auto& section : spec.sections) {
    for (const auto& sentence : section.sentences) {
      for (const FactId f : sentence.facts) {
        EXPECT_TRUE(matcher.contains(sentence.text, f))
            << sentence.text << " should carry fact " << f;
      }
    }
  }
}

// --- SPDF -------------------------------------------------------------------------

TEST(Spdf, CleanRenderHasStructure) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec spec = gen.generate(5, DocKind::kFullPaper, util::Rng(82));
  const std::string bytes = write_spdf(spec, SpdfNoise::clean(), util::Rng(83));
  EXPECT_EQ(bytes.rfind("%SPDF-", 0), 0u);
  EXPECT_NE(bytes.find("%%DocId: " + spec.doc_id), std::string::npos);
  EXPECT_NE(bytes.find("%%BeginPage 1"), std::string::npos);
  EXPECT_NE(bytes.find("%%EOF"), std::string::npos);
  EXPECT_EQ(bytes.find("~HDR~"), std::string::npos);  // clean = no headers
}

TEST(Spdf, HardRenderInjectsArtifacts) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec spec = gen.generate(6, DocKind::kFullPaper, util::Rng(84));
  const std::string bytes = write_spdf(spec, SpdfNoise::hard(), util::Rng(85));
  EXPECT_NE(bytes.find("~HDR~"), std::string::npos);
}

TEST(Spdf, MarkdownRender) {
  const auto& kb = test_kb();
  const PaperGenerator gen(kb, PaperGenConfig{});
  const PaperSpec spec = gen.generate(7, DocKind::kFullPaper, util::Rng(86));
  const std::string md = write_markdown(spec);
  EXPECT_EQ(md.rfind("# ", 0), 0u);
  EXPECT_NE(md.find("## Abstract"), std::string::npos);
}

// --- corpus builder -----------------------------------------------------------------

TEST(CorpusBuilder, CountsScaleWithConfig) {
  CorpusConfig cfg;
  cfg.scale = 0.002;
  EXPECT_EQ(cfg.paper_count(), 28u);    // round(0.002 * 14115)
  EXPECT_EQ(cfg.abstract_count(), 17u);  // round(0.002 * 8433)
}

TEST(CorpusBuilder, DeterministicAcrossThreadCounts) {
  const auto& kb = test_kb();
  CorpusConfig cfg;
  cfg.scale = 0.001;
  cfg.seed = 999;
  const SyntheticCorpus a = build_corpus(kb, cfg, /*threads=*/1);
  const SyntheticCorpus b = build_corpus(kb, cfg, /*threads=*/4);
  ASSERT_EQ(a.documents.size(), b.documents.size());
  for (std::size_t i = 0; i < a.documents.size(); ++i) {
    EXPECT_EQ(a.documents[i].doc_id, b.documents[i].doc_id);
    EXPECT_EQ(a.documents[i].bytes, b.documents[i].bytes);
  }
}

TEST(CorpusBuilder, UniqueDocIdsAndSpecAlignment) {
  const auto& kb = test_kb();
  CorpusConfig cfg;
  cfg.scale = 0.001;
  const SyntheticCorpus corpus = build_corpus(kb, cfg);
  std::set<std::string> ids;
  for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
    EXPECT_TRUE(ids.insert(corpus.documents[i].doc_id).second);
    EXPECT_EQ(corpus.documents[i].doc_id, corpus.specs[i].doc_id);
  }
  EXPECT_NE(corpus.spec_for(corpus.documents.front().doc_id), nullptr);
  EXPECT_EQ(corpus.spec_for("nonexistent"), nullptr);
}

TEST(CorpusBuilder, FormatMixIncludesAllThree) {
  const auto& kb = test_kb();
  CorpusConfig cfg;
  cfg.scale = 0.01;  // enough docs for the mix to show up
  cfg.markdown_fraction = 0.2;
  cfg.text_fraction = 0.2;
  const SyntheticCorpus corpus = build_corpus(kb, cfg);
  std::set<DocFormat> formats;
  for (const auto& d : corpus.documents) formats.insert(d.format);
  EXPECT_TRUE(formats.contains(DocFormat::kSpdf));
  EXPECT_TRUE(formats.contains(DocFormat::kMarkdown));
  EXPECT_TRUE(formats.contains(DocFormat::kPlainText));
}

// --- fact matcher ------------------------------------------------------------------

TEST(FactMatcher, DetectsRealizedStatement) {
  const auto& kb = test_kb();
  const FactMatcher matcher(kb);
  for (int variant = 0; variant < 3; ++variant) {
    const Fact& f = kb.facts()[kb.facts().size() / 2];
    const std::string text = realize_statement(kb, f, variant);
    EXPECT_TRUE(matcher.contains(text, f.id)) << text;
  }
}

TEST(FactMatcher, RejectsUnrelatedText) {
  const auto& kb = test_kb();
  const FactMatcher matcher(kb);
  EXPECT_TRUE(
      matcher.match("The weather in Chicago is windy today.").empty());
}

TEST(FactMatcher, RejectsCoMentionWithoutRelationCue) {
  const auto& kb = test_kb();
  const FactMatcher matcher(kb);
  // Find a relational fact and mention both entities without the verb.
  for (const auto& f : kb.facts()) {
    if (f.quantitative) continue;
    const std::string text = "We measured " + kb.entity(f.subject).name +
                             " and separately " + kb.entity(f.object).name +
                             " in this cohort.";
    EXPECT_FALSE(matcher.contains(text, f.id)) << text;
    break;
  }
}

TEST(FactMatcher, SurvivesCaseAndPunctuation) {
  const auto& kb = test_kb();
  const FactMatcher matcher(kb);
  const Fact& f = kb.facts().front();
  std::string text = realize_statement(kb, f, 0);
  for (auto& c : text) c = static_cast<char>(std::toupper(c));
  EXPECT_TRUE(matcher.contains(text, f.id));
}

TEST(FactMatcher, BrokenEntityNameNotDetected) {
  const auto& kb = test_kb();
  const FactMatcher matcher(kb);
  const Fact& f = kb.facts().front();
  std::string text = realize_statement(kb, f, 0);
  // Corrupt the subject name (ligature-style damage).
  const std::string& subj = kb.entity(f.subject).name;
  const auto pos = text.find(subj);
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, 2);
  EXPECT_FALSE(matcher.contains(text, f.id));
}

TEST(FactMatcher, MatchesEveryRealizedStatement) {
  // The default knowledge base: every fact, every statement variant.
  const KnowledgeBase kb = KnowledgeBase::generate(KbConfig{});
  const FactMatcher matcher(kb);
  for (const Fact& f : kb.facts()) {
    for (int variant = 0; variant < 3; ++variant) {
      const std::string text = realize_statement(kb, f, variant);
      const std::vector<FactId> found = matcher.match(text);
      EXPECT_NE(std::find(found.begin(), found.end(), f.id), found.end())
          << "fact " << f.id << " variant " << variant << ": " << text;
    }
  }
}

TEST(FactMatcher, ContainsAgreesWithMatchOnBuildTexts) {
  core::PipelineConfig cfg = core::PipelineConfig::paper_scale(0.008);
  cfg.checkpoint_dir.clear();
  const core::PipelineContext ctx(cfg);
  const FactMatcher& matcher = ctx.matcher();

  // Chunk texts spread over the whole corpus, plus trace retrieval
  // texts from every mode.
  std::vector<std::string> texts;
  const auto& chunks = ctx.chunks();
  ASSERT_GE(chunks.size(), 100u);
  const std::size_t stride = chunks.size() / 100;
  for (std::size_t c = 0; c < chunks.size() && texts.size() < 100;
       c += stride) {
    texts.push_back(chunks[c].text);
  }
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto& traces = ctx.traces(static_cast<trace::TraceMode>(m));
    for (std::size_t t = 0; t < traces.size() && t < 20; ++t) {
      texts.push_back(traces[t].retrieval_text());
    }
  }
  ASSERT_GE(texts.size(), 150u);

  std::size_t matched = 0;
  for (const std::string& text : texts) {
    const std::vector<FactId> found = matcher.match(text);
    for (std::size_t i = 1; i < found.size(); ++i) {
      ASSERT_LT(found[i - 1], found[i]) << text;
    }
    matched += found.size();
    const std::set<FactId> in_match(found.begin(), found.end());
    for (const Fact& f : ctx.kb().facts()) {
      ASSERT_EQ(matcher.contains(text, f.id), in_match.contains(f.id))
          << "fact " << f.id << ": " << text;
    }
  }
  EXPECT_GT(matched, texts.size() / 2);  // the texts do carry facts
}

}  // namespace
}  // namespace mcqa::corpus
