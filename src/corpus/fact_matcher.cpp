#include "corpus/fact_matcher.hpp"

#include "corpus/realization.hpp"
#include "text/normalize.hpp"

namespace mcqa::corpus {

namespace {

/// Word-boundary-ish substring search over normalized text.
bool contains_phrase(std::string_view haystack, std::string_view phrase) {
  if (phrase.empty()) return false;
  std::size_t pos = 0;
  while ((pos = haystack.find(phrase, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || haystack[pos - 1] == ' ';
    const std::size_t end = pos + phrase.size();
    const bool right_ok = end == haystack.size() || haystack[end] == ' ';
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

}  // namespace

FactMatcher::FactMatcher(const KnowledgeBase& kb) {
  entity_norm_.reserve(kb.entities().size());
  for (const auto& e : kb.entities()) {
    entity_norm_.push_back(text::normalize_for_matching(e.name));
  }
  keys_.reserve(kb.facts().size());
  for (const auto& fact : kb.facts()) {
    FactKey key;
    key.id = fact.id;
    key.subject = fact.subject;
    key.object = fact.object;
    key.relation = fact.relation;
    if (fact.relation == RelationKind::kHalfLife ||
        fact.relation == RelationKind::kHasQuantity) {
      key.value =
          text::normalize_for_matching(format_quantity(fact.value, fact.unit));
    } else {
      // Relational fact: require a cue word from the verb phrase so that
      // a chunk merely mentioning both entities in unrelated sentences
      // doesn't count as carrying the relation.  The first word of the
      // verb phrase is the discriminative cue ("activates", "inhibits",
      // "radiosensitizes", ...).
      key.cue = text::normalize_for_matching(relation_verb(fact.relation));
      const std::size_t space = key.cue.find(' ');
      if (space != std::string::npos) key.cue.resize(space);
    }
    keys_.push_back(std::move(key));
  }
}

bool FactMatcher::payload_in(std::string_view normalized, const FactKey& key) {
  switch (key.relation) {
    case RelationKind::kHalfLife:
      // Subject + the phrase "half-life" + the numeric value.
      if (normalized.find("half-life") == std::string_view::npos &&
          normalized.find("half life") == std::string_view::npos) {
        return false;
      }
      return contains_phrase(normalized, key.value);
    case RelationKind::kHasQuantity:
      return contains_phrase(normalized, key.value);
    default:
      return normalized.find(key.cue) != std::string_view::npos;
  }
}

std::vector<FactId> FactMatcher::match(std::string_view txt) const {
  const std::string normalized = text::normalize_for_matching(txt);
  // Each entity name is searched once; every fact then reads its
  // subject's and object's presence from the bitmap.
  std::vector<char> present(entity_norm_.size());
  for (std::size_t e = 0; e < entity_norm_.size(); ++e) {
    present[e] = contains_phrase(normalized, entity_norm_[e]) ? 1 : 0;
  }
  std::vector<FactId> out;
  for (const FactKey& key : keys_) {
    if (present[key.subject] == 0) continue;
    if (key.relation != RelationKind::kHalfLife && present[key.object] == 0) {
      continue;
    }
    if (payload_in(normalized, key)) out.push_back(key.id);
  }
  return out;
}

bool FactMatcher::contains(std::string_view txt, FactId fact) const {
  const FactKey& key = keys_.at(fact);
  const std::string normalized = text::normalize_for_matching(txt);
  if (!contains_phrase(normalized, entity_norm_[key.subject])) return false;
  if (key.relation != RelationKind::kHalfLife &&
      !contains_phrase(normalized, entity_norm_[key.object])) {
    return false;
  }
  return payload_in(normalized, key);
}

}  // namespace mcqa::corpus
