#pragma once
// Fact detection in free text.
//
// After parsing and chunking, chunk text is all that survives; the
// evaluation needs to know which ground-truth facts a chunk (or a
// reasoning trace) still carries.  A fact counts as present when its
// subject surface form, its relation cue, and its object surface form
// (or numeric payload) co-occur in the normalized text.  This tolerates
// parser noise — a dropped ligature breaks a name and correctly
// registers as knowledge lost.
//
// Every fact's match strings are normalized once, at construction.  A
// match() call normalizes the text, tests each entity name once, and
// then walks the facts in id order; contains() applies the same checks
// to one fact, so the two always agree.

#include <string>
#include <string_view>
#include <vector>

#include "corpus/knowledge_base.hpp"

namespace mcqa::corpus {

class FactMatcher {
 public:
  explicit FactMatcher(const KnowledgeBase& kb);

  /// All facts detected in `text` (any casing/punctuation), in
  /// ascending id order.
  std::vector<FactId> match(std::string_view text) const;

  /// Is this one fact present in `text`?  Equal to membership in
  /// match(text).
  bool contains(std::string_view text, FactId fact) const;

 private:
  /// One fact's precomputed match strings.
  struct FactKey {
    FactId id = 0;
    EntityId subject = 0;
    EntityId object = 0;
    RelationKind relation = RelationKind::kActivates;
    std::string value;  ///< normalized quantity (quantitative relations)
    std::string cue;    ///< first normalized verb word (other relations)
  };

  /// Does `normalized` hold the fact's relation cue or quantity?  The
  /// caller has already found its subject and, unless the relation is
  /// kHalfLife, its object.
  static bool payload_in(std::string_view normalized, const FactKey& key);

  std::vector<std::string> entity_norm_;  ///< normalized entity names
  std::vector<FactKey> keys_;             ///< indexed like kb.facts()
};

}  // namespace mcqa::corpus
