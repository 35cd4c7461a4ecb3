#pragma once
// Text normalization used before tokenization / embedding.

#include <string>
#include <string_view>

namespace mcqa::text {

/// Lowercase ASCII, collapse whitespace runs to single spaces, trim.
std::string normalize_ws(std::string_view s);

/// normalize_ws writing into a caller-owned buffer (cleared first).
/// Reusing the buffer across calls makes the hot embed path
/// allocation-free once the buffer has grown to steady state.
void normalize_ws_into(std::string_view s, std::string& out);

/// normalize_ws + strip punctuation except intra-word hyphens/digits
/// (keeps "p53", "cobalt-60", "2.5").
std::string normalize_for_matching(std::string_view s);

/// normalize_for_matching into a caller-owned buffer (cleared first).
/// A single fused pass over the raw bytes — lowercase, whitespace
/// collapse and punctuation filter at once — byte-for-byte identical to
/// normalize_for_matching's definition as normalize_ws followed by the
/// punctuation filter.
void normalize_for_matching_into(std::string_view s, std::string& out);

}  // namespace mcqa::text
