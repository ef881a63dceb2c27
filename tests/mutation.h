// Byte-level input mutations for the robustness suites: one seeded edit per
// mutant, the way a corrupted or hostile input would arrive. Every parser
// or validator fed a mutant must either accept it as a well-formed value
// or throw a typed exception, never reach undefined behaviour (the
// sanitize preset turns UB into a failure).
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace sperke::fuzz {

enum class Mutation { kBitFlip, kSubstitute, kTruncate, kDelete, kDuplicate };

inline constexpr Mutation kAllMutations[] = {
    Mutation::kBitFlip, Mutation::kSubstitute, Mutation::kTruncate,
    Mutation::kDelete, Mutation::kDuplicate};

inline std::string_view to_string(Mutation kind) {
  switch (kind) {
    case Mutation::kBitFlip: return "bit_flip";
    case Mutation::kSubstitute: return "substitute";
    case Mutation::kTruncate: return "truncate";
    case Mutation::kDelete: return "delete";
    case Mutation::kDuplicate: return "duplicate";
  }
  return "unknown";
}

// gtest prints a parameter through PrintTo (found by ADL).
inline void PrintTo(Mutation kind, std::ostream* os) { *os << to_string(kind); }

// One `kind` edit of `bytes` at a position drawn from `rng`: flip one bit,
// overwrite one byte, cut the tail, or delete or repeat a span of 1-8
// bytes.
inline std::string mutate(std::string bytes, Mutation kind, Rng& rng) {
  if (bytes.empty()) return bytes;
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
  const auto span = static_cast<std::size_t>(rng.uniform_int(1, 8));
  switch (kind) {
    case Mutation::kBitFlip:
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.uniform_int(0, 7)));
      break;
    case Mutation::kSubstitute:
      bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case Mutation::kTruncate:
      bytes.resize(pos);
      break;
    case Mutation::kDelete:
      bytes.erase(pos, span);
      break;
    case Mutation::kDuplicate:
      bytes.insert(pos, bytes.substr(pos, span));
      break;
  }
  return bytes;
}

}  // namespace sperke::fuzz
