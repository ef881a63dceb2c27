// Free-list slot tables: records that stay at a stable index from the
// moment they are taken until they are handed back (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <vector>

namespace sperke::util {

// Index of a slot of `slots` for a new record: the slot freed last, or a
// new value-initialised one at the end. The caller overwrites the record,
// and later hands the index back with `free_slots.push_back(slot)`. The
// table never shrinks, so it holds its owner's peak of live records.
template <typename T>
[[nodiscard]] std::uint32_t take_slot(std::vector<T>& slots,
                                      std::vector<std::uint32_t>& free_slots) {
  if (free_slots.empty()) {
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
  }
  const std::uint32_t slot = free_slots.back();
  free_slots.pop_back();
  return slot;
}

}  // namespace sperke::util
