// Counted-bytes estimators for the state-size accounting (E5/E19).
//
// Flat tables report exact vector footprints; the remaining std::map /
// std::set structures are estimated with libstdc++'s per-node overhead
// (3 pointers + color word for an _Rb_tree_node) so the accounting charges
// the node-allocating containers what the allocator actually hands them.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace portland {

/// _Rb_tree_node header: parent/left/right pointers + color (padded).
inline constexpr std::size_t kTreeNodeOverhead = 40;

template <typename K, typename V, typename C>
[[nodiscard]] std::size_t map_bytes(const std::map<K, V, C>& m) {
  return m.size() * (sizeof(std::pair<const K, V>) + kTreeNodeOverhead);
}

template <typename T, typename C>
[[nodiscard]] std::size_t set_bytes(const std::set<T, C>& s) {
  return s.size() * (sizeof(T) + kTreeNodeOverhead);
}

template <typename T>
[[nodiscard]] std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace portland
