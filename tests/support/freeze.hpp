// The one way tests turn a GraphDb they built into the FrozenGraph that the
// finder, Cypher and verify read. A failed freeze throws, which gtest
// reports as a failure of the calling test.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "graph/frozen.hpp"

namespace tabby::testing {

inline graph::FrozenGraph freeze(const graph::GraphDb& db, std::uint64_t content_key = 0,
                                 util::MemoryBudget* memory = nullptr, bool with_stats = true) {
  auto frozen = graph::FrozenGraph::freeze(db, content_key, memory, with_stats);
  if (!frozen.ok()) throw std::runtime_error("graph freeze failed: " + frozen.error().message);
  return std::move(frozen.value());
}

}  // namespace tabby::testing
