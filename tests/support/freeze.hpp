// The one way tests turn a GraphDb they built into the FrozenGraph that the
// finder, Cypher and verify read. A failed freeze throws, which gtest
// reports as a failure of the calling test. Also: the frame of an older
// (or newer) layout, for version-skew tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/frozen.hpp"
#include "util/digest.hpp"

namespace tabby::testing {

inline graph::FrozenGraph freeze(const graph::GraphDb& db, std::uint64_t content_key = 0) {
  auto frozen = graph::FrozenGraph::freeze(db, content_key);
  if (!frozen.ok()) throw std::runtime_error("graph freeze failed: " + frozen.error().message);
  return std::move(frozen.value());
}

/// `frame` with its header's version field set to `version` and its
/// checksum recomputed with the frame's own digest, so only the version can
/// reject it.
inline std::vector<std::byte> with_frame_version(std::span<const std::byte> frame,
                                                 std::uint16_t version) {
  std::vector<std::byte> out(frame.begin(), frame.end());
  std::memcpy(out.data() + 4, &version, sizeof version);
  const std::size_t body = out.size() - graph::kFrozenChecksumSize;
  std::uint64_t sum = util::content_digest(std::span<const std::byte>(out.data(), body));
  std::memcpy(out.data() + body, &sum, sizeof sum);
  return out;
}

}  // namespace tabby::testing
