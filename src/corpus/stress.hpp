// Pathological fixtures for resource-governance testing. Unlike the Table IX
// component models, these are not meant to reproduce any paper number — they
// are adversarial classpaths engineered to blow up a specific resource while
// keeping every other dimension small. The first (and so far only) fixture is
// the MAG/CALL fan-out classpath behind the --mem-budget acceptance tests:
// its one real chain is found almost immediately, but finishing the search
// exhaustively forces the traverser to hold a frontier of hops × fan frames —
// exactly the state blow-up §V's depth cap exists to dodge.
#pragma once

#include "jar/archive.hpp"

namespace tabby::corpus {

/// Shape of the fan-out classpath. The defaults give an ungoverned exhaustive
/// search at --depth 60 a frontier of about 224,000 pending branches (about
/// 12 MB of 48-byte records and trigger conditions) and 224,515 expansions,
/// so the search itself, not the classpath, dominates a scan.
struct FanoutStressSpec {
  /// Length of the real chain: Entry.readObject -> Hop_0.step -> ... ->
  /// Hop_{hops-1}.step -> Runtime.exec. Callers need --depth >= hops + 1.
  int hops = 56;
  /// Alias fan: every Hop_j implements all `aliases` interfaces, each
  /// declaring step() — so every hop node carries `aliases` outgoing ALIAS
  /// edges and the backward DFS pushes that many frames per level.
  int aliases = 4000;
  /// Call fan: Fan_i.poke() invokes every hop through an @this field, adding
  /// `call_fans` TC-compatible CALL edges per hop on top of the alias fan.
  int call_fans = 8;
  /// Plant a second, fully independent fan-out chain (own entry, hops,
  /// interfaces and call fans) ending in ClassLoader#loadClass instead of
  /// Runtime#exec. Two sinks then prune under a frontier byte pool, which
  /// the dist tests need to show a WorkerFailure partial on one sink
  /// coexisting with a MemoryPressure partial on another. Off by default —
  /// the single-sink fixture keeps its historical shape byte for byte.
  bool dual_sink = false;
};

/// Deterministic: the same spec always produces the identical archive.
jar::Archive fanout_stress_archive(const FanoutStressSpec& spec = {});

}  // namespace tabby::corpus
