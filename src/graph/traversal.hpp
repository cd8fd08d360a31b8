// Path-traversal framework modeled on the Neo4j Traversal API that
// tabby-path-finder plugs into: a pluggable Expander produces the next
// steps (optionally rewriting a per-branch state — Tabby threads the
// Trigger_Condition through here), and an Evaluator decides inclusion and
// pruning (Algorithm 3). The engine is an explicit-stack DFS whose pending
// branches are fixed-size records {node, edge, depth, state}: their
// ancestors live once, in the single current Path, which is rewound to a
// branch's depth when the branch is popped. Uniqueness is Neo4j's NODE_PATH
// (no node twice within one path): an on-path bitmap maintained by the same
// rewind. The expander appends into one step buffer the engine clears and
// reuses, so an expansion allocates nothing once the buffers have grown.
//
// Resource governance (docs/ROBUSTNESS.md): the run is bounded three ways —
// expansions (TraversalLimits::max_expansions), wall clock (::deadline) and
// frontier bytes (::max_frontier_bytes). The byte bound covers the DFS
// stack, the store a pathological alias/CALL fan-out actually grows: one
// fixed-size record per pending branch, so depth × fan-out records. A state
// is charged at its size alone, so it should own no heap (the finder's is
// an id into its own Trigger_Condition table). The current path is bounded
// by the evaluator's prune depth and stays uncharged. When a push would
// cross the cap, the engine first *spills* nothing (a result is handed to
// the caller the moment it is found, so completed paths never sit in the
// frontier) and then *prunes* the lowest-priority branches — shallowest
// first, in deterministic stack order — until the child fits. Pruning only
// drops unexplored subtrees, so results found under a byte cap are always a
// prefix-respecting subset of the unbounded run's results.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/frozen.hpp"
#include "util/deadline.hpp"

namespace tabby::graph {

/// An alternating node/edge path. nodes.size() == edges.size() + 1.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;

  NodeId start() const { return nodes.front(); }
  NodeId end() const { return nodes.back(); }
  std::size_t length() const { return edges.size(); }  // Neo4j semantics: edge count
};

enum class Evaluation : std::uint8_t {
  IncludeAndContinue,
  IncludeAndPrune,
  ExcludeAndContinue,
  ExcludeAndPrune,
};

inline bool includes(Evaluation e) {
  return e == Evaluation::IncludeAndContinue || e == Evaluation::IncludeAndPrune;
}
inline bool continues(Evaluation e) {
  return e == Evaluation::IncludeAndContinue || e == Evaluation::ExcludeAndContinue;
}

/// One expansion step: follow `edge` to `next`, carrying `state`.
template <typename State>
struct Step {
  EdgeId edge = kNoEdge;
  NodeId next = kNoNode;
  State state{};
};

template <typename State>
struct TraversalResult {
  Path path;
  State state{};
};

/// Limits guarding against path explosion; `expansions` bounds total steps
/// taken (the Serianalyzer baseline exhausts this to reproduce the paper's
/// non-terminating "X" cells).
struct TraversalLimits {
  std::size_t max_results = SIZE_MAX;
  std::size_t max_expansions = SIZE_MAX;
  /// Wall-clock bound, polled every kDeadlineStride expansions, which keeps
  /// the clock off the hot path while still stopping within microseconds of
  /// expiry. An expired deadline ends the run like an exhausted expansion
  /// budget, but is reported separately via Traverser::deadline_expired() —
  /// results found so far are kept.
  util::Deadline deadline;
  /// Byte cap on the DFS frontier: one fixed-size record per pending branch
  /// (the shared current path is bounded by the search depth and not
  /// charged). SIZE_MAX = ungoverned. Crossing the cap prunes shallowest
  /// branches first; see Traverser::frontier_pruned().
  /// The cap must be a value derived deterministically (per-shard slice),
  /// never a live shared counter, so runs are bit-identical at any worker
  /// count.
  std::size_t max_frontier_bytes = SIZE_MAX;
};

/// Expansions between two polls of TraversalLimits::deadline.
inline constexpr std::size_t kDeadlineStride = 64;

/// Appends the steps out of the path's end to `steps`, which the engine
/// hands over empty.
template <typename State>
using ExpandFunction = std::function<void(const FrozenGraph&, const Path&, const State&,
                                          std::vector<Step<State>>& steps)>;
template <typename State>
using EvalFunction = std::function<Evaluation(const FrozenGraph&, const Path&, const State&)>;

/// The engine walks the frozen CSR graph. Expansion and evaluation see the
/// same `const FrozenGraph&` it was constructed with; the traversal order is
/// the order in which the expand callback appends steps. The callbacks are
/// std::function unless the caller names its own callable types, which
/// lets the compiler inline them into the loop.
template <typename State, typename Expand = ExpandFunction<State>,
          typename Eval = EvalFunction<State>>
class Traverser {
 public:
  using ExpandFn = Expand;
  using EvalFn = Eval;
  /// Streaming result sink: invoked in DFS discovery order, exactly when
  /// the accumulating run() would have appended. Taking the result by value
  /// lets the caller keep it in a compact form (the "spill" half of the byte
  /// governance: results never accumulate in the engine).
  using ResultFn = std::function<void(TraversalResult<State>)>;

  Traverser(const FrozenGraph& db, ExpandFn expand, EvalFn evaluate, TraversalLimits limits = {})
      : db_(db), expand_(std::move(expand)), evaluate_(std::move(evaluate)), limits_(limits) {}

  /// Runs a DFS from `start` with initial per-branch `state`. Returns every
  /// included path, in DFS discovery order.
  std::vector<TraversalResult<State>> run(NodeId start, State initial) {
    std::vector<TraversalResult<State>> results;
    run(start, std::move(initial),
        [&results](TraversalResult<State> r) { results.push_back(std::move(r)); });
    return results;
  }

  /// Streaming variant: results are handed to `emit` as they are found and
  /// never accumulate inside the engine. This is the only run path — the
  /// vector overload above is a thin adapter — so governed and ungoverned
  /// searches execute the identical traversal.
  void run(NodeId start, State initial, const ResultFn& emit) {
    exhausted_budget_ = false;
    deadline_expired_ = false;
    expansions_ = 0;
    results_ = 0;
    frontier_pruned_ = 0;
    frontier_bytes_ = 0;
    peak_frontier_bytes_ = 0;
    bytes_charged_ = 0;
    // An already-expired deadline does no work at all: the start node is
    // never evaluated, no results are produced.
    if (limits_.deadline.expired()) {
      deadline_expired_ = true;
      return;
    }

    // One pending branch: follow `edge` to `node`, giving a path of `depth`
    // edges. Its ancestors are not stored: whenever the frame is popped they
    // are the first `depth` nodes of `path`, since DFS pops it only after the
    // subtrees of its later-pushed siblings, none of which rewinds past them.
    struct Frame {
      NodeId node;
      EdgeId edge;
      std::size_t depth;
      State state;
    };
    constexpr std::size_t kFrameCost = sizeof(Frame);
    // Pending branches live in stack[bottom, size()); the pruned prefix below
    // `bottom` is erased only once it outgrows the live part, so dropping
    // shallowest-first costs O(1) amortized per branch, not a shift of the
    // whole stack.
    std::vector<Frame> stack;
    std::size_t bottom = 0;

    charge(kFrameCost);
    stack.push_back(Frame{start, kNoEdge, 0, std::move(initial)});

    // The popped branch's full path, shared by every pending branch below it.
    Path path;
    // The nodes on `path`, cleared on rewind.
    std::vector<bool> on_path(db_.node_count(), false);
    // The expander's output, reused across expansions.
    std::vector<Step<State>> steps;

    while (stack.size() > bottom) {
      Frame frame = std::move(stack.back());
      stack.pop_back();
      release(kFrameCost);

      // Rewind to the branch's parent, then step onto the branch.
      while (path.nodes.size() > frame.depth) {
        on_path[path.nodes.back()] = false;
        path.nodes.pop_back();
      }
      if (frame.depth > 0) {
        path.edges.resize(frame.depth - 1);
        path.edges.push_back(frame.edge);
      }
      path.nodes.push_back(frame.node);
      on_path[frame.node] = true;

      Evaluation verdict = evaluate_(db_, path, frame.state);
      if (includes(verdict)) {
        // The result gets its own copy of the path (the "spill": completed
        // paths never sit in the frontier); the shared path stays in use.
        bool done = ++results_ >= limits_.max_results;
        if (done || !continues(verdict)) {
          emit(TraversalResult<State>{path, std::move(frame.state)});
          if (done) return;
          continue;
        }
        // Include-and-continue: expansion below still needs the state.
        emit(TraversalResult<State>{path, frame.state});
      }
      if (!continues(verdict)) continue;

      // The refused expansion is not counted: a run stopped by a budget of
      // N reports N.
      if (expansions_ >= limits_.max_expansions) {
        exhausted_budget_ = true;
        return;
      }
      ++expansions_;
      if (!limits_.deadline.unlimited() && expansions_ % kDeadlineStride == 0 &&
          limits_.deadline.expired()) {
        deadline_expired_ = true;
        return;
      }

      steps.clear();
      expand_(db_, path, frame.state, steps);
      // Push in reverse so the first step is explored first (stable DFS).
      for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
        if (on_path[it->next]) continue;
        if (frontier_bytes_ + kFrameCost > limits_.max_frontier_bytes) {
          // Over the byte cap: prune shallowest-first. The stack front holds
          // the shallowest unexplored branches (earliest siblings), i.e. the
          // biggest unexplored subtrees — dropping them caps growth while the
          // current (deepest) branch keeps making progress. Deterministic:
          // stack order is a pure function of the traversal so far.
          std::size_t drop = 0, freed = 0;
          while (bottom + drop < stack.size() &&
                 frontier_bytes_ - freed + kFrameCost > limits_.max_frontier_bytes) {
            ++drop;
            freed += kFrameCost;
          }
          if (drop > 0) {
            bottom += drop;
            if (2 * bottom >= stack.size()) {
              stack.erase(stack.begin(), stack.begin() + static_cast<std::ptrdiff_t>(bottom));
              bottom = 0;
            }
            release(freed);
            frontier_pruned_ += drop;
          }
          if (frontier_bytes_ + kFrameCost > limits_.max_frontier_bytes) {
            // Even an empty frontier cannot absorb this child: drop it too.
            ++frontier_pruned_;
            continue;
          }
        }
        charge(kFrameCost);
        stack.push_back(Frame{it->next, it->edge, frame.depth + 1, std::move(it->state)});
      }
    }
  }

  /// True when the last run() stopped early on max_expansions.
  bool exhausted_budget() const { return exhausted_budget_; }

  /// True when the last run() stopped early on TraversalLimits::deadline;
  /// the results returned up to that point are valid but incomplete.
  bool deadline_expired() const { return deadline_expired_; }

  /// Expansion steps taken by the last run().
  std::size_t expansions() const { return expansions_; }

  /// Frontier branches dropped by the last run() to stay under
  /// max_frontier_bytes; > 0 means the result set may be incomplete
  /// (memory pressure).
  std::size_t frontier_pruned() const { return frontier_pruned_; }

  /// High-water mark of governed frontier bytes in the last run().
  std::size_t peak_frontier_bytes() const { return peak_frontier_bytes_; }

  /// Cumulative bytes charged to the frontier over the last run() (a
  /// monotone total: every push adds, pops never subtract from it).
  std::size_t frontier_bytes_charged() const { return bytes_charged_; }

 private:
  void charge(std::size_t bytes) {
    frontier_bytes_ += bytes;
    bytes_charged_ += bytes;
    if (frontier_bytes_ > peak_frontier_bytes_) peak_frontier_bytes_ = frontier_bytes_;
  }
  void release(std::size_t bytes) { frontier_bytes_ -= bytes; }

  const FrozenGraph& db_;
  ExpandFn expand_;
  EvalFn evaluate_;
  TraversalLimits limits_;
  bool exhausted_budget_ = false;
  bool deadline_expired_ = false;
  std::size_t expansions_ = 0;
  std::size_t results_ = 0;
  std::size_t frontier_pruned_ = 0;
  std::size_t frontier_bytes_ = 0;
  std::size_t peak_frontier_bytes_ = 0;
  std::size_t bytes_charged_ = 0;
};

}  // namespace tabby::graph
