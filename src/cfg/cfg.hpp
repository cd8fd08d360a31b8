// Per-method control-flow graphs, playing Soot's role in §III-B1: "Soot
// generates a corresponding control flow graph for each method". Statements
// are grouped into basic blocks; the controllability analysis (Algorithm 1)
// walks blocks in reverse post-order and merges facts at joins, which is what
// makes conditional execution visible to it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jir/model.hpp"

namespace tabby::cfg {

using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = UINT32_MAX;

struct BasicBlock {
  BlockId id = 0;
  /// Statement index range [first, last) into the method body.
  std::size_t first = 0;
  std::size_t last = 0;
  std::vector<BlockId> successors;
  std::vector<BlockId> predecessors;

  std::size_t size() const { return last - first; }
};

/// CFG over a borrowed method body. The method must outlive the graph.
class ControlFlowGraph {
 public:
  /// Builds the CFG. Leaders are: the first statement, every label, and every
  /// statement following a branch (if/goto/return/throw).
  explicit ControlFlowGraph(const jir::Method& method);

  const jir::Method& method() const { return *method_; }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  BlockId entry() const { return blocks_.empty() ? kNoBlock : 0; }

  const jir::Stmt& stmt(std::size_t index) const { return method_->body[index]; }

  /// Block ids in reverse post-order from the entry (the fixpoint iteration
  /// order of the controllability analysis).
  std::vector<BlockId> reverse_post_order() const;

  /// Blocks reachable from the entry.
  std::vector<bool> reachable() const;

  /// True if some path through the CFG can bypass `block` (i.e. the block is
  /// conditionally executed). Used by tests characterising the paper's
  /// false-positive source.
  bool is_conditional(BlockId block) const;

  std::string to_string() const;

 private:
  const jir::Method* method_;
  std::vector<BasicBlock> blocks_;
};

}  // namespace tabby::cfg
