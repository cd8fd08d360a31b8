#include "cfg/cfg.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace tabby::cfg {

namespace {

bool is_branch(const jir::Stmt& stmt) {
  return std::holds_alternative<jir::IfStmt>(stmt) || std::holds_alternative<jir::GotoStmt>(stmt) ||
         std::holds_alternative<jir::ReturnStmt>(stmt) ||
         std::holds_alternative<jir::ThrowStmt>(stmt);
}

bool is_terminator(const jir::Stmt& stmt) {
  return std::holds_alternative<jir::GotoStmt>(stmt) ||
         std::holds_alternative<jir::ReturnStmt>(stmt) ||
         std::holds_alternative<jir::ThrowStmt>(stmt);
}

}  // namespace

ControlFlowGraph::ControlFlowGraph(const jir::Method& method) : method_(&method) {
  const std::vector<jir::Stmt>& body = method.body;
  if (body.empty()) return;

  // Leaders: stmt 0, every label, every statement after a branch. A body
  // with no other leader and no label is one block without successors: no
  // branch has a target, and nothing follows the last statement.
  bool one_block = !std::holds_alternative<jir::LabelStmt>(body[0]);
  for (std::size_t i = 1; one_block && i < body.size(); ++i) {
    one_block = !std::holds_alternative<jir::LabelStmt>(body[i]) && !is_branch(body[i - 1]);
  }
  if (one_block) {
    blocks_.push_back(BasicBlock{0, 0, body.size(), {}, {}});
    return;
  }
  std::vector<bool> leader(body.size(), false);
  leader[0] = true;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (std::holds_alternative<jir::LabelStmt>(body[i])) leader[i] = true;
    if (is_branch(body[i]) && i + 1 < body.size()) leader[i + 1] = true;
  }

  // Label name -> statement index, for branch target resolution.
  std::unordered_map<std::string_view, std::size_t> label_at;
  std::vector<BlockId> block_at(body.size(), kNoBlock);  // leader stmt index -> block id
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (const auto* label = std::get_if<jir::LabelStmt>(&body[i])) label_at[label->name] = i;
    if (!leader[i]) continue;
    BasicBlock block;
    block.id = static_cast<BlockId>(blocks_.size());
    block.first = i;
    std::size_t j = i + 1;
    while (j < body.size() && !leader[j]) ++j;
    block.last = j;
    block_at[i] = block.id;
    blocks_.push_back(block);
  }

  auto link = [&](BlockId from, BlockId to) {
    blocks_[from].successors.push_back(to);
    blocks_[to].predecessors.push_back(from);
  };

  for (BasicBlock& block : blocks_) {
    const jir::Stmt& last = body[block.last - 1];
    if (const auto* go = std::get_if<jir::GotoStmt>(&last)) {
      auto it = label_at.find(go->target_label);
      if (it != label_at.end()) link(block.id, block_at[it->second]);
      continue;
    }
    if (const auto* branch = std::get_if<jir::IfStmt>(&last)) {
      auto it = label_at.find(branch->target_label);
      if (it != label_at.end()) link(block.id, block_at[it->second]);
      // fallthrough edge as well
      if (block.last < body.size()) link(block.id, block_at[block.last]);
      continue;
    }
    if (is_terminator(last)) continue;  // return/throw: no successors
    if (block.last < body.size()) link(block.id, block_at[block.last]);
  }
}

std::vector<BlockId> ControlFlowGraph::reverse_post_order() const {
  std::vector<BlockId> order;
  if (blocks_.empty()) return order;
  std::vector<std::uint8_t> state(blocks_.size(), 0);  // 0 new, 1 open, 2 done
  // Iterative post-order DFS.
  std::vector<std::pair<BlockId, std::size_t>> stack{{0, 0}};
  state[0] = 1;
  while (!stack.empty()) {
    auto& [block, next] = stack.back();
    if (next < blocks_[block].successors.size()) {
      BlockId succ = blocks_[block].successors[next++];
      if (state[succ] == 0) {
        state[succ] = 1;
        stack.emplace_back(succ, 0);
      }
    } else {
      state[block] = 2;
      order.push_back(block);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<bool> ControlFlowGraph::reachable() const {
  std::vector<bool> seen(blocks_.size(), false);
  for (BlockId id : reverse_post_order()) seen[id] = true;
  return seen;
}

bool ControlFlowGraph::is_conditional(BlockId block) const {
  if (block == entry()) return false;
  // A block is conditionally executed if some reachable block with >1
  // successors dominates a path around it. Cheap approximation sufficient for
  // characterisation tests: the block has a predecessor ending in an if.
  for (BlockId pred : blocks_[block].predecessors) {
    const jir::Stmt& last = method_->body[blocks_[pred].last - 1];
    if (std::holds_alternative<jir::IfStmt>(last)) return true;
  }
  return false;
}

std::string ControlFlowGraph::to_string() const {
  std::string out;
  for (const BasicBlock& block : blocks_) {
    out += "B" + std::to_string(block.id) + " [" + std::to_string(block.first) + "," +
           std::to_string(block.last) + ") ->";
    for (BlockId succ : block.successors) out += " B" + std::to_string(succ);
    out += "\n";
  }
  return out;
}

}  // namespace tabby::cfg
