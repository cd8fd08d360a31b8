// Automatic payload generation and chain confirmation — the paper's §V-C
// future work ("Tabby cannot automatically generate malicious input payloads
// based on the identified gadget chains to confirm that the chains can
// definitely be triggered... we expect to leverage javassist ... to
// automatically check whether the gadget chain is correct").
//
// synthesize_payload() walks a reported chain through the CPG and the IR:
// at every CALL hop it locates the call site, traces the receiver back to a
// field of the current carrier object, and wires an instance of the next
// hop's dynamic class (looking through ALIAS dispatch hops) into that field.
// Sink arguments traced to fields are filled with tainted marker values.
// auto_verify() then executes the synthesized object graph in the
// deserialization VM: chains that fire their sink with a satisfied
// Trigger_Condition are confirmed effective; guarded/sanitised/uncontrollable
// chains are refuted — replacing the paper's manual PoC step entirely.
#pragma once

#include <optional>

#include "cpg/schema.hpp"
#include "finder/finder.hpp"
#include "graph/frozen.hpp"
#include "jir/hierarchy.hpp"
#include "jir/model.hpp"
#include "runtime/objectgraph.hpp"
#include "runtime/vm.hpp"

namespace tabby::finder {

/// The one graph question payload synthesis asks — "is hop a→b an ALIAS
/// dispatch edge?" — answered from the frozen CPG the chain was found in,
/// so chain node ids index the same graph.
class AliasView {
 public:
  explicit AliasView(const graph::FrozenGraph& cpg)
      : cpg_(&cpg), alias_type_(cpg.edge_type_id(cpg::kAliasEdge)) {}

  bool alias(graph::NodeId from, graph::NodeId to) const;

 private:
  const graph::FrozenGraph* cpg_;
  std::optional<std::uint16_t> alias_type_;
};

struct PayloadResult {
  runtime::ObjectGraphSpec recipe;
  /// Human-readable caveats (untraceable receivers, static segments, ...).
  std::vector<std::string> notes;
  /// False when some hop could not be wired; the recipe is still returned
  /// as a best effort.
  bool complete = true;
};

PayloadResult synthesize_payload(const jir::Program& program, const AliasView& aliases,
                                 const GadgetChain& chain);

struct AutoVerifyResult {
  bool effective = false;
  PayloadResult payload;
  runtime::ExecutionResult execution;
};

/// Synthesize a payload for the chain and execute it. `effective` means the
/// chain's sink fired with its Trigger_Condition satisfied. `vm_options`
/// carries the per-chain step/depth/allocation/wall-clock budgets.
AutoVerifyResult auto_verify(const jir::Program& program, const AliasView& aliases,
                             const GadgetChain& chain, const runtime::VmOptions& vm_options = {});
/// The same over `hierarchy.program()`, replaying against a caller-built
/// hierarchy, so verifying many chains builds it once rather than per chain.
/// The hierarchy is only read; concurrent calls may share it.
AutoVerifyResult auto_verify(const jir::Hierarchy& hierarchy, const AliasView& aliases,
                             const GadgetChain& chain, const runtime::VmOptions& vm_options = {});

}  // namespace tabby::finder
