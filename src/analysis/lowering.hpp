// Algorithm 1's input form: a method body lowered once into integers.
// Variables become dense slots, field names become FieldNames ids, static
// fields become slots of their own, and each invoke carries the callee it
// resolves to. The transfer functions (controllability.cpp) run on this
// form and never look at a name; the demand-driven path and the parallel
// waves share it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/domain.hpp"
#include "cfg/cfg.hpp"
#include "jir/model.hpp"

namespace tabby::analysis {

/// A variable's index in one lowered body. `@this` is 0 and `@p1`..`@pN`
/// are 1..N, in every method; the other locals and the static fields the
/// body names follow in order of first appearance.
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = UINT32_MAX;

/// The dense index of no method (see ControllabilityAnalysis).
inline constexpr std::uint32_t kNoMethod = UINT32_MAX;

/// One statement as the transfer functions see it.
struct Step {
  enum class Op : std::uint8_t {
    Skip,        // if, goto, label, nop
    Kill,        // a = <const>, a = new T
    Copy,        // a = b, a = (T) b, and a = T.f with b the static's slot
    Set,         // T.f = b, with a the static's slot
    FieldStore,  // a.field = b
    FieldLoad,   // a = b.field
    ArrayStore,  // a[i] = b
    ArrayLoad,   // a = b[i]
    Invoke,      // a indexes LoweredBody::calls
    Return,      // return a; kNoSlot for a bare return
    Throw,
  };
  Op op = Op::Skip;
  FieldId field = kNoField;
  Slot a = kNoSlot;
  Slot b = kNoSlot;
};

/// One invoke. Empty names (a discarded result, a static call's receiver)
/// are kNoSlot.
struct Call {
  const jir::InvokeStmt* stmt = nullptr;
  std::optional<jir::MethodId> resolved;  // Program::resolve_method's answer
  std::uint32_t callee = kNoMethod;       // dense index of `resolved`, if it has a body
  Slot target = kNoSlot;
  Slot base = kNoSlot;
  std::uint32_t first_arg = 0;  // arguments: LoweredBody::args from here, stmt->args.size()
};

struct LoweredBody {
  const jir::Method& method;
  cfg::ControlFlowGraph graph;
  std::vector<Step> steps;  // one per statement
  std::vector<Call> calls;  // in statement order
  std::vector<Slot> args;
  Slot slots = 0;
};

/// The invokes of `method` in statement order, each resolved once: the
/// part of lowering that scheduling needs. Their slots are left for lower().
/// `class_offset[c] + m` is the dense index of method m of class c.
std::vector<Call> resolve_calls(const jir::Program& program, const jir::Method& method,
                                const std::vector<std::uint32_t>& class_offset);

/// Lowers `method`, given resolve_calls() of it: builds its CFG, numbers its
/// variables and looks up its field names in `fields`, which must hold
/// every field the body names.
LoweredBody lower(const jir::Method& method, const FieldNames& fields, std::vector<Call> calls);

}  // namespace tabby::analysis
