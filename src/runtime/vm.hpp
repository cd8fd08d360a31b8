// A miniature deserialization VM: interprets JIR method bodies over concrete
// object graphs. This is the repository's substitute for the paper's manual
// PoC writing (§IV-C "We manually instantiated the classes in the three
// tools' gadget chains and wrote a Proof of Concept to verify their
// effectiveness"): an attack object graph is built (every attacker-supplied
// value tainted), deserialization is simulated by invoking the root's source
// method, and the VM observes whether a sink method executes with tainted
// values at its Trigger_Condition positions. Sinks and sources are the CPG's
// (cpg::SinkRegistry::table(), cpg::SourceRegistry::table()).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "jir/hierarchy.hpp"
#include "jir/model.hpp"
#include "util/deadline.hpp"

namespace tabby::runtime {

class Object;
using ObjectPtr = std::shared_ptr<Object>;

/// A runtime value. Taint marks attacker-controlled data; it propagates by
/// value flow (assignment, field/array transfer, returns).
struct VmValue {
  std::variant<std::monostate, std::int64_t, std::string, ObjectPtr> data;
  bool tainted = false;

  bool is_null() const { return std::holds_alternative<std::monostate>(data); }
  const ObjectPtr* object() const { return std::get_if<ObjectPtr>(&data); }

  static VmValue null() { return {}; }
  static VmValue of(std::int64_t v, bool taint = false) { return VmValue{v, taint}; }
  static VmValue of(std::string v, bool taint = false) { return VmValue{std::move(v), taint}; }
  static VmValue of(ObjectPtr v, bool taint = false) { return VmValue{std::move(v), taint}; }
};

/// A heap object: class name + named fields; arrays use `elements`.
class Object {
 public:
  explicit Object(std::string class_name) : class_name_(std::move(class_name)) {}

  const std::string& class_name() const { return class_name_; }

  VmValue get_field(const std::string& name) const {
    auto it = fields_.find(name);
    return it == fields_.end() ? VmValue::null() : it->second;
  }
  void set_field(const std::string& name, VmValue value) { fields_[name] = std::move(value); }
  const std::map<std::string, VmValue>& fields() const { return fields_; }

  std::vector<VmValue>& elements() { return elements_; }
  const std::vector<VmValue>& elements() const { return elements_; }

  /// Drops every field and element (the references that can form cycles).
  void clear() {
    fields_.clear();
    elements_.clear();
  }

 private:
  std::string class_name_;
  std::map<std::string, VmValue> fields_;
  std::vector<VmValue> elements_;
};

/// Why an execution faulted — the machine-readable half of the fault string,
/// so callers (the verify post-pass) can tell negative evidence about the
/// chain apart from the VM simply running out of budget or hitting an
/// infrastructure fault. The strings stay the human-readable detail.
enum class FaultKind : std::uint8_t {
  None,     // no fault (clean completion)
  Modeled,  // modeled Java-level failure (NPE, thrown exception): the chain
            // concretely died — negative evidence, a refutation
  Setup,    // the chain could not even be driven (missing method body,
            // missing deserialization source, null root): also refuting
  Budget,   // a step/depth/allocation bound was exhausted — inconclusive
  Timeout,  // the wall-clock deadline expired mid-interpretation
  Fault,    // interpreter infrastructure fault (malformed body, injected
            // failpoint): the verdict must not be trusted either way
};

/// One observed arrival at a sink method during execution.
struct SinkHit {
  std::string signature;   // declared "owner#name/n"
  std::string sink_type;
  bool trigger_satisfied;  // tainted values at every Trigger_Condition position
  std::vector<std::string> call_stack;  // outermost first
};

struct ExecutionResult {
  bool completed = false;  // false: step/depth budget exhausted or fault
  std::string fault;       // empty unless aborted
  FaultKind fault_kind = FaultKind::None;
  std::size_t steps = 0;
  std::vector<SinkHit> sink_hits;

  /// True if some sink fired with its trigger condition satisfied — the
  /// "effective gadget chain" criterion.
  bool attack_succeeded(std::string_view sink_signature = {}) const {
    for (const SinkHit& hit : sink_hits) {
      if (!hit.trigger_satisfied) continue;
      if (sink_signature.empty() || hit.signature == sink_signature) return true;
    }
    return false;
  }
};

struct VmOptions {
  std::size_t max_steps = 200'000;
  std::size_t max_call_depth = 128;
  /// Allocation bounds: adversarial bytecode can otherwise grow an array or
  /// materialize strings without limit. Exceeding either aborts with a
  /// FaultKind::Budget fault instead of allocating.
  std::size_t max_array_elements = 1 << 20;
  std::size_t max_string_bytes = 1 << 20;
  /// Wall-clock bound, polled periodically at the step site; expiry aborts
  /// with a FaultKind::Timeout fault. Defaults to never.
  util::Deadline deadline;
};

class Interpreter {
 public:
  Interpreter(const jir::Program& program, const jir::Hierarchy& hierarchy, VmOptions options = {});

  /// Invoke one method (dynamic dispatch already applied by the caller).
  ExecutionResult run(const std::string& owner, const std::string& method, VmValue receiver,
                      std::vector<VmValue> args);

  /// Simulate deserialization: taint the whole object graph reachable from
  /// `root`, then invoke every source method (readObject, readExternal, ...)
  /// declared by root's class chain.
  ExecutionResult deserialize(const ObjectPtr& root);

  /// Recursively mark an object graph attacker-controlled.
  static void taint_graph(const ObjectPtr& root);

 private:
  struct RunState;

  VmValue invoke(RunState& state, const jir::InvokeStmt& stmt,
                 const std::map<std::string, VmValue>& locals_snapshot, VmValue receiver,
                 std::vector<VmValue> args);
  VmValue execute(RunState& state, jir::MethodId method, VmValue receiver,
                  std::vector<VmValue> args);

  const jir::Program* program_;
  const jir::Hierarchy* hierarchy_;
  VmOptions options_;
};

}  // namespace tabby::runtime
