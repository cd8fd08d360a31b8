#include "runtime/vm.hpp"

#include <unordered_map>
#include <unordered_set>

#include "cpg/schema.hpp"
#include "cpg/sinks.hpp"
#include "util/failpoint.hpp"

namespace tabby::runtime {

namespace {

/// Java-ish comparison semantics for IfStmt, permissive on type mismatches.
bool compare(const VmValue& a, jir::CmpOp op, const VmValue& b) {
  using jir::CmpOp;
  auto cmp_result = [&](int c) {
    switch (op) {
      case CmpOp::Eq: return c == 0;
      case CmpOp::Ne: return c != 0;
      case CmpOp::Lt: return c < 0;
      case CmpOp::Gt: return c > 0;
      case CmpOp::Le: return c <= 0;
      case CmpOp::Ge: return c >= 0;
    }
    return false;
  };

  const auto* ai = std::get_if<std::int64_t>(&a.data);
  const auto* bi = std::get_if<std::int64_t>(&b.data);
  if (ai != nullptr && bi != nullptr) return cmp_result(*ai < *bi ? -1 : (*ai > *bi ? 1 : 0));

  const auto* as = std::get_if<std::string>(&a.data);
  const auto* bs = std::get_if<std::string>(&b.data);
  if (as != nullptr && bs != nullptr) return cmp_result(as->compare(*bs) < 0 ? -1 : (*as == *bs ? 0 : 1));

  if (a.is_null() && b.is_null()) return op == CmpOp::Eq || op == CmpOp::Le || op == CmpOp::Ge;

  const auto* ao = a.object();
  const auto* bo = b.object();
  if (ao != nullptr && bo != nullptr) {
    bool same = ao->get() == bo->get();
    if (op == CmpOp::Eq) return same;
    if (op == CmpOp::Ne) return !same;
    return false;
  }

  // Mixed types: only equality-style comparison is meaningful.
  if (op == CmpOp::Ne) return true;
  return false;
}

}  // namespace

struct Interpreter::RunState {
  std::size_t steps = 0;
  std::size_t depth = 0;
  bool aborted = false;
  std::string fault;
  FaultKind fault_kind = FaultKind::None;
  std::vector<SinkHit> sink_hits;
  std::vector<std::string> call_stack;
  std::map<std::string, VmValue> statics;  // "Owner.field"

  void abort(std::string why, FaultKind kind) {
    aborted = true;
    fault = std::move(why);
    fault_kind = kind;
  }
};

Interpreter::Interpreter(const jir::Program& program, const jir::Hierarchy& hierarchy,
                         VmOptions options)
    : program_(&program), hierarchy_(&hierarchy), options_(std::move(options)) {}

void Interpreter::taint_graph(const ObjectPtr& root) {
  if (!root) return;
  std::unordered_set<Object*> seen;
  std::vector<ObjectPtr> work{root};
  while (!work.empty()) {
    ObjectPtr current = std::move(work.back());
    work.pop_back();
    if (!seen.insert(current.get()).second) continue;
    // Taint every stored value in place; queue nested objects.
    std::vector<std::pair<std::string, VmValue>> updates;
    for (const auto& [name, value] : current->fields()) {
      VmValue v = value;
      v.tainted = true;
      if (const ObjectPtr* nested = v.object()) work.push_back(*nested);
      updates.emplace_back(name, std::move(v));
    }
    for (auto& [name, v] : updates) current->set_field(name, std::move(v));
    for (VmValue& element : current->elements()) {
      element.tainted = true;
      if (const ObjectPtr* nested = element.object()) work.push_back(*nested);
    }
  }
}

ExecutionResult Interpreter::run(const std::string& owner, const std::string& method,
                                 VmValue receiver, std::vector<VmValue> args) {
  RunState state;
  auto id = program_->resolve_method(owner, method, static_cast<int>(args.size()));
  ExecutionResult result;
  if (!id) {
    result.fault = "no such method: " + owner + "#" + method;
    result.fault_kind = FaultKind::Setup;
    return result;
  }
  execute(state, *id, std::move(receiver), std::move(args));
  result.completed = !state.aborted;
  result.fault = state.fault;
  result.fault_kind = state.fault_kind;
  result.steps = state.steps;
  result.sink_hits = std::move(state.sink_hits);
  return result;
}

ExecutionResult Interpreter::deserialize(const ObjectPtr& root) {
  ExecutionResult merged;
  merged.completed = true;
  if (!root) {
    merged.completed = false;
    merged.fault = "null root object";
    merged.fault_kind = FaultKind::Setup;
    return merged;
  }
  taint_graph(root);

  // Attacker-controlled input stream handed to readObject-style sources.
  ObjectPtr stream = std::make_shared<Object>("java.io.ObjectInputStream");

  // Walk the class chain of the root collecting declared source methods.
  std::vector<std::string> chain{root->class_name()};
  for (const std::string& super : hierarchy_->all_supertypes(root->class_name())) {
    chain.push_back(super);
  }
  bool any_run = false;
  for (const std::string& cls : chain) {
    const jir::ClassDecl* decl = program_->find_class(cls);
    if (decl == nullptr) continue;
    // Same source rule as the CPG: a deserialization entry point must be a
    // bodied override declared in a serializable class.
    if (!hierarchy_->is_serializable(cls)) continue;
    for (const jir::Method& m : decl->methods) {
      if (!cpg::SourceRegistry::table().is_source_name(m.name) || !m.has_body()) continue;
      any_run = true;
      std::vector<VmValue> args(static_cast<std::size_t>(m.nargs()),
                                VmValue::of(stream, /*taint=*/true));
      ExecutionResult one = run(cls, m.name, VmValue::of(root, /*taint=*/true), std::move(args));
      merged.steps += one.steps;
      merged.completed = merged.completed && one.completed;
      if (merged.fault.empty()) {
        merged.fault = one.fault;
        merged.fault_kind = one.fault_kind;
      }
      for (SinkHit& hit : one.sink_hits) merged.sink_hits.push_back(std::move(hit));
    }
  }
  if (!any_run) {
    merged.completed = false;
    merged.fault = "no deserialization source method on " + root->class_name();
    merged.fault_kind = FaultKind::Setup;
  }
  return merged;
}

VmValue Interpreter::invoke(RunState& state, const jir::InvokeStmt& stmt,
                            const std::map<std::string, VmValue>&, VmValue receiver,
                            std::vector<VmValue> args) {
  // Sink observation happens at the *declared* target (the resolution point
  // the static analyses reason about).
  const cpg::SinkSpec* sink =
      cpg::SinkRegistry::table().match(stmt.callee.owner, stmt.callee.name);
  if (sink != nullptr) {
    SinkHit hit;
    hit.signature = stmt.callee.to_string();
    hit.sink_type = sink->type;
    hit.trigger_satisfied = true;
    for (int pos : sink->trigger) {
      const VmValue* v = nullptr;
      if (pos == 0) {
        v = &receiver;
      } else if (pos >= 1 && pos <= static_cast<int>(args.size())) {
        v = &args[static_cast<std::size_t>(pos - 1)];
      }
      if (v == nullptr || !v->tainted) hit.trigger_satisfied = false;
    }
    hit.call_stack = state.call_stack;
    hit.call_stack.push_back(hit.signature);
    state.sink_hits.push_back(std::move(hit));
    return VmValue::null();  // sinks are terminal effects, not modeled bodies
  }

  // Dynamic dispatch.
  std::optional<jir::MethodId> target;
  if (stmt.kind == jir::InvokeKind::Static || stmt.kind == jir::InvokeKind::Special) {
    target = program_->resolve_method(stmt.callee.owner, stmt.callee.name, stmt.callee.nargs);
  } else {
    std::string dynamic_class;
    if (const ObjectPtr* obj = receiver.object()) {
      dynamic_class = (*obj)->class_name();
    } else if (std::holds_alternative<std::string>(receiver.data)) {
      dynamic_class = std::string(jir::kStringClass);
    } else if (receiver.is_null()) {
      // NullPointerException kills the chain — modeled negative evidence.
      state.abort("NPE invoking " + stmt.callee.to_string(), FaultKind::Modeled);
      return VmValue::null();
    }
    if (!dynamic_class.empty()) {
      target = hierarchy_->dispatch(dynamic_class, stmt.callee.name, stmt.callee.nargs);
    }
    if (!target) {
      target = program_->resolve_method(stmt.callee.owner, stmt.callee.name, stmt.callee.nargs);
    }
  }

  if (!target || !program_->method(*target).has_body()) {
    return VmValue::null();  // phantom/native non-sink: inert
  }
  return execute(state, *target, std::move(receiver), std::move(args));
}

VmValue Interpreter::execute(RunState& state, jir::MethodId method_id, VmValue receiver,
                             std::vector<VmValue> args) {
  if (state.aborted) return VmValue::null();
  if (state.depth >= options_.max_call_depth) {
    state.abort("call depth exceeded", FaultKind::Budget);
    return VmValue::null();
  }

  const jir::ClassDecl& cls = program_->class_of(method_id);
  const jir::Method& method = program_->method(method_id);
  ++state.depth;
  state.call_stack.push_back(cpg::method_signature(cls.name, method.name, method.nargs()));

  std::map<std::string, VmValue> locals;
  if (!method.mods.is_static) locals[std::string(jir::kThisVar)] = receiver;
  for (std::size_t i = 0; i < args.size(); ++i) locals[jir::param_var(static_cast<int>(i + 1))] = args[i];

  // Label resolution for jumps.
  std::unordered_map<std::string, std::size_t> labels;
  for (std::size_t i = 0; i < method.body.size(); ++i) {
    if (const auto* l = std::get_if<jir::LabelStmt>(&method.body[i])) labels[l->name] = i;
  }

  auto local = [&locals](const std::string& name) -> VmValue {
    auto it = locals.find(name);
    return it == locals.end() ? VmValue::null() : it->second;
  };

  VmValue return_value = VmValue::null();
  std::size_t pc = 0;
  while (pc < method.body.size()) {
    if (state.aborted) break;
    if (++state.steps > options_.max_steps) {
      state.abort("step budget exceeded", FaultKind::Budget);
      break;
    }
    if (util::failpoint::poll("runtime.step")) {
      state.abort("interpreter fault injected at step " + std::to_string(state.steps),
                  FaultKind::Fault);
      break;
    }
    // The deadline poll is a clock read, so amortize it across steps.
    if ((state.steps & 255u) == 0 && options_.deadline.expired()) {
      state.abort("wall-clock budget exceeded", FaultKind::Timeout);
      break;
    }
    const jir::Stmt& stmt = method.body[pc];
    std::size_t next_pc = pc + 1;

    if (const auto* s = std::get_if<jir::AssignStmt>(&stmt)) {
      locals[s->target] = local(s->source);
    } else if (const auto* s = std::get_if<jir::ConstStmt>(&stmt)) {
      if (s->value.is_null()) {
        locals[s->target] = VmValue::null();
      } else if (const auto* i = std::get_if<std::int64_t>(&s->value.value)) {
        locals[s->target] = VmValue::of(*i);
      } else {
        const std::string& text = std::get<std::string>(s->value.value);
        if (text.size() > options_.max_string_bytes) {
          state.abort("string byte budget exceeded", FaultKind::Budget);
          break;
        }
        locals[s->target] = VmValue::of(text);
      }
    } else if (const auto* s = std::get_if<jir::NewStmt>(&stmt)) {
      locals[s->target] = VmValue::of(std::make_shared<Object>(s->type.name));
    } else if (const auto* s = std::get_if<jir::FieldStoreStmt>(&stmt)) {
      VmValue base = local(s->base);
      if (const ObjectPtr* obj = base.object()) {
        (*obj)->set_field(s->field, local(s->source));
      } else if (base.is_null()) {
        state.abort("NPE storing field " + s->field, FaultKind::Modeled);
      }
    } else if (const auto* s = std::get_if<jir::FieldLoadStmt>(&stmt)) {
      VmValue base = local(s->base);
      if (const ObjectPtr* obj = base.object()) {
        locals[s->target] = (*obj)->get_field(s->field);
      } else if (base.is_null()) {
        state.abort("NPE loading field " + s->field, FaultKind::Modeled);
      } else {
        locals[s->target] = VmValue::null();
      }
    } else if (const auto* s = std::get_if<jir::StaticStoreStmt>(&stmt)) {
      state.statics[s->owner + "." + s->field] = local(s->source);
    } else if (const auto* s = std::get_if<jir::StaticLoadStmt>(&stmt)) {
      auto it = state.statics.find(s->owner + "." + s->field);
      locals[s->target] = it == state.statics.end() ? VmValue::null() : it->second;
    } else if (const auto* s = std::get_if<jir::ArrayStoreStmt>(&stmt)) {
      VmValue base = local(s->base);
      VmValue index = local(s->index);
      const auto* idx = std::get_if<std::int64_t>(&index.data);
      if (const ObjectPtr* obj = base.object(); obj != nullptr && idx != nullptr && *idx >= 0) {
        auto& elements = (*obj)->elements();
        if (static_cast<std::size_t>(*idx) >= elements.size()) {
          if (static_cast<std::size_t>(*idx) >= options_.max_array_elements) {
            state.abort("array growth budget exceeded", FaultKind::Budget);
            break;
          }
          elements.resize(static_cast<std::size_t>(*idx) + 1);
        }
        elements[static_cast<std::size_t>(*idx)] = local(s->source);
      }
    } else if (const auto* s = std::get_if<jir::ArrayLoadStmt>(&stmt)) {
      VmValue base = local(s->base);
      VmValue index = local(s->index);
      const auto* idx = std::get_if<std::int64_t>(&index.data);
      VmValue loaded = VmValue::null();
      if (const ObjectPtr* obj = base.object(); obj != nullptr && idx != nullptr && *idx >= 0 &&
                                                static_cast<std::size_t>(*idx) <
                                                    (*obj)->elements().size()) {
        loaded = (*obj)->elements()[static_cast<std::size_t>(*idx)];
      }
      locals[s->target] = std::move(loaded);
    } else if (const auto* s = std::get_if<jir::CastStmt>(&stmt)) {
      locals[s->target] = local(s->source);  // casts never fail in the model
    } else if (const auto* s = std::get_if<jir::ReturnStmt>(&stmt)) {
      if (!s->value.empty()) return_value = local(s->value);
      break;
    } else if (const auto* s = std::get_if<jir::InvokeStmt>(&stmt)) {
      VmValue base = s->base.empty() ? VmValue::null() : local(s->base);
      std::vector<VmValue> call_args;
      call_args.reserve(s->args.size());
      for (const std::string& a : s->args) call_args.push_back(local(a));
      VmValue result = invoke(state, *s, locals, std::move(base), std::move(call_args));
      if (!s->target.empty()) locals[s->target] = std::move(result);
    } else if (const auto* s = std::get_if<jir::IfStmt>(&stmt)) {
      if (compare(local(s->lhs), s->op, local(s->rhs))) {
        auto it = labels.find(s->target_label);
        if (it == labels.end()) {
          state.abort("jump to unknown label " + s->target_label, FaultKind::Fault);
          break;
        }
        next_pc = it->second;
      }
    } else if (const auto* s = std::get_if<jir::GotoStmt>(&stmt)) {
      auto it = labels.find(s->target_label);
      if (it == labels.end()) {
        state.abort("jump to unknown label " + s->target_label, FaultKind::Fault);
        break;
      }
      next_pc = it->second;
    } else if (std::get_if<jir::ThrowStmt>(&stmt) != nullptr) {
      // Exceptions terminate the deserialization; the chain dies here.
      state.abort("exception thrown in " + state.call_stack.back(), FaultKind::Modeled);
      break;
    }
    // LabelStmt / NopStmt: nothing.
    pc = next_pc;
  }

  state.call_stack.pop_back();
  --state.depth;
  return return_value;
}

}  // namespace tabby::runtime
