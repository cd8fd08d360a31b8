#include "finder/payload.hpp"

#include "cpg/schema.hpp"
#include "jir/hierarchy.hpp"
#include "util/strings.hpp"

namespace tabby::finder {

namespace {

using runtime::ObjectGraphSpec;
using runtime::ObjectSpec;
using runtime::Ref;

/// "owner#name/nargs" -> components.
struct Sig {
  std::string owner;
  std::string name;
  int nargs = 0;
};

Sig parse_sig(const std::string& text) {
  Sig sig;
  std::size_t hash = text.find('#');
  std::size_t slash = text.rfind('/');
  if (hash == std::string::npos || slash == std::string::npos || slash < hash) return sig;
  sig.owner = text.substr(0, hash);
  sig.name = text.substr(hash + 1, slash - hash - 1);
  sig.nargs = std::atoi(text.c_str() + slash + 1);
  return sig;
}

/// Where a variable's value comes from, one level deep in one method body.
struct Trace {
  enum class Kind { Unknown, This, ThisField, ObjField, Param, ThroughCall };
  Kind kind = Kind::Unknown;
  std::string field;                      // ThisField / ObjField
  std::string base;                       // ObjField: the base variable
  int param = 0;                          // Param, 1-based
  const jir::InvokeStmt* call = nullptr;  // ThroughCall
};

Trace trace_var(const jir::Method& method, std::size_t stmt_index, const std::string& var) {
  Trace trace;
  if (var == jir::kThisVar) {
    trace.kind = Trace::Kind::This;
    return trace;
  }
  if (util::starts_with(var, "@p")) {
    trace.kind = Trace::Kind::Param;
    trace.param = std::atoi(var.c_str() + 2);
    return trace;
  }
  for (std::size_t i = stmt_index; i-- > 0;) {
    const jir::Stmt& stmt = method.body[i];
    if (const auto* load = std::get_if<jir::FieldLoadStmt>(&stmt)) {
      if (load->target != var) continue;
      if (load->base == jir::kThisVar) {
        trace.kind = Trace::Kind::ThisField;
        trace.field = load->field;
      } else {
        trace.kind = Trace::Kind::ObjField;
        trace.base = load->base;
        trace.field = load->field;
      }
      return trace;
    }
    if (const auto* assign = std::get_if<jir::AssignStmt>(&stmt)) {
      if (assign->target != var) continue;
      return trace_var(method, i, assign->source);
    }
    if (const auto* cast = std::get_if<jir::CastStmt>(&stmt)) {
      if (cast->target != var) continue;
      return trace_var(method, i, cast->source);
    }
    if (const auto* inv = std::get_if<jir::InvokeStmt>(&stmt)) {
      if (inv->target != var) continue;
      trace.kind = Trace::Kind::ThroughCall;
      trace.call = inv;
      return trace;
    }
    if (const auto* c = std::get_if<jir::ConstStmt>(&stmt)) {
      if (c->target == var) return trace;  // constant: not attacker data
    }
    if (const auto* n = std::get_if<jir::NewStmt>(&stmt)) {
      if (n->target == var) return trace;  // fresh object: not attacker data
    }
  }
  return trace;
}

class Synthesizer {
 public:
  Synthesizer(const jir::Program& program, const AliasView& aliases, const GadgetChain& chain)
      : program_(program), aliases_(aliases), chain_(chain) {}

  PayloadResult run() {
    if (chain_.signatures.size() < 2) {
      note_incomplete("chain too short");
      return std::move(result_);
    }

    Sig source = parse_sig(chain_.signatures.front());
    std::string root = new_object(source.owner);
    result_.recipe.root = root;

    // Frame 0: the source method executing on the root object.
    if (!push_frame(source, root)) return std::move(result_);

    std::size_t i = 0;
    while (i + 1 < chain_.signatures.size()) {
      // Dispatch group: declared callee at i+1, then ALIAS hops to the
      // override that actually runs.
      std::size_t declared_index = i + 1;
      std::size_t impl_index = declared_index;
      while (impl_index + 1 < chain_.signatures.size() &&
             is_alias_hop(impl_index, impl_index + 1)) {
        ++impl_index;
      }
      Sig declared = parse_sig(chain_.signatures[declared_index]);
      Sig impl = parse_sig(chain_.signatures[impl_index]);
      bool is_last_hop = impl_index + 1 >= chain_.signatures.size();

      if (!wire_hop(declared, impl, is_last_hop)) break;
      i = impl_index;
    }
    return std::move(result_);
  }

 private:
  struct Frame {
    Sig method_sig;
    const jir::Method* method = nullptr;
    std::string carrier;                    // object spec key of `this`
    const jir::InvokeStmt* site = nullptr;  // call made FROM this frame
    std::size_t site_index = 0;
  };

  bool is_alias_hop(std::size_t a, std::size_t b) const {
    if (b >= chain_.nodes.size()) return false;
    return aliases_.alias(chain_.nodes[b], chain_.nodes[a]);
  }

  std::string new_object(const std::string& class_name) {
    std::string key = "o" + std::to_string(counter_++);
    result_.recipe.objects[key] = ObjectSpec{class_name, {}, {}};
    return key;
  }

  void note_incomplete(std::string message) {
    result_.complete = false;
    result_.notes.push_back(std::move(message));
  }

  bool push_frame(const Sig& sig, std::string carrier) {
    auto id = program_.find_method(sig.owner, sig.name, sig.nargs);
    if (!id) {
      note_incomplete("cannot locate method body for " + sig.owner + "#" + sig.name);
      return false;
    }
    Frame frame;
    frame.method_sig = sig;
    frame.method = &program_.method(*id);
    frame.carrier = std::move(carrier);
    frames_.push_back(std::move(frame));
    return true;
  }

  /// Resolve a variable in frame `depth` to the (carrier, field) it flows
  /// from, walking Param traces into the caller frame.
  struct FieldSlot {
    std::string carrier;
    std::string field;
    std::string carrier_class;
  };
  std::optional<FieldSlot> resolve_to_field(std::size_t depth, std::size_t stmt_index,
                                            const std::string& var) {
    const Frame& frame = frames_[depth];
    Trace trace = trace_var(*frame.method, stmt_index, var);
    switch (trace.kind) {
      case Trace::Kind::ThisField:
        return FieldSlot{frame.carrier, trace.field,
                         result_.recipe.objects.at(frame.carrier).class_name};
      case Trace::Kind::ObjField: {
        auto base = resolve_to_object(depth, stmt_index, trace.base);
        if (!base) return std::nullopt;
        return FieldSlot{*base, trace.field, result_.recipe.objects.at(*base).class_name};
      }
      case Trace::Kind::Param: {
        if (depth == 0) return std::nullopt;  // attacker-controlled entry arg
        const Frame& caller = frames_[depth - 1];
        if (caller.site == nullptr || trace.param < 1 ||
            trace.param > static_cast<int>(caller.site->args.size())) {
          return std::nullopt;
        }
        return resolve_to_field(depth - 1, caller.site_index,
                                caller.site->args[static_cast<std::size_t>(trace.param - 1)]);
      }
      case Trace::Kind::ThroughCall:
        if (trace.call != nullptr && !trace.call->base.empty()) {
          // Taint typically flows through the receiver (x.toString()).
          return resolve_to_field(depth, stmt_index, trace.call->base);
        }
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  /// Resolve a variable to the recipe object it denotes, materialising
  /// intermediate objects from declared field types when necessary.
  std::optional<std::string> resolve_to_object(std::size_t depth, std::size_t stmt_index,
                                               const std::string& var) {
    const Frame& frame = frames_[depth];
    Trace trace = trace_var(*frame.method, stmt_index, var);
    switch (trace.kind) {
      case Trace::Kind::This:
        return frame.carrier;
      case Trace::Kind::Param: {
        if (depth == 0) return std::nullopt;
        const Frame& caller = frames_[depth - 1];
        if (caller.site == nullptr || trace.param < 1 ||
            trace.param > static_cast<int>(caller.site->args.size())) {
          return std::nullopt;
        }
        return resolve_to_object(depth - 1, caller.site_index,
                                 caller.site->args[static_cast<std::size_t>(trace.param - 1)]);
      }
      case Trace::Kind::ThisField:
      case Trace::Kind::ObjField: {
        auto slot = resolve_to_field(depth, stmt_index, var);
        if (!slot) return std::nullopt;
        ObjectSpec& holder = result_.recipe.objects.at(slot->carrier);
        if (const auto* existing = std::get_if<Ref>(&holder.fields[slot->field])) {
          return existing->name;
        }
        // Materialise from the declared field type.
        const jir::ClassDecl* decl = program_.find_class(slot->carrier_class);
        const jir::Field* field = decl != nullptr ? decl->find_field(slot->field) : nullptr;
        std::string cls = field != nullptr ? field->type.name : std::string(jir::kObjectClass);
        std::string key = new_object(cls);
        holder.fields[slot->field] = Ref{key};
        return key;
      }
      default:
        return std::nullopt;
    }
  }

  bool wire_hop(const Sig& declared, const Sig& impl, bool is_last_hop) {
    Frame& frame = frames_.back();

    // Locate the call site of the declared target in the current frame.
    frame.site = nullptr;
    for (std::size_t s = 0; s < frame.method->body.size(); ++s) {
      const auto* inv = std::get_if<jir::InvokeStmt>(&frame.method->body[s]);
      if (inv == nullptr) continue;
      if (inv->callee.name == declared.name && inv->callee.nargs == declared.nargs) {
        frame.site = inv;
        frame.site_index = s;
        break;
      }
    }
    if (frame.site == nullptr) {
      note_incomplete("no call site for " + declared.name + " in " + frame.method_sig.owner +
                      "#" + frame.method_sig.name);
      return false;
    }

    if (is_last_hop) {
      fill_sink_payloads(frames_.size() - 1);
      return true;
    }

    if (frame.site->kind == jir::InvokeKind::Static) {
      // Static segment: no receiver to wire; arguments traced to fields get
      // payloads and the next frame executes carrier-less (self-traces in it
      // will fail gracefully).
      for (const std::string& arg : frame.site->args) {
        payload_field(frames_.size() - 1, frame.site_index, arg);
      }
      return push_frame(impl, frame.carrier);
    }

    // Resolve the receiver to a field slot (possibly in an outer frame) and
    // wire an instance of the override's class into it.
    Trace receiver = trace_var(*frame.method, frame.site_index, frame.site->base);
    std::string next_carrier;
    if (receiver.kind == Trace::Kind::This) {
      next_carrier = frame.carrier;  // self-call
    } else {
      auto slot = resolve_to_field(frames_.size() - 1, frame.site_index, frame.site->base);
      if (!slot) {
        note_incomplete("receiver of " + declared.name + " not traceable to a field");
        return false;
      }
      ObjectSpec& holder = result_.recipe.objects.at(slot->carrier);
      if (const auto* existing = std::get_if<Ref>(&holder.fields[slot->field])) {
        next_carrier = existing->name;  // already wired by an earlier hop
        // Refine the dynamic class if this hop demands a subclass.
        result_.recipe.objects.at(next_carrier).class_name = impl.owner;
      } else {
        next_carrier = new_object(impl.owner);
        holder.fields[slot->field] = Ref{next_carrier};
      }
    }
    return push_frame(impl, next_carrier);
  }

  void fill_sink_payloads(std::size_t depth) {
    const Frame& frame = frames_[depth];
    if (!frame.site->base.empty()) {
      payload_field(depth, frame.site_index, frame.site->base);
    }
    for (const std::string& arg : frame.site->args) {
      payload_field(depth, frame.site_index, arg);
    }
  }

  /// Give the field a variable flows from an attacker-shaped value based on
  /// its declared type. Looks one level through calls (payloading the inner
  /// receiver and arguments).
  void payload_field(std::size_t depth, std::size_t stmt_index, const std::string& var) {
    const Frame& frame = frames_[depth];
    Trace trace = trace_var(*frame.method, stmt_index, var);
    if (trace.kind == Trace::Kind::ThroughCall && trace.call != nullptr) {
      if (!trace.call->base.empty()) payload_field(depth, stmt_index, trace.call->base);
      for (const std::string& inner : trace.call->args) {
        payload_field(depth, stmt_index, inner);
      }
      return;
    }
    auto slot = resolve_to_field(depth, stmt_index, var);
    if (!slot) return;

    ObjectSpec& spec = result_.recipe.objects.at(slot->carrier);
    if (spec.fields.count(slot->field) != 0) return;  // already wired

    const jir::ClassDecl* decl = program_.find_class(slot->carrier_class);
    const jir::Field* field = decl != nullptr ? decl->find_field(slot->field) : nullptr;
    if (field == nullptr) {
      spec.fields[slot->field] = std::string("tabby-payload");
      return;
    }
    if (field->type.is_array()) {
      std::string aux = new_object(field->type.to_string());
      result_.recipe.objects.at(aux).elements.push_back(std::string("tabby-payload-element"));
      spec.fields[slot->field] = Ref{aux};
    } else if (field->type.name == jir::kStringClass) {
      spec.fields[slot->field] = std::string("tabby-payload");
    } else if (field->type.is_primitive()) {
      // Guard constants are unknowable statically; the default value stands
      // and guard-gated chains are refuted — the honest outcome.
      result_.notes.push_back("primitive field " + slot->field + " left at default");
    } else {
      spec.fields[slot->field] = Ref{new_object(field->type.name)};
    }
  }

  const jir::Program& program_;
  const AliasView& aliases_;
  const GadgetChain& chain_;
  PayloadResult result_;
  std::vector<Frame> frames_;
  int counter_ = 0;
};

}  // namespace

bool AliasView::alias(graph::NodeId from, graph::NodeId to) const {
  if (!alias_type_) return false;
  graph::AdjacencyView out = cpg_->out_edges_typed_view(from, *alias_type_);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out.nbr[i] == to) return true;
  }
  return false;
}

PayloadResult synthesize_payload(const jir::Program& program, const AliasView& aliases,
                                 const GadgetChain& chain) {
  return Synthesizer(program, aliases, chain).run();
}

AutoVerifyResult auto_verify(const jir::Hierarchy& hierarchy, const AliasView& aliases,
                             const GadgetChain& chain, const runtime::VmOptions& vm_options) {
  const jir::Program& program = hierarchy.program();
  AutoVerifyResult result;
  result.payload = synthesize_payload(program, aliases, chain);
  runtime::Interpreter vm(program, hierarchy, vm_options);
  result.execution = vm.deserialize(runtime::instantiate(result.payload.recipe));
  result.effective = result.execution.attack_succeeded(chain.sink_signature());
  return result;
}

AutoVerifyResult auto_verify(const jir::Program& program, const AliasView& aliases,
                             const GadgetChain& chain, const runtime::VmOptions& vm_options) {
  return auto_verify(jir::Hierarchy(program), aliases, chain, vm_options);
}

}  // namespace tabby::finder
