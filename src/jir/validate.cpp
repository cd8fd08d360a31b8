#include "jir/validate.hpp"

#include <unordered_set>

#include "util/strings.hpp"

namespace tabby::jir {

namespace {

bool is_param_or_this(const std::string& var) {
  return var == kThisVar || util::starts_with(var, "@p");
}

class MethodValidator {
 public:
  MethodValidator(const Program& program, const ClassDecl& cls, const Method& method,
                  bool allow_phantom, std::vector<ValidationIssue>& issues)
      : program_(program), cls_(cls), method_(method), allow_phantom_(allow_phantom),
        issues_(issues) {}

  void run() {
    collect_labels_and_defs();
    for (const Stmt& stmt : method_.body) std::visit(*this, stmt);
  }

  void operator()(const AssignStmt& s) { use(s.source); }
  void operator()(const ConstStmt&) {}
  void operator()(const NewStmt& s) { check_class(s.type.name); }
  void operator()(const FieldStoreStmt& s) {
    use(s.base);
    use(s.source);
  }
  void operator()(const FieldLoadStmt& s) { use(s.base); }
  void operator()(const StaticStoreStmt& s) {
    check_class(s.owner);
    use(s.source);
  }
  void operator()(const StaticLoadStmt& s) { check_class(s.owner); }
  void operator()(const ArrayStoreStmt& s) {
    use(s.base);
    use(s.index);
    use(s.source);
  }
  void operator()(const ArrayLoadStmt& s) {
    use(s.base);
    use(s.index);
  }
  void operator()(const CastStmt& s) {
    check_class(s.type.name);
    use(s.source);
  }
  void operator()(const ReturnStmt& s) {
    if (!s.value.empty()) use(s.value);
    if (s.value.empty() && !method_.ret.is_void()) {
      issue("void return in non-void method");
    }
  }
  void operator()(const InvokeStmt& s) {
    check_class(s.callee.owner);
    if (s.kind == InvokeKind::Static) {
      if (!s.base.empty()) issue("static invoke must not have a receiver");
    } else {
      if (s.base.empty()) {
        issue("instance invoke needs a receiver: " + s.callee.to_string());
      } else {
        use(s.base);
      }
    }
    if (static_cast<int>(s.args.size()) != s.callee.nargs) {
      issue("arg count mismatch calling " + s.callee.to_string());
    }
    for (const std::string& arg : s.args) use(arg);
  }
  void operator()(const IfStmt& s) {
    use(s.lhs);
    use(s.rhs);
    check_label(s.target_label);
  }
  void operator()(const GotoStmt& s) { check_label(s.target_label); }
  void operator()(const LabelStmt&) {}
  void operator()(const ThrowStmt& s) { use(s.value); }
  void operator()(const NopStmt&) {}

 private:
  void collect_labels_and_defs() {
    for (const Stmt& stmt : method_.body) {
      if (const auto* label = std::get_if<LabelStmt>(&stmt)) labels_.insert(label->name);
      if (const auto* a = std::get_if<AssignStmt>(&stmt)) defs_.insert(a->target);
      if (const auto* c = std::get_if<ConstStmt>(&stmt)) defs_.insert(c->target);
      if (const auto* n = std::get_if<NewStmt>(&stmt)) defs_.insert(n->target);
      if (const auto* f = std::get_if<FieldLoadStmt>(&stmt)) defs_.insert(f->target);
      if (const auto* sl = std::get_if<StaticLoadStmt>(&stmt)) defs_.insert(sl->target);
      if (const auto* al = std::get_if<ArrayLoadStmt>(&stmt)) defs_.insert(al->target);
      if (const auto* cast = std::get_if<CastStmt>(&stmt)) defs_.insert(cast->target);
      if (const auto* inv = std::get_if<InvokeStmt>(&stmt)) {
        if (!inv->target.empty()) defs_.insert(inv->target);
      }
    }
  }

  void use(const std::string& var) {
    if (var.empty()) {
      issue("empty variable reference");
      return;
    }
    if (is_param_or_this(var)) {
      if (var == kThisVar && method_.mods.is_static) issue("@this used in static method");
      if (util::starts_with(var, "@p")) {
        int index = std::atoi(var.c_str() + 2);
        if (index < 1 || index > method_.nargs()) issue("parameter out of range: " + var);
      }
      return;
    }
    if (defs_.find(var) == defs_.end()) issue("use of undefined variable: " + var);
  }

  void check_label(const std::string& label) {
    if (labels_.find(label) == labels_.end()) issue("jump to undefined label: " + label);
  }

  void check_class(const std::string& name) {
    if (!allow_phantom_ && program_.find_class(name) == nullptr) {
      issue("reference to unknown class: " + name);
    }
  }

  void issue(std::string message) {
    issues_.push_back(ValidationIssue{cls_.name, method_.name, std::move(message)});
  }

  const Program& program_;
  const ClassDecl& cls_;
  const Method& method_;
  bool allow_phantom_;
  std::vector<ValidationIssue>& issues_;
  std::unordered_set<std::string> labels_;
  std::unordered_set<std::string> defs_;
};

}  // namespace

std::vector<ValidationIssue> validate(const Program& program, bool allow_phantom_classes) {
  std::vector<ValidationIssue> issues;
  for (const ClassDecl& cls : program.classes()) {
    if (!cls.super.empty() && !allow_phantom_classes &&
        program.find_class(cls.super) == nullptr) {
      issues.push_back(ValidationIssue{cls.name, "", "unknown superclass: " + cls.super});
    }
    std::unordered_set<std::string> method_sigs;
    for (const Method& m : cls.methods) {
      std::string sig = m.name + "/" + std::to_string(m.nargs());
      if (!method_sigs.insert(sig).second) {
        issues.push_back(ValidationIssue{cls.name, m.name, "duplicate method signature " + sig});
      }
      MethodValidator(program, cls, m, allow_phantom_classes, issues).run();
    }
  }
  return issues;
}

}  // namespace tabby::jir
