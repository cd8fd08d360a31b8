#include "analysis/lowering.hpp"

#include <algorithm>
#include <functional>
#include <string_view>
#include <tuple>

namespace tabby::analysis {

namespace {

/// Names to slots for one body: an open-addressing table over the names.
class SlotNames {
 public:
  SlotNames(int nargs, std::size_t statements)
      : nargs_(nargs), next_(static_cast<Slot>(nargs) + 1) {
    std::size_t capacity = 16;
    while (capacity < 2 * statements) capacity *= 2;
    table_.resize(capacity);
  }

  Slot var(std::string_view name) {
    if (Slot fixed = fixed_slot(name); fixed != kNoSlot) return fixed;
    if (2 * (locals_ + 1) > table_.size()) grow();
    Entry& entry = probe(name);
    if (entry.slot == kNoSlot) {
      entry = Entry{name, next_++};
      ++locals_;
    }
    return entry.slot;
  }

  /// An empty name means "none" at an invoke or a return.
  Slot optional_var(std::string_view name) { return name.empty() ? kNoSlot : var(name); }

  Slot static_field(std::string_view owner, std::string_view field) {
    for (const auto& [o, f, slot] : statics_) {
      if (o == owner && f == field) return slot;
    }
    statics_.emplace_back(owner, field, next_);
    return next_++;
  }

  Slot count() const { return next_; }

 private:
  struct Entry {
    std::string_view name;
    Slot slot = kNoSlot;  // kNoSlot: free
  };

  /// `@this`, and `@pI` spelled exactly as jir::param_var(I) for 1 <= I <= N.
  Slot fixed_slot(std::string_view name) const {
    if (name.size() < 3 || name[0] != '@') return kNoSlot;
    if (name == jir::kThisVar) return 0;
    if (name[1] != 'p' || name[2] == '0') return kNoSlot;
    long index = 0;
    for (char c : name.substr(2)) {
      if (c < '0' || c > '9') return kNoSlot;
      index = index * 10 + (c - '0');
      if (index > nargs_) return kNoSlot;
    }
    return static_cast<Slot>(index);
  }

  /// The entry holding `name`, or the free entry where it belongs.
  Entry& probe(std::string_view name) {
    std::size_t mask = table_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(name) & mask;; i = (i + 1) & mask) {
      if (table_[i].slot == kNoSlot || table_[i].name == name) return table_[i];
    }
  }

  void grow() {
    std::vector<Entry> old(table_.size() * 2);
    old.swap(table_);
    for (const Entry& entry : old) {
      if (entry.slot != kNoSlot) probe(entry.name) = entry;
    }
  }

  int nargs_;
  Slot next_;
  std::size_t locals_ = 0;
  std::vector<Entry> table_;
  std::vector<std::tuple<std::string_view, std::string_view, Slot>> statics_;
};

}  // namespace

std::vector<Call> resolve_calls(const jir::Program& program, const jir::Method& method,
                                const std::vector<std::uint32_t>& class_offset) {
  auto is_invoke = [](const jir::Stmt& stmt) {
    return std::holds_alternative<jir::InvokeStmt>(stmt);
  };
  std::vector<Call> calls;
  calls.reserve(static_cast<std::size_t>(
      std::count_if(method.body.begin(), method.body.end(), is_invoke)));
  for (const jir::Stmt& stmt : method.body) {
    const auto* s = std::get_if<jir::InvokeStmt>(&stmt);
    if (s == nullptr) continue;
    Call& call = calls.emplace_back();
    call.stmt = s;
    call.resolved = program.resolve_method(s->callee.owner, s->callee.name, s->callee.nargs);
    if (call.resolved && program.method(*call.resolved).has_body()) {
      call.callee = class_offset[call.resolved->class_index] + call.resolved->method_index;
    }
  }
  return calls;
}

LoweredBody lower(const jir::Method& method, const FieldNames& fields, std::vector<Call> calls) {
  LoweredBody body{method, cfg::ControlFlowGraph(method), {}, std::move(calls), {}, 0};
  body.steps.reserve(method.body.size());
  std::size_t args = 0;
  for (const Call& call : body.calls) args += call.stmt->args.size();
  body.args.reserve(args);
  SlotNames names(method.nargs(), method.body.size());

  using Op = Step::Op;
  std::uint32_t next_call = 0;
  for (const jir::Stmt& stmt : method.body) {
    Step step;
    if (const auto* s = std::get_if<jir::AssignStmt>(&stmt)) {
      step = {Op::Copy, kNoField, names.var(s->target), names.var(s->source)};
    } else if (const auto* s = std::get_if<jir::ConstStmt>(&stmt)) {
      step = {Op::Kill, kNoField, names.var(s->target)};
    } else if (const auto* s = std::get_if<jir::NewStmt>(&stmt)) {
      step = {Op::Kill, kNoField, names.var(s->target)};
    } else if (const auto* s = std::get_if<jir::FieldStoreStmt>(&stmt)) {
      step = {Op::FieldStore, fields.find(s->field), names.var(s->base), names.var(s->source)};
    } else if (const auto* s = std::get_if<jir::FieldLoadStmt>(&stmt)) {
      step = {Op::FieldLoad, fields.find(s->field), names.var(s->target), names.var(s->base)};
    } else if (const auto* s = std::get_if<jir::StaticStoreStmt>(&stmt)) {
      step = {Op::Set, kNoField, names.static_field(s->owner, s->field), names.var(s->source)};
    } else if (const auto* s = std::get_if<jir::StaticLoadStmt>(&stmt)) {
      step = {Op::Copy, kNoField, names.var(s->target), names.static_field(s->owner, s->field)};
    } else if (const auto* s = std::get_if<jir::ArrayStoreStmt>(&stmt)) {
      step = {Op::ArrayStore, fields.element(), names.var(s->base), names.var(s->source)};
    } else if (const auto* s = std::get_if<jir::ArrayLoadStmt>(&stmt)) {
      step = {Op::ArrayLoad, fields.element(), names.var(s->target), names.var(s->base)};
    } else if (const auto* s = std::get_if<jir::CastStmt>(&stmt)) {
      step = {Op::Copy, kNoField, names.var(s->target), names.var(s->source)};
    } else if (const auto* s = std::get_if<jir::ReturnStmt>(&stmt)) {
      step = {Op::Return, kNoField, names.optional_var(s->value)};
    } else if (std::holds_alternative<jir::ThrowStmt>(stmt)) {
      step.op = Op::Throw;
    } else if (const auto* s = std::get_if<jir::InvokeStmt>(&stmt)) {
      step = {Op::Invoke, kNoField, next_call};
      Call& call = body.calls[next_call++];
      call.target = names.optional_var(s->target);
      call.base = names.optional_var(s->base);
      call.first_arg = static_cast<std::uint32_t>(body.args.size());
      for (const std::string& arg : s->args) body.args.push_back(names.optional_var(arg));
    }
    body.steps.push_back(step);
  }
  body.slots = names.count();
  return body;
}

}  // namespace tabby::analysis
