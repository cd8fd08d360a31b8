#include "analysis/controllability.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/lowering.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"

namespace tabby::analysis {

/// Fixpoint bound per method CFG; loops converge in 2-3 rounds in practice.
constexpr int kMaxBlockIterations = 8;

std::uint64_t options_fingerprint(const AnalysisOptions& options) {
  util::Fnv1a h;
  h.update("analysis-options-v1");
  h.update_u64(kMaxBlockIterations);
  h.update_bool(options.interprocedural);
  h.update_bool(options.unknown_return_controllable);
  return h.digest();
}

namespace {

/// Source of callee Action summaries for the transfer function. The serial
/// path resolves them by recursive demand (memoized, cycles bottom out at
/// identity); the parallel path reads the summary table, which the wave
/// scheduler guarantees holds every callee's.
class ActionProvider {
 public:
  virtual ~ActionProvider() = default;
  /// Only called for calls whose resolved callee has a body.
  virtual const Action& callee_action_of(const Call& call) = 0;
};

/// One field entry "a.f" of a localMap.
struct FieldEntry {
  Slot slot = kNoSlot;
  FieldId field = kNoField;
  Origin origin;
};

/// The per-program-point variable state of Algorithm 1 ("localMap"): one
/// Origin per slot of the body (unknown while unbound, static fields
/// included), and the one-level field entries, sorted by (slot, field). A
/// field entry exists once a store or a callee's summary has named it; a
/// load of a field without one answers from its base's origin.
struct LocalMap {
  std::vector<Origin> vars;
  std::vector<FieldEntry> fields;

  /// Index of the first entry not below (slot, field).
  std::size_t position(Slot slot, FieldId field) const {
    auto below = [](const FieldEntry& e, std::pair<Slot, FieldId> key) {
      return e.slot != key.first ? e.slot < key.first : e.field < key.second;
    };
    return static_cast<std::size_t>(
        std::lower_bound(fields.begin(), fields.end(), std::pair{slot, field}, below) -
        fields.begin());
  }

  const FieldEntry* find(Slot slot, FieldId field) const {
    std::size_t i = position(slot, field);
    return i < fields.size() && fields[i].slot == slot && fields[i].field == field ? &fields[i]
                                                                                   : nullptr;
  }

  /// The entry (slot, field), inserted as `origin` when absent; the flag
  /// says whether it was inserted.
  std::pair<FieldEntry*, bool> try_emplace(Slot slot, FieldId field, const Origin& origin) {
    std::size_t i = position(slot, field);
    if (i < fields.size() && fields[i].slot == slot && fields[i].field == field) {
      return {&fields[i], false};
    }
    auto at = fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(i),
                            FieldEntry{slot, field, origin});
    return {&*at, true};
  }

  void set_field(Slot slot, FieldId field, const Origin& origin) {
    try_emplace(slot, field, origin).first->origin = origin;
  }

  /// Drops the field entries of `slot` (object identity changed: `a = new T`).
  void destroy_fields(Slot slot) {
    fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(position(slot, kNoField)),
                 fields.begin() + static_cast<std::ptrdiff_t>(position(slot + 1, kNoField)));
  }

  /// Copies the field entries of `source` to `target` across an assignment
  /// "target = source", so the alias keeps the source's known field
  /// controllability. `target` has none: its fields were just destroyed.
  void copy_fields(Slot target, Slot source) {
    std::size_t from = position(source, kNoField);
    std::size_t count = position(source + 1, kNoField) - from;
    if (count == 0) return;
    std::size_t at = position(target, kNoField);
    fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(at), count, FieldEntry{});
    if (at <= from) from += count;
    for (std::size_t k = 0; k < count; ++k) {
      fields[at + k] = FieldEntry{target, fields[from + k].field, fields[from + k].origin};
    }
  }
};

/// Optimistic join: the more controllable origin per slot, and per field
/// entry, which exists in `into` once it exists in either. Returns true if
/// `into` changed.
bool merge_into(LocalMap& into, const LocalMap& from) {
  bool changed = false;
  for (std::size_t s = 0; s < from.vars.size(); ++s) {
    if (from.vars[s].weight() < into.vars[s].weight()) {
      into.vars[s] = from.vars[s];
      changed = true;
    }
  }
  for (const FieldEntry& entry : from.fields) {
    auto [target, inserted] = into.try_emplace(entry.slot, entry.field, entry.origin);
    if (inserted) {
      changed = true;
    } else if (entry.origin.weight() < target->origin.weight()) {
      target->origin = entry.origin;
      changed = true;
    }
  }
  return changed;
}

Weight weight_of(const LocalMap& state, Slot slot) {
  return slot == kNoSlot ? kUncontrollable : state.vars[slot].weight();
}

/// Inverse of Origin::weight(): the lossy weight -> origin mapping used when
/// folding a callee's `out` weights back into the caller's localMap
/// (Formula 3). Field information does not survive the round trip, exactly
/// as in the paper where localMap stores plain weights.
Origin origin_from_weight(Weight w) {
  if (!is_controllable(w)) return Origin::unknown();
  if (w == 0) return Origin::this_origin();
  return Origin::param_origin(static_cast<int>(w));
}

/// Statement transfer function (Table IV) + call handling (Algorithm 1
/// lines 8-15). Shared between the fixpoint and the collection pass.
class Transfer {
 public:
  Transfer(ActionProvider& provider, const LoweredBody& body, const AnalysisOptions& options)
      : provider_(provider), body_(body), options_(options) {
    if (!body.calls.empty()) pp_.reserve(8);
  }

  /// When non-null, call sites encountered are appended (collection pass).
  void set_call_collector(std::vector<CallSite>* collector) { collector_ = collector; }

  void apply(std::size_t stmt_index, LocalMap& state) {
    const Step& step = body_.steps[stmt_index];
    std::vector<Origin>& vars = state.vars;
    switch (step.op) {
      case Step::Op::Skip:
      case Step::Op::Return:  // handled by exit collection
      case Step::Op::Throw:
        return;
      case Step::Op::Kill:
        state.destroy_fields(step.a);
        vars[step.a] = Origin::unknown();
        return;
      case Step::Op::Copy:
        state.destroy_fields(step.a);
        vars[step.a] = vars[step.b];
        state.copy_fields(step.a, step.b);
        return;
      case Step::Op::Set:
        vars[step.a] = vars[step.b];
        return;
      case Step::Op::FieldStore:
        state.set_field(step.a, step.field, vars[step.b]);
        return;
      case Step::Op::FieldLoad: {
        state.destroy_fields(step.a);
        const FieldEntry* entry = state.find(step.b, step.field);
        // Unseen field of a known object: field of a controllable value is
        // controllable (the attacker ships the whole object graph).
        vars[step.a] = entry != nullptr ? entry->origin : vars[step.b].member(step.field);
        return;
      }
      case Step::Op::ArrayStore: {
        // Merge rather than overwrite: any element may be read back.
        Origin incoming = vars[step.b];
        auto [entry, inserted] = state.try_emplace(step.a, step.field, incoming);
        if (!inserted && incoming.weight() < entry->origin.weight()) entry->origin = incoming;
        return;
      }
      case Step::Op::ArrayLoad: {
        state.destroy_fields(step.a);
        const FieldEntry* entry = state.find(step.b, step.field);
        // An element of a controllable array is controllable.
        vars[step.a] = entry != nullptr ? entry->origin : vars[step.b];
        return;
      }
      case Step::Op::Invoke:
        invoke(body_.calls[step.a], stmt_index, state);
        return;
    }
  }

 private:
  void invoke(const Call& call, std::size_t stmt_index, LocalMap& state) {
    const jir::InvokeStmt& s = *call.stmt;
    const Slot* args = body_.args.data() + call.first_arg;
    // Polluted_Position: receiver weight then argument weights.
    pp_.clear();
    pp_.push_back(s.kind == jir::InvokeKind::Static ? kUncontrollable
                                                    : weight_of(state, call.base));
    for (std::size_t k = 0; k < s.args.size(); ++k) pp_.push_back(weight_of(state, args[k]));

    // The callee's summary is read where it lives; a bodyless callee (or
    // the intraprocedural mode) folds the identity summary.
    if (options_.interprocedural && call.callee != kNoMethod) {
      fold(provider_.callee_action_of(call), call, state);
    } else {
      fold_identity(call, state);
    }

    if (collector_ != nullptr) {
      collector_->push_back(CallSite{stmt_index, &s.callee, s.kind, call.resolved, pp_});
    }
  }

  /// correct (Formula 3): folds each callee output, weighed against the PP
  /// by calc (Formula 2), back onto the caller-side expression its key
  /// denotes, in the Action's key order.
  void fold(const Action& action, const Call& call, LocalMap& state) {
    const jir::InvokeStmt& s = *call.stmt;
    const Slot* args = body_.args.data() + call.first_arg;
    for (const Action::Entry& entry : action.entries) {
      Weight weight = calc(entry.value, pp_);
      switch (entry.key.kind) {
        case ActionKey::Kind::FinalParam:
          if (entry.key.param >= 1 && static_cast<std::size_t>(entry.key.param) <= s.args.size()) {
            write(state, args[entry.key.param - 1], entry.key.field, weight);
          }
          break;
        case ActionKey::Kind::Return:
          set_result(state, call, weight);
          break;
        case ActionKey::Kind::This:
          if (s.kind != jir::InvokeKind::Static) write(state, call.base, entry.key.field, weight);
          break;
      }
    }
  }

  /// fold() of the summary assumed for a callee without a body: identity,
  /// or under the permissive option a result as controllable as the best
  /// input. Its keys in order: the parameters, the result, the receiver.
  /// Each parameter write stores its own argument's weight, so their
  /// relative order does not matter.
  void fold_identity(const Call& call, LocalMap& state) {
    const jir::InvokeStmt& s = *call.stmt;
    const Slot* args = body_.args.data() + call.first_arg;
    const std::size_t params =
        std::min(static_cast<std::size_t>(std::max(s.callee.nargs, 0)), s.args.size());
    for (std::size_t i = 1; i <= params; ++i) write(state, args[i - 1], kNoField, pp_[i]);
    set_result(state, call,
               options_.unknown_return_controllable ? *std::min_element(pp_.begin(), pp_.end())
                                                    : kUncontrollable);
    if (s.kind != jir::InvokeKind::Static) write(state, call.base, kNoField, pp_[0]);
  }

  static void set_result(LocalMap& state, const Call& call, Weight weight) {
    if (call.target == kNoSlot) return;
    state.destroy_fields(call.target);
    state.vars[call.target] = origin_from_weight(weight);
  }

  static void write(LocalMap& state, Slot slot, FieldId field, Weight weight) {
    if (slot == kNoSlot) return;
    if (field == kNoField) {
      state.vars[slot] = origin_from_weight(weight);
    } else {
      state.set_field(slot, field, origin_from_weight(weight));
    }
  }

  ActionProvider& provider_;
  const LoweredBody& body_;
  const AnalysisOptions& options_;
  std::vector<CallSite>* collector_ = nullptr;
  PollutedPosition pp_;
};

LocalMap entry_state(const jir::Method& method, Slot slots) {
  LocalMap state;
  state.vars.resize(slots);
  if (!method.mods.is_static) state.vars[0] = Origin::this_origin();
  for (int i = 1; i <= method.nargs(); ++i) {
    state.vars[static_cast<Slot>(i)] = Origin::param_origin(i);
  }
  return state;
}

/// Folds one exit-point state into the accumulating Action: the returned
/// slot, the parameter slots and the fields of `@this` and the parameters.
void accumulate_exit(Action& action, const LocalMap& state, const jir::Method& method,
                     Slot return_slot) {
  auto merge_entry = [&action](const ActionKey& key, const Origin& origin) {
    auto [value, inserted] = action.try_emplace(key, origin);
    if (!inserted) *value = merge(*value, origin);
  };

  if (!method.ret.is_void()) {
    merge_entry(kReturnKey,
                return_slot == kNoSlot ? Origin::unknown() : state.vars[return_slot]);
  }
  const int nargs = method.nargs();
  for (int i = 1; i <= nargs; ++i) {
    merge_entry(final_param_key(i), state.vars[static_cast<Slot>(i)]);
  }
  for (const FieldEntry& entry : state.fields) {
    if (entry.slot > static_cast<Slot>(nargs)) break;
    merge_entry(entry.slot == 0 ? this_key(entry.field)
                                : final_param_key(static_cast<int>(entry.slot), entry.field),
                entry.origin);
  }
}

bool has_statements(const jir::Method& method) {
  return method.has_body() && !method.body.empty();
}

/// The summary of a method without statements: identity, with a static
/// method's `this` unknown.
MethodSummary bodyless_summary(const jir::Method& method) {
  MethodSummary summary;
  summary.action = Action::identity(method.nargs(), method.mods.is_static);
  if (method.mods.is_static) summary.action.set(this_key(), Origin::unknown());
  return summary;
}

/// The per-method analysis of Algorithm 1 on a lowered body, parameterized
/// over the callee summary source. Pure: given the same body and the same
/// provider answers it returns the same summary, which is what lets the wave
/// scheduler run it on any thread.
MethodSummary compute_summary(const LoweredBody& body, ActionProvider& provider,
                              const AnalysisOptions& options) {
  const jir::Method& method = body.method;
  const cfg::ControlFlowGraph& graph = body.graph;
  const auto& blocks = graph.blocks();
  Transfer transfer(provider, body, options);
  MethodSummary summary;
  summary.action.entries.reserve(static_cast<std::size_t>(method.nargs()) + 2);
  summary.call_sites.reserve(body.calls.size());

  // The collection pass over one block: replays it from its converged
  // input, recording call sites and folding exit states into the Action.
  auto collect = [&](cfg::BlockId block_id, LocalMap& state) {
    for (std::size_t i = blocks[block_id].first; i < blocks[block_id].last; ++i) {
      const Step& step = body.steps[i];
      if (step.op == Step::Op::Return) accumulate_exit(summary.action, state, method, step.a);
      transfer.apply(i, state);
    }
    // Implicit exit: a block with no successors not ending in return/throw.
    if (blocks[block_id].successors.empty()) {
      Step::Op last = body.steps[blocks[block_id].last - 1].op;
      if (last != Step::Op::Return && last != Step::Op::Throw) {
        accumulate_exit(summary.action, state, method, kNoSlot);
      }
    }
  };

  if (blocks.size() == 1 && blocks[0].successors.empty()) {
    // Most bodies are one block, which has nothing to converge: the
    // collection pass alone demands the callees, in the same order.
    LocalMap state = entry_state(method, body.slots);
    transfer.set_call_collector(&summary.call_sites);
    collect(0, state);
  } else {
    // Fixpoint over block input states; a block has one once its vars are
    // sized.
    std::vector<cfg::BlockId> order = graph.reverse_post_order();
    std::vector<LocalMap> in_states(blocks.size());
    auto has_in = [&in_states](cfg::BlockId block) { return !in_states[block].vars.empty(); };
    in_states[graph.entry()] = entry_state(method, body.slots);
    LocalMap state;
    for (int round = 0; round < kMaxBlockIterations; ++round) {
      bool changed = false;
      for (cfg::BlockId block_id : order) {
        if (!has_in(block_id)) continue;
        state = in_states[block_id];
        for (std::size_t i = blocks[block_id].first; i < blocks[block_id].last; ++i) {
          transfer.apply(i, state);
        }
        for (cfg::BlockId succ : blocks[block_id].successors) {
          if (!has_in(succ)) {
            in_states[succ] = state;
            changed = true;
          } else if (merge_into(in_states[succ], state)) {
            changed = true;
          }
        }
      }
      if (!changed) break;
    }

    transfer.set_call_collector(&summary.call_sites);
    for (cfg::BlockId block_id : order) {
      if (has_in(block_id)) collect(block_id, in_states[block_id]);  // last use of its input
    }
    // Deterministic call-site order regardless of block iteration order.
    std::sort(summary.call_sites.begin(), summary.call_sites.end(),
              [](const CallSite& a, const CallSite& b) { return a.stmt_index < b.stmt_index; });
  }

  // Identity entries for anything an exit never mentioned (e.g. a method
  // whose every path throws) plus the static-this marker.
  Action& action = summary.action;
  for (int i = 1; i <= method.nargs(); ++i) {
    action.try_emplace(final_param_key(i), Origin::param_origin(i));
  }
  action.try_emplace(kReturnKey, Origin::unknown());
  action.try_emplace(this_key(),
                     method.mods.is_static ? Origin::unknown() : Origin::this_origin());
  return summary;
}

/// Serial provider: recursive memoized demand through summary(), with the
/// in-progress state bottoming out cycles.
class RecursiveProvider final : public ActionProvider {
 public:
  explicit RecursiveProvider(ControllabilityAnalysis& analysis) : analysis_(analysis) {}
  const Action& callee_action_of(const Call& call) override {
    return analysis_.summary(*call.resolved).action;
  }

 private:
  ControllabilityAnalysis& analysis_;
};

/// Parallel provider: reads the published summary table. A self-call
/// (direct recursion) yields the same identity bottom the serial path
/// produces, built on the first such call.
class TableProvider final : public ActionProvider {
 public:
  TableProvider(const std::vector<MethodSummary>& table, std::uint32_t self,
                const jir::Method& self_method)
      : table_(table), self_(self), self_method_(self_method) {}

  const Action& callee_action_of(const Call& call) override {
    if (call.callee != self_) return table_[call.callee].action;
    if (!bottom_) bottom_ = Action::identity(self_method_.nargs(), self_method_.mods.is_static);
    return *bottom_;
  }

 private:
  const std::vector<MethodSummary>& table_;
  std::uint32_t self_;
  const jir::Method& self_method_;
  std::optional<Action> bottom_;
};

/// Appends the name of each field statement of `method`.
void append_field_names(const jir::Method& method, std::vector<std::string_view>& out) {
  for (const jir::Stmt& stmt : method.body) {
    if (const auto* store = std::get_if<jir::FieldStoreStmt>(&stmt)) {
      out.push_back(store->field);
    } else if (const auto* load = std::get_if<jir::FieldLoadStmt>(&stmt)) {
      out.push_back(load->field);
    }
  }
}

}  // namespace

ControllabilityAnalysis::ControllabilityAnalysis(const jir::Program& program,
                                                 const jir::Hierarchy& /*hierarchy*/,
                                                 AnalysisOptions options)
    : program_(&program),
      options_(options),
      class_offset_(program.class_count() + 1, 0),
      methods_(program.all_methods()),
      summaries_(methods_.size()),
      states_(methods_.size(), State::Absent) {
  for (std::size_t ci = 0; ci < program.class_count(); ++ci) {
    class_offset_[ci + 1] =
        class_offset_[ci] + static_cast<std::uint32_t>(program.classes()[ci].methods.size());
  }
}

ControllabilityAnalysis::~ControllabilityAnalysis() = default;

const MethodSummary& ControllabilityAnalysis::cached_summary(jir::MethodId id) const {
  std::uint32_t index = class_offset_.at(id.class_index) + id.method_index;
  if (states_.at(index) != State::Done) throw std::out_of_range("no cached summary");
  return summaries_[index];
}

const MethodSummary& ControllabilityAnalysis::summary_at(std::uint32_t index) {
  switch (states_[index]) {
    case State::Done:
    case State::Bottom:
      return summaries_[index];
    case State::InProgress: {
      // Recursive cycle: bottom out at the identity summary. Stored so the
      // whole cycle sees a consistent value; overwritten by the full result
      // when the outer computation finishes.
      const jir::Method& m = program_->method(methods_[index]);
      summaries_[index] = MethodSummary{Action::identity(m.nargs(), m.mods.is_static), {}};
      states_[index] = State::Bottom;
      return summaries_[index];
    }
    case State::Absent:
      break;
  }
  states_[index] = State::InProgress;
  ++analyzed_;
  MethodSummary result = compute(index);
  summaries_[index] = std::move(result);
  states_[index] = State::Done;
  return summaries_[index];
}

void ControllabilityAnalysis::name_fields(util::Executor* executor) {
  if (fields_named_) return;
  std::vector<std::vector<std::string_view>> uses(methods_.size());
  util::run_indexed(executor, methods_.size(), [&](std::size_t i) {
    append_field_names(program_->method(methods_[i]), uses[i]);
  });
  std::vector<std::string_view> names;
  for (const std::vector<std::string_view>& method_uses : uses) {
    names.insert(names.end(), method_uses.begin(), method_uses.end());
  }
  fields_ = FieldNames(std::move(names));
  fields_named_ = true;
}

MethodSummary ControllabilityAnalysis::compute(std::uint32_t index) {
  name_fields(nullptr);
  const jir::Method& method = program_->method(methods_[index]);
  if (!has_statements(method)) return bodyless_summary(method);
  // precompute() resolved the calls of the methods it leaves to this path.
  std::vector<Call> calls = index < calls_.size()
                                ? std::exchange(calls_[index], {})
                                : resolve_calls(*program_, method, class_offset_);
  RecursiveProvider provider(*this);
  return compute_summary(lower(method, fields_, std::move(calls)), provider, options_);
}

void ControllabilityAnalysis::precompute(util::Executor* executor) {
  obs::Span span("analysis.precompute");
  const jir::Program& program = *program_;
  const std::size_t n = methods_.size();
  precompute_stats_ = {};
  if (n == 0) return;
  span.attr("methods", static_cast<std::uint64_t>(n));
  name_fields(executor);

  // Phase 1 (parallel): resolve every invoke once; each body is lowered
  // with its calls when its summary is computed. callees[i]
  // over-approximates the set of summaries compute_summary() may demand for
  // method i: every invoke of a callee with a body. The over-approximation
  // only affects scheduling, never results.
  calls_.resize(n);
  std::vector<std::vector<std::uint32_t>> callees(n);
  util::run_indexed(executor, n, [&](std::size_t i) {
    const jir::Method& method = program.method(methods_[i]);
    if (!has_statements(method)) return;
    calls_[i] = resolve_calls(program, method, class_offset_);
    if (!options_.interprocedural) return;  // no callee summary is ever demanded
    std::vector<std::uint32_t>& out = callees[i];
    for (const Call& call : calls_[i]) {
      if (call.callee == kNoMethod) continue;
      if (std::find(out.begin(), out.end(), call.callee) == out.end()) out.push_back(call.callee);
    }
  });

  // Phase 2 (serial, cheap): Tarjan SCC condensation of the call graph.
  constexpr std::uint32_t kUnvisited = UINT32_MAX;
  std::vector<std::uint32_t> disc(n, kUnvisited);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> comp(n, kUnvisited);
  std::vector<std::uint32_t> comp_size;
  {
    std::vector<std::uint32_t> tarjan_stack;
    std::vector<bool> on_stack(n, false);
    struct Frame {
      std::uint32_t node;
      std::size_t next_child;
    };
    std::vector<Frame> dfs;
    std::uint32_t timer = 0;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (disc[root] != kUnvisited) continue;
      dfs.push_back({root, 0});
      disc[root] = low[root] = timer++;
      tarjan_stack.push_back(root);
      on_stack[root] = true;
      while (!dfs.empty()) {
        Frame& frame = dfs.back();
        if (frame.next_child < callees[frame.node].size()) {
          std::uint32_t child = callees[frame.node][frame.next_child++];
          if (disc[child] == kUnvisited) {
            dfs.push_back({child, 0});
            disc[child] = low[child] = timer++;
            tarjan_stack.push_back(child);
            on_stack[child] = true;
          } else if (on_stack[child]) {
            low[frame.node] = std::min(low[frame.node], disc[child]);
          }
          continue;
        }
        std::uint32_t node = frame.node;
        dfs.pop_back();
        if (low[node] == disc[node]) {
          std::uint32_t id = static_cast<std::uint32_t>(comp_size.size());
          std::uint32_t size = 0;
          while (true) {
            std::uint32_t member = tarjan_stack.back();
            tarjan_stack.pop_back();
            on_stack[member] = false;
            comp[member] = id;
            ++size;
            if (member == node) break;
          }
          comp_size.push_back(size);
        }
        if (!dfs.empty()) low[dfs.back().node] = std::min(low[dfs.back().node], low[node]);
      }
    }
  }

  // Phase 3 (serial): taint multi-method cycles and everything that
  // transitively calls into one. Those summaries depend on the serial
  // algorithm's demand order, so they are delegated to it verbatim; direct
  // self-recursion is order-independent (the one entry always bottoms out at
  // identity) and stays wave-schedulable.
  // The callers of j other than j itself, ascending, are
  // caller_list[caller_start[j], caller_start[j + 1]).
  std::vector<std::uint32_t> caller_start(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j : callees[i]) {
      if (j != i) ++caller_start[j + 1];
    }
  }
  for (std::size_t j = 0; j < n; ++j) caller_start[j + 1] += caller_start[j];
  std::vector<std::uint32_t> caller_list(caller_start[n]);
  {
    std::vector<std::uint32_t> fill(caller_start.begin(), caller_start.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j : callees[i]) {
        if (j != i) caller_list[fill[j]++] = i;
      }
    }
  }
  auto callers = [&](std::uint32_t j) {
    return std::span<const std::uint32_t>(caller_list.data() + caller_start[j],
                                          caller_start[j + 1] - caller_start[j]);
  };
  std::vector<bool> tainted(n, false);
  std::vector<std::uint32_t> work;
  std::size_t cyclic = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (comp_size[comp[i]] > 1) {
      tainted[i] = true;
      ++cyclic;
      work.push_back(i);
    }
  }
  while (!work.empty()) {
    std::uint32_t current = work.back();
    work.pop_back();
    for (std::uint32_t caller : callers(current)) {
      if (!tainted[caller]) {
        tainted[caller] = true;
        work.push_back(caller);
      }
    }
  }

  // Phase 4: Kahn wave schedule over the untainted (acyclic) subgraph, then
  // one parallel_for per wave. Workers write disjoint slots of summaries_;
  // they read only slots published by earlier waves (plus the self bottom),
  // so the table acts as an immutable snapshot and no reader ever locks.
  std::vector<std::uint32_t> remaining(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (tainted[i]) continue;
    for (std::uint32_t j : callees[i]) {
      if (j != i) ++remaining[i];  // untainted => every callee is untainted
    }
  }
  std::vector<std::uint32_t> wave;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!tainted[i] && remaining[i] == 0) wave.push_back(i);
  }

  while (!wave.empty()) {
    obs::Span wave_span("analysis.wave");
    wave_span.attr("wave", static_cast<std::uint64_t>(precompute_stats_.waves));
    wave_span.attr("methods", static_cast<std::uint64_t>(wave.size()));
    obs::counter_add("analysis.scc_waves");
    ++precompute_stats_.waves;
    precompute_stats_.wave_methods += wave.size();
    util::run_indexed(executor, wave.size(), [&](std::size_t k) {
      std::uint32_t i = wave[k];
      if (states_[i] == State::Done) return;  // demanded before precompute()
      const jir::Method& method = program.method(methods_[i]);
      if (!has_statements(method)) {
        summaries_[i] = bodyless_summary(method);
        return;
      }
      TableProvider provider(summaries_, i, method);
      summaries_[i] =
          compute_summary(lower(method, fields_, std::exchange(calls_[i], {})), provider, options_);
    });
    std::vector<std::uint32_t> next;
    for (std::uint32_t i : wave) {
      if (states_[i] != State::Done) {
        states_[i] = State::Done;
        ++analyzed_;
      }
      for (std::uint32_t caller : callers(i)) {
        if (!tainted[caller] && --remaining[caller] == 0) next.push_back(caller);
      }
    }
    wave = std::move(next);
  }

  // Drive the tainted remainder through the serial path in all_methods()
  // order — the same order the CPG builder has always demanded summaries
  // in, so the cycle entries (and with them every downstream result) match
  // a pure serial run bit for bit. It takes the calls resolved above.
  precompute_stats_.cyclic_methods = cyclic;
  obs::Span serial_span("analysis.serial_tail");
  for (std::uint32_t i = 0; i < n; ++i) {
    if (tainted[i]) {
      ++precompute_stats_.serial_methods;
      summary_at(i);
    }
  }
  std::vector<std::vector<Call>>().swap(calls_);
  serial_span.attr("methods", static_cast<std::uint64_t>(precompute_stats_.serial_methods));
}

}  // namespace tabby::analysis
