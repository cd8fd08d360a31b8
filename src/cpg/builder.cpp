#include "cpg/builder.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "cpg/schema.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tabby::cpg {

namespace {

using graph::NodeId;
using graph::PropertyMap;
using graph::Value;

class Builder {
 public:
  Builder(const jir::Program& program, const CpgOptions& options)
      : program_(program), hierarchy_(program), options_(options) {}

  Cpg run() {
    obs::Span span("cpg.build");
    util::Stopwatch watch;
    {
      TABBY_SPAN("cpg.org");
      build_org();
    }
    {
      TABBY_SPAN("cpg.pcg");
      build_pcg();
    }
    if (options_.build_alias_edges) {
      // A deadline that fired during the PCG also skips the MAG: the build is
      // already degraded, and alias BFS over a big hierarchy is not free.
      if (!options_.deadline.unlimited() && options_.deadline.expired()) {
        deadline_hit_ = true;
      } else {
        TABBY_SPAN("cpg.mag");
        build_mag();
      }
    }

    Cpg result;
    collect_stats();
    stats_.build_seconds = watch.elapsed_seconds();
    db_.set_build_counts(build_counts(stats_));
    result.stats = stats_;
    result.deadline_hit = deadline_hit_;
    result.methods_skipped = methods_skipped_;
    result.db = std::move(db_);
    // Mirror the CpgStats the caller sees into the counter catalog, so a
    // trace is self-describing and tests can cross-check the two.
    obs::counter_add("cpg.class_nodes", stats_.class_nodes);
    obs::counter_add("cpg.method_nodes", stats_.method_nodes);
    obs::counter_add("cpg.call_edges", stats_.call_edges);
    obs::counter_add("cpg.alias_edges", stats_.alias_edges);
    obs::counter_add("cpg.call_sites_pruned", stats_.pruned_call_sites);
    return result;
  }

 private:
  // --- ORG: class/method nodes, EXTEND/INTERFACE/HAS --------------------

  void build_org() {
    for (const jir::ClassDecl& cls : program_.classes()) {
      NodeId cn = class_node(cls.name);
      for (std::size_t mi = 0; mi < cls.methods.size(); ++mi) {
        jir::MethodId id{*program_.class_index(cls.name), static_cast<std::uint32_t>(mi)};
        NodeId mn = method_node_for(id);
        db_.add_edge(cn, mn, std::string(kHasEdge));
      }
    }
    // Hierarchy edges once every class node exists (phantoms created lazily).
    for (const jir::ClassDecl& cls : program_.classes()) {
      NodeId cn = class_nodes_.at(cls.name);
      if (!cls.super.empty()) {
        db_.add_edge(cn, class_node(cls.super), std::string(kExtendEdge));
      }
      for (const std::string& iface : cls.interfaces) {
        db_.add_edge(cn, class_node(iface), std::string(kInterfaceEdge));
      }
    }
  }

  NodeId class_node(const std::string& name) {
    auto it = class_nodes_.find(name);
    if (it != class_nodes_.end()) return it->second;

    const jir::ClassDecl* decl = program_.find_class(name);
    PropertyMap props;
    props[std::string(kPropName)] = name;
    props[std::string(kPropPhantom)] = decl == nullptr;
    if (!options_.jar_name.empty()) props[std::string(kPropJar)] = options_.jar_name;
    if (decl != nullptr) {
      props[std::string(kPropInterface)] = decl->is_interface;
      props[std::string(kPropAbstractClass)] = decl->mods.is_abstract;
      props[std::string(kPropSerializable)] = hierarchy_.is_serializable(name);
      props[std::string(kPropSuper)] = decl->super;
    }
    NodeId id = db_.add_node(std::string(kClassLabel), std::move(props));
    class_nodes_.emplace(name, id);
    return id;
  }

  NodeId method_node_for(jir::MethodId id) {
    auto it = method_nodes_.find(id);
    if (it != method_nodes_.end()) return it->second;

    const jir::ClassDecl& cls = program_.class_of(id);
    const jir::Method& m = program_.method(id);
    NodeId node = make_method_node(cls.name, m.name, m.nargs(), /*phantom=*/false,
                                   m.mods.is_static, m.mods.is_abstract,
                                   m.has_body() && hierarchy_.is_serializable(cls.name));
    method_nodes_.emplace(id, node);
    return node;
  }

  /// Phantom method node for calls into classes (or overloads) the program
  /// does not contain. Keyed by signature.
  NodeId phantom_method_node(const std::string& owner, const std::string& name, int nargs) {
    std::string sig = method_signature(owner, name, nargs);
    auto it = phantom_methods_.find(sig);
    if (it != phantom_methods_.end()) return it->second;
    NodeId node = make_method_node(owner, name, nargs, /*phantom=*/true, /*is_static=*/false,
                                   /*is_abstract=*/true, /*source_eligible=*/false);
    db_.add_edge(class_node(owner), node, std::string(kHasEdge));
    phantom_methods_.emplace(std::move(sig), node);
    return node;
  }

  NodeId make_method_node(const std::string& owner, const std::string& name, int nargs,
                          bool phantom, bool is_static, bool is_abstract, bool source_eligible) {
    PropertyMap props;
    props[std::string(kPropName)] = name;
    props[std::string(kPropClassName)] = owner;
    props[std::string(kPropSignature)] = method_signature(owner, name, nargs);
    props[std::string(kPropParamCount)] = static_cast<std::int64_t>(nargs);
    props[std::string(kPropStatic)] = is_static;
    props[std::string(kPropAbstract)] = is_abstract;
    props[std::string(kPropPhantom)] = phantom;

    bool is_source = source_eligible && options_.sources.is_source_name(name);
    props[std::string(kPropIsSource)] = is_source;
    if (is_source) ++stats_.source_methods;

    const SinkSpec* sink = options_.sinks.match(owner, name);
    props[std::string(kPropIsSink)] = sink != nullptr;
    if (sink != nullptr) {
      ++stats_.sink_methods;
      props[std::string(kPropSinkType)] = sink->type;
      std::vector<std::int64_t> tc(sink->trigger.begin(), sink->trigger.end());
      props[std::string(kPropTriggerCondition)] = std::move(tc);
    }
    return db_.add_node(std::string(kMethodLabel), std::move(props));
  }

  // --- PCG: CALL edges with Polluted_Position ---------------------------

  /// One outgoing CALL edge of a method, with repeated calls of the same
  /// callee already folded to the position-wise most controllable PP.
  /// Folding per method merges every repeated call: edges from different
  /// methods never share a `from` node.
  struct CallPayload {
    std::optional<jir::MethodId> resolved;
    jir::MethodRef declared;              // phantom target when !resolved
    std::vector<std::int64_t> pp;         // merged Polluted_Position
    std::size_t stmt_index = 0;           // first surviving site (edge prop)
    jir::InvokeKind kind = jir::InvokeKind::Virtual;
  };

  struct MethodPayload {
    Value action;                         // Action summary node property
    std::vector<CallPayload> calls;       // first-occurrence order
    std::size_t pruned = 0;
  };

  void build_pcg() {
    analysis::ControllabilityAnalysis analysis(program_, hierarchy_, options_.analysis);
    util::Executor* executor = options_.executor;
    bool parallel = executor != nullptr && executor->concurrency() > 1;
    if (parallel) analysis.precompute(executor);

    std::vector<jir::MethodId> methods = program_.all_methods();

    // The PCG is built in fixed-size batches: a parallel, side-effect-free
    // payload pass over the batch followed by serial graph mutation in
    // all_methods() order. Batches run in method order too, so the built
    // graph is byte-identical to the historical single-pass build at any
    // worker count; the batch seams are where the deadline is polled (the
    // documented overshoot bound is one batch, not one whole classpath). The
    // size is a compile-time constant: determinism requires the seams to
    // never move.
    constexpr std::size_t kPayloadBatch = 2048;
    for (std::size_t base = 0; base < methods.size(); base += kPayloadBatch) {
      if (!options_.deadline.unlimited() && options_.deadline.expired()) {
        deadline_hit_ = true;
        methods_skipped_ += methods.size() - base;
        break;
      }
      std::size_t count = std::min(kPayloadBatch, methods.size() - base);

      // Payload phase: per-method, side-effect free. In parallel mode every
      // summary is already cached (pure reads); serially summary() computes
      // on demand in all_methods() order, the historical compute order.
      std::vector<MethodPayload> payloads(count);
      util::run_indexed(parallel ? executor : nullptr, count, [&](std::size_t i) {
        jir::MethodId id = methods[base + i];
        if (!program_.method(id).has_body()) return;
        const analysis::MethodSummary& summary =
            parallel ? analysis.cached_summary(id) : analysis.summary(id);
        MethodPayload& payload = payloads[i];
        payload.action = Value{summary.action.to_strings()};
        for (const analysis::CallSite& site : summary.call_sites) {
          if (options_.prune_uncontrollable_calls && analysis::all_uncontrollable(site.pp)) {
            ++payload.pruned;
            continue;
          }
          add_call_payload(payload.calls, site);
        }
      });

      // Instantiation phase: serial graph mutation, same order as ever.
      for (std::size_t i = 0; i < count; ++i) {
        jir::MethodId id = methods[base + i];
        if (!program_.method(id).has_body()) continue;
        MethodPayload& payload = payloads[i];
        stats_.pruned_call_sites += payload.pruned;

        NodeId from = method_nodes_.at(id);
        db_.set_node_prop(from, std::string(kPropAction), std::move(payload.action));

        for (CallPayload& call : payload.calls) {
          NodeId to = call.resolved ? method_node_for(*call.resolved)
                                    : phantom_method_node(call.declared.owner, call.declared.name,
                                                          call.declared.nargs);
          PropertyMap props;
          props[std::string(kPropPollutedPosition)] = std::move(call.pp);
          props[std::string(kPropStmtIndex)] = static_cast<std::int64_t>(call.stmt_index);
          props[std::string(kPropInvokeKind)] = std::string(jir::to_string(call.kind));
          db_.add_edge(from, to, std::string(kCallEdge), std::move(props));
        }
      }
    }

    obs::counter_add("analysis.methods_analyzed", analysis.analyzed_count());
    if (methods_skipped_ > 0) obs::counter_add("cpg.methods_skipped", methods_skipped_);
  }

  static void add_call_payload(std::vector<CallPayload>& calls, const analysis::CallSite& site) {
    // Merge repeated calls of the same callee into one edge with the
    // position-wise most controllable PP. Callee identity matches graph-node
    // identity: resolved ids and phantom signatures map to distinct nodes.
    for (CallPayload& existing : calls) {
      bool same_callee = site.resolved
                             ? (existing.resolved && *existing.resolved == *site.resolved)
                             : (!existing.resolved && existing.declared.owner == site.declared.owner &&
                                existing.declared.name == site.declared.name &&
                                existing.declared.nargs == site.declared.nargs);
      if (!same_callee) continue;
      existing.pp.resize(std::max(existing.pp.size(), site.pp.size()), analysis::kUncontrollable);
      for (std::size_t i = 0; i < site.pp.size(); ++i) {
        existing.pp[i] = std::min(existing.pp[i], site.pp[i]);
      }
      return;
    }
    CallPayload fresh;
    fresh.resolved = site.resolved;
    fresh.declared = site.declared;
    fresh.pp.assign(site.pp.begin(), site.pp.end());
    fresh.stmt_index = site.stmt_index;
    fresh.kind = site.kind;
    calls.push_back(std::move(fresh));
  }

  // --- MAG: ALIAS edges (Formula 1, generalised to nearest declaration) --

  void build_mag() {
    // Payload phase: the supertype BFS per method is a pure read of the
    // program and hierarchy, so it fans out; targets come back in BFS visit
    // order. Edge creation stays serial below.
    std::vector<jir::MethodId> methods = program_.all_methods();
    std::vector<std::vector<jir::MethodId>> targets(methods.size());
    util::run_indexed(options_.executor, methods.size(),
                      [&](std::size_t i) { targets[i] = alias_targets(methods[i]); });

    for (std::size_t i = 0; i < methods.size(); ++i) {
      if (targets[i].empty()) continue;
      NodeId from = method_nodes_.at(methods[i]);
      for (jir::MethodId target : targets[i]) {
        db_.add_edge(from, method_node_for(target), std::string(kAliasEdge));
      }
    }
  }

  /// Methods `id` overrides, nearest declaration on each supertype path
  /// (Formula 1, generalised), each once, in BFS order. BFS up the lattice;
  /// stop exploring past a declaration (transitive aliasing is then a chain
  /// of ALIAS edges).
  std::vector<jir::MethodId> alias_targets(jir::MethodId id) const {
    const jir::ClassDecl& cls = program_.class_of(id);
    const jir::Method& m = program_.method(id);
    std::vector<jir::MethodId> out;
    if (m.name == "<init>" || m.name == "<clinit>") return out;  // constructors never alias

    auto supertypes_of = [this](const std::string& name) {
      if (!options_.alias_superclass_only) return hierarchy_.direct_supertypes(name);
      const jir::ClassDecl* decl = program_.find_class(name);
      std::vector<std::string> supers;
      if (decl != nullptr && !decl->super.empty()) supers.push_back(decl->super);
      return supers;
    };

    std::deque<std::string> work;
    std::unordered_set<std::string> seen{cls.name};
    for (const std::string& super : supertypes_of(cls.name)) work.push_back(super);
    while (!work.empty()) {
      std::string current = std::move(work.front());
      work.pop_front();
      if (!seen.insert(current).second) continue;
      if (auto target = program_.find_method(current, m.name, m.nargs())) {
        // Two supertype paths can reach one declaration; it gets one edge.
        if (std::find(out.begin(), out.end(), *target) == out.end()) out.push_back(*target);
        continue;  // nearest declaration on this path found
      }
      for (const std::string& super : supertypes_of(current)) {
        work.push_back(super);
      }
    }
    return out;
  }

  /// Node and edge counts; source and sink methods are counted as their
  /// nodes are made.
  void collect_stats() {
    graph::CardinalityStats counts = db_.cardinality();
    stats_.class_nodes = counts.label_count(kClassLabel);
    stats_.method_nodes = counts.label_count(kMethodLabel);
    stats_.relationship_edges = counts.edges;
    stats_.call_edges = counts.type_count(kCallEdge);
    stats_.alias_edges = counts.type_count(kAliasEdge);
  }

  const jir::Program& program_;
  jir::Hierarchy hierarchy_;
  const CpgOptions& options_;
  graph::GraphDb db_;
  CpgStats stats_;
  bool deadline_hit_ = false;
  std::size_t methods_skipped_ = 0;

  std::unordered_map<std::string, NodeId> class_nodes_;
  std::unordered_map<jir::MethodId, NodeId, jir::MethodIdHash> method_nodes_;
  std::unordered_map<std::string, NodeId> phantom_methods_;
};

}  // namespace

std::uint64_t options_fingerprint(const CpgOptions& options) {
  util::Fnv1a h;
  h.update("cpg-options-v1");
  h.update_bool(options.prune_uncontrollable_calls);
  h.update_bool(options.build_alias_edges);
  h.update_bool(options.alias_superclass_only);
  h.update_sized(options.jar_name);
  h.update_u64(analysis::options_fingerprint(options.analysis));
  h.update_u64(options.sinks.size());
  for (const SinkSpec& sink : options.sinks.all()) {
    h.update_sized(sink.owner);
    h.update_sized(sink.name);
    h.update_sized(sink.type);
    h.update_u64(sink.trigger.size());
    for (int pos : sink.trigger) h.update_u64(static_cast<std::uint64_t>(pos));
  }
  h.update_u64(options.sources.names().size());
  for (const std::string& name : options.sources.names()) h.update_sized(name);
  return h.digest();
}

graph::BuildCounts build_counts(const CpgStats& stats) {
  return {stats.class_nodes,    stats.method_nodes, stats.relationship_edges,
          stats.call_edges,     stats.alias_edges,  stats.pruned_call_sites,
          stats.source_methods, stats.sink_methods};
}

CpgStats stats_from(const graph::BuildCounts& counts) {
  CpgStats stats;
  std::size_t* fields[] = {&stats.class_nodes,       &stats.method_nodes,
                           &stats.relationship_edges, &stats.call_edges,
                           &stats.alias_edges,        &stats.pruned_call_sites,
                           &stats.source_methods,     &stats.sink_methods};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    *fields[i] = static_cast<std::size_t>(counts[i]);
  }
  return stats;
}

Cpg build_cpg(const jir::Program& program, const CpgOptions& options) {
  auto builder = std::make_unique<Builder>(program, options);
  Cpg cpg = builder->run();
  {
    // The class hierarchy, node maps and per-method state outlive the
    // graph's build; free them in their own span.
    TABBY_SPAN("cpg.teardown");
    builder.reset();
  }
  return cpg;
}

}  // namespace tabby::cpg
