#include "cpg/builder.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "cpg/schema.hpp"
#include "cpg/sinks.hpp"
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
      reserve_graph();
      build_org();
    }
    {
      TABBY_SPAN("cpg.pcg");
      build_pcg();
    }
    if (options_.build_alias_edges) {
      // A deadline that fired during the PCG also skips the MAG: the build is
      // already degraded, and alias BFS over a big hierarchy is not free.
      if (options_.deadline.expired()) {
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

  /// The classes that reach java.io.Serializable or java.io.Externalizable
  /// over direct-supertype edges, those two included: one backward BFS over
  /// the program's direct-subtype edges. It is exactly
  /// Hierarchy::is_serializable for every class, cycles and phantom
  /// supertypes included, without a supertype walk per class node and
  /// method. Names are views into the program.
  static std::unordered_set<std::string_view> serializable_classes(const jir::Program& program) {
    std::unordered_map<std::string_view, std::vector<std::string_view>> subtypes;
    for (const jir::ClassDecl& cls : program.classes()) {
      if (!cls.super.empty()) subtypes[cls.super].push_back(cls.name);
      for (const std::string& iface : cls.interfaces) subtypes[iface].push_back(cls.name);
    }
    std::unordered_set<std::string_view> reached{jir::kSerializableInterface,
                                                 jir::kExternalizableInterface};
    std::vector<std::string_view> work(reached.begin(), reached.end());
    while (!work.empty()) {
      auto it = subtypes.find(work.back());
      work.pop_back();
      if (it == subtypes.end()) continue;
      for (std::string_view sub : it->second) {
        if (reached.insert(sub).second) work.push_back(sub);
      }
    }
    return reached;
  }

  /// Sizes the graph from the program: a node per class and method plus room
  /// for a phantom callee per call site, and an edge per method (HAS), per
  /// direct supertype (EXTEND, INTERFACE) and per call site (a CALL edge
  /// folds one or more). build_mag() reserves for the ALIAS edges once it
  /// has them.
  void reserve_graph() {
    std::size_t methods = 0, supertypes = 0, call_sites = 0;
    for (const jir::ClassDecl& cls : program_.classes()) {
      methods += cls.methods.size();
      supertypes += (cls.super.empty() ? 0 : 1) + cls.interfaces.size();
      for (const jir::Method& m : cls.methods) {
        for (const jir::Stmt& stmt : m.body) {
          if (std::holds_alternative<jir::InvokeStmt>(stmt)) ++call_sites;
        }
      }
    }
    db_.reserve(program_.class_count() + methods + call_sites,
                methods + supertypes + call_sites);
    class_nodes_.reserve(program_.class_count());
    method_nodes_.reserve(methods);
  }

  void build_org() {
    serializable_ = serializable_classes(program_);
    const std::vector<jir::ClassDecl>& classes = program_.classes();
    for (std::uint32_t ci = 0; ci < classes.size(); ++ci) {
      const jir::ClassDecl& cls = classes[ci];
      NodeId cn = class_node(cls.name);
      for (std::uint32_t mi = 0; mi < cls.methods.size(); ++mi) {
        NodeId mn = method_node_for(jir::MethodId{ci, mi});
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
    props.reserve(2 + (decl != nullptr ? 4 : 0));
    props[std::string(kPropName)] = name;
    props[std::string(kPropPhantom)] = decl == nullptr;
    if (decl != nullptr) {
      props[std::string(kPropInterface)] = decl->is_interface;
      props[std::string(kPropAbstractClass)] = decl->mods.is_abstract;
      props[std::string(kPropSerializable)] = serializable_.contains(name);
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
                                   m.mods.is_static, m.mods.is_abstract, m.has_body(),
                                   m.has_body() && serializable_.contains(cls.name));
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
                                   /*is_abstract=*/true, /*has_body=*/false,
                                   /*source_eligible=*/false);
    db_.add_edge(class_node(owner), node, std::string(kHasEdge));
    phantom_methods_.emplace(std::move(sig), node);
    return node;
  }

  /// A method node with its nine fixed properties, the sink pair when it is
  /// a sink, and room for the ACTION that build_pcg() sets on a method with
  /// a body.
  NodeId make_method_node(const std::string& owner, const std::string& name, int nargs,
                          bool phantom, bool is_static, bool is_abstract, bool has_body,
                          bool source_eligible) {
    const SinkSpec* sink = SinkRegistry::table().match(owner, name);
    PropertyMap props;
    props.reserve(9 + (sink != nullptr ? 2 : 0) + (has_body ? 1 : 0));
    props[std::string(kPropName)] = name;
    props[std::string(kPropClassName)] = owner;
    props[std::string(kPropSignature)] = method_signature(owner, name, nargs);
    props[std::string(kPropParamCount)] = static_cast<std::int64_t>(nargs);
    props[std::string(kPropStatic)] = is_static;
    props[std::string(kPropAbstract)] = is_abstract;
    props[std::string(kPropPhantom)] = phantom;

    bool is_source = source_eligible && SourceRegistry::table().is_source_name(name);
    props[std::string(kPropIsSource)] = is_source;
    if (is_source) ++stats_.source_methods;

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
    const jir::MethodRef* declared = nullptr;  // phantom target when !resolved
    std::vector<std::int64_t> pp;         // merged Polluted_Position
    std::size_t stmt_index = 0;           // first surviving site (edge prop)
    jir::InvokeKind kind = jir::InvokeKind::Virtual;
    PropertyMap props;                    // the edge's, once every site is folded
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
      if (options_.deadline.expired()) {
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
        payload.action = Value{summary.action.to_strings(analysis.field_names())};
        for (const analysis::CallSite& site : summary.call_sites) {
          if (options_.prune_uncontrollable_calls && analysis::all_uncontrollable(site.pp)) {
            ++payload.pruned;
            continue;
          }
          add_call_payload(payload.calls, site);
        }
        for (CallPayload& call : payload.calls) {
          call.props.reserve(3);
          call.props[std::string(kPropPollutedPosition)] = std::move(call.pp);
          call.props[std::string(kPropStmtIndex)] = static_cast<std::int64_t>(call.stmt_index);
          call.props[std::string(kPropInvokeKind)] = std::string(jir::to_string(call.kind));
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
                                    : phantom_method_node(call.declared->owner, call.declared->name,
                                                          call.declared->nargs);
          db_.add_edge(from, to, std::string(kCallEdge), std::move(call.props));
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
                             : (!existing.resolved && *existing.declared == *site.declared);
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
    // program, so it fans out; targets come back in BFS visit order. Edge
    // creation stays serial below.
    std::vector<jir::MethodId> methods = program_.all_methods();
    std::vector<std::vector<jir::MethodId>> targets(methods.size());
    util::run_indexed(options_.executor, methods.size(),
                      [&](std::size_t i) { targets[i] = alias_targets(methods[i]); });

    std::size_t aliases = 0;
    for (const std::vector<jir::MethodId>& t : targets) aliases += t.size();
    db_.reserve(db_.node_count(), db_.edge_count() + aliases);
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

    // Superclass first, then direct interfaces (views into the program).
    std::deque<std::string_view> work;
    auto push_supertypes = [&](std::string_view name) {
      const jir::ClassDecl* decl = program_.find_class(name);
      if (decl == nullptr) return;
      if (!decl->super.empty()) work.push_back(decl->super);
      if (!options_.alias_superclass_only) {
        work.insert(work.end(), decl->interfaces.begin(), decl->interfaces.end());
      }
    };
    std::unordered_set<std::string_view> seen{cls.name};
    push_supertypes(cls.name);
    while (!work.empty()) {
      std::string_view current = work.front();
      work.pop_front();
      if (!seen.insert(current).second) continue;
      if (auto target = program_.find_method(current, m.name, m.nargs())) {
        // No target repeats: `seen` admits each class once, and find_method
        // returns only a method `current` itself declares. Two supertype
        // paths to one declaration meet in `seen`, so it gets one edge.
        out.push_back(*target);
        continue;  // nearest declaration on this path found
      }
      push_supertypes(current);
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
  std::unordered_set<std::string_view> serializable_;
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
  // The key format folds an empty string here; changing it would change
  // every snapshot key.
  h.update_sized("");
  h.update_u64(analysis::options_fingerprint(options.analysis));
  const SinkRegistry& sinks = SinkRegistry::table();
  h.update_u64(sinks.size());
  for (const SinkSpec& sink : sinks.all()) {
    h.update_sized(sink.owner);
    h.update_sized(sink.name);
    h.update_sized(sink.type);
    h.update_u64(sink.trigger.size());
    for (int pos : sink.trigger) h.update_u64(static_cast<std::uint64_t>(pos));
  }
  const std::vector<std::string>& sources = SourceRegistry::table().names();
  h.update_u64(sources.size());
  for (const std::string& name : sources) h.update_sized(name);
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
    // The node maps and per-method state outlive the graph's build; free
    // them in their own span.
    TABBY_SPAN("cpg.teardown");
    builder.reset();
  }
  return cpg;
}

}  // namespace tabby::cpg
