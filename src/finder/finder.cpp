#include "finder/finder.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <span>
#include <unordered_set>

#include "analysis/domain.hpp"
#include "cpg/schema.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tabby::finder {

namespace {

using graph::EdgeId;
using graph::NodeId;
using graph::Path;

/// The Trigger_Conditions of one sink search. A branch's condition is the
/// set of positions (0 = receiver, i = param i) of the *frontier* method
/// that must be attacker-controllable; the branch carries its id, and the
/// table stores each distinct sorted position set once. A position can be
/// any controllable weight below 10^9, so a set is a list, not a bitmask.
class TcTable {
 public:
  using Id = std::uint32_t;

  Id intern(const std::vector<std::int64_t>& positions) {
    auto [it, fresh] = ids_.try_emplace(positions, static_cast<Id>(sets_.size()));
    if (fresh) sets_.push_back(&it->first);
    return it->second;
  }

  const std::vector<std::int64_t>& operator[](Id id) const { return *sets_[id]; }

 private:
  std::map<std::vector<std::int64_t>, Id> ids_;
  std::vector<const std::vector<std::int64_t>*> sets_;  // by id
};

/// Formula 4: TC_next = { PP[x] | x in TC }, sorted and unique, into `next`.
/// Fails when any required position is uncontrollable. Takes a span so
/// int-list pool slices feed it without materializing a vector.
bool traverse_tc(const std::vector<std::int64_t>& tc, std::span<const std::int64_t> pp,
                 std::vector<std::int64_t>& next) {
  next.clear();
  for (std::int64_t x : tc) {
    if (x < 0 || x >= static_cast<std::int64_t>(pp.size())) return false;
    std::int64_t w = pp[static_cast<std::size_t>(x)];
    if (!analysis::is_controllable(w)) return false;
    next.push_back(w);
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  return true;
}

/// Strict decimal u64 parse for the dist wire codec (ids/counters travel as
/// strings — the wire format's numbers are doubles).
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

}  // namespace

const char* to_string(PartialReason reason) {
  switch (reason) {
    case PartialReason::Deadline: return "Deadline";
    case PartialReason::MemoryPressure: return "MemoryPressure";
    case PartialReason::WorkerFailure: return "WorkerFailure";
    case PartialReason::ExpansionBudget: return "ExpansionBudget";
  }
  return "Unknown";
}

std::string degraded_line(const PartialSink& sink) {
  std::string line;
  switch (sink.reason) {
    case PartialReason::MemoryPressure:
      line = "degraded: [finder-memory] ";
      line += sink.signature;
      line += ": frontier pruned under memory pressure after ";
      line += std::to_string(sink.expansions);
      line += " expansion(s); chains found so far are kept";
      break;
    case PartialReason::WorkerFailure:
      line = "degraded: [finder-worker] ";
      line += sink.signature;
      line += ": ";
      line += sink.detail.empty() ? "worker failed" : sink.detail;
      break;
    case PartialReason::Deadline:
      line = "degraded: [finder-deadline] ";
      line += sink.signature;
      line += ": search cut short after ";
      line += std::to_string(sink.expansions);
      line += " expansion(s)";
      break;
    case PartialReason::ExpansionBudget:
      line = "degraded: [finder-budget] ";
      line += sink.signature;
      line += ": search stopped at the expansion budget after ";
      line += std::to_string(sink.expansions);
      line += " expansion(s); chains found so far are kept";
      break;
  }
  return line;
}

std::string GadgetChain::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    if (i == 0) {
      out += "(source)";
    } else if (i + 1 == signatures.size()) {
      out += "(sink)  ";
    } else {
      out += "        ";
    }
    out += signatures[i] + "\n";
  }
  return out;
}

std::string GadgetChain::key() const {
  std::string out;
  for (const std::string& s : signatures) {
    out += s;
    out += '\n';
  }
  return out;
}

GadgetChainFinder::GadgetChainFinder(const graph::FrozenGraph& cpg, FinderOptions options)
    : cpg_(&cpg), options_(options) {}

FinderReport GadgetChainFinder::find_all() const {
  obs::Span span("finder.find_all");
  util::Stopwatch watch;
  FinderReport report;
  std::unordered_set<std::string> seen;

  // Shards run in ascending sink id order, and so does the merge below.
  std::vector<NodeId> sinks =
      cpg_->find_nodes(cpg::kMethodLabel, cpg::kPropIsSink, graph::Value{true});
  std::sort(sinks.begin(), sinks.end());
  report.sinks_considered = sinks.size();

  // Sink-partitioned search: every sink's traversal is independent (const
  // reads of the CPG, per-sink expansion budget), so the per-sink payloads
  // fan out across the executor. The merge below walks sinks in ascending id
  // order with the same first-wins dedup the serial loop applied, making the
  // report identical at any worker count.
  // Each shard's byte slice is a pure function of the pool and the sink
  // count, so prune decisions are identical at any worker count.
  const std::size_t cap = shard_cap(sinks.size());
  std::vector<SinkSearch> searches(sinks.size());
  if (options_.dist.workers > 0 && !sinks.empty()) {
    // Crash-isolated mode: each shard runs inside a supervised forked
    // worker; a shard whose retries are exhausted comes back as
    // worker_failed and degrades in the merge below instead of killing the
    // run. Payloads decode into the same SinkSearch the in-process path
    // fills, so everything downstream is shared.
    run_sinks_dist(sinks, cap, searches, report.dist_stats);
  } else {
    util::run_indexed(options_.executor, sinks.size(), [&](std::size_t i) {
      obs::Span sink_span("finder.sink");
      sink_span.attr("sink", static_cast<std::uint64_t>(sinks[i]));
      searches[i] = search_sink(sinks[i], cap);
      sink_span.attr("chains", static_cast<std::uint64_t>(searches[i].chains.size()));
      sink_span.attr("expansions", static_cast<std::uint64_t>(searches[i].expansions));
      obs::counter_add("finder.sinks_searched");
    });
  }

  for (std::size_t i = 0; i < searches.size(); ++i) {
    SinkSearch& search = searches[i];
    for (GadgetChain& chain : search.chains) {
      if (seen.insert(chain.key()).second) report.chains.push_back(std::move(chain));
    }
    report.expansions += search.expansions;
    report.budget_exhausted = report.budget_exhausted || search.exhausted;
    report.frontier_bytes_charged += search.bytes_charged;
    report.frontier_pruned += search.frontier_pruned;
    report.spilled_paths += search.spilled;
    report.peak_frontier_bytes = std::max(report.peak_frontier_bytes, search.peak_bytes);
    if (search.partial()) {
      std::string signature(cpg_->node_prop_string(sinks[i], cpg::kPropSignature));
      report.partial_sinks.push_back(PartialSink{sinks[i], std::move(signature),
                                                 search.expansions, search.reason(),
                                                 std::move(search.worker_error)});
    }
  }
  report.search_seconds = watch.elapsed_seconds();
  obs::counter_add("finder.chains_found", report.chains.size());
  obs::counter_add("finder.expansions", report.expansions);
  if (!report.partial_sinks.empty()) {
    obs::counter_add("finder.sinks_partial", report.partial_sinks.size());
  }
  // Memory-governance counters only exist on governed runs, so an unset
  // --mem-budget leaves the counter dump byte-identical to older builds.
  if (options_.frontier_byte_pool != 0) {
    obs::counter_add("finder.bytes_charged", report.frontier_bytes_charged);
    if (report.frontier_pruned > 0) {
      obs::counter_add("finder.frontier_pruned", report.frontier_pruned);
    }
    if (report.spilled_paths > 0) {
      obs::counter_add("finder.spilled_paths", report.spilled_paths);
    }
  }
  return report;
}

std::string GadgetChainFinder::encode_sink_search(const SinkSearch& search) {
  serve::Json doc = serve::Json::object();
  serve::Json chains = serve::Json::array();
  for (const GadgetChain& chain : search.chains) {
    serve::Json jc = serve::Json::object();
    serve::Json nodes = serve::Json::array();
    for (NodeId n : chain.nodes) nodes.push(serve::Json::string(std::to_string(n)));
    serve::Json sigs = serve::Json::array();
    for (const std::string& sig : chain.signatures) sigs.push(serve::Json::string(sig));
    jc.set("nodes", std::move(nodes));
    jc.set("sigs", std::move(sigs));
    jc.set("type", chain.sink_type);
    chains.push(std::move(jc));
  }
  doc.set("chains", std::move(chains));
  doc.set("expansions", std::to_string(search.expansions));
  doc.set("exhausted", search.exhausted);
  doc.set("deadline", search.deadline_expired);
  doc.set("pruned", std::to_string(search.frontier_pruned));
  doc.set("charged", std::to_string(search.bytes_charged));
  doc.set("peak", std::to_string(search.peak_bytes));
  doc.set("spilled", std::to_string(search.spilled));
  return doc.dump();
}

bool GadgetChainFinder::decode_sink_search(const std::string& payload, SinkSearch& out) {
  auto doc = serve::Json::parse(payload);
  if (!doc || !doc->is_object()) return false;
  SinkSearch search;
  const serve::Json* chains = doc->find("chains");
  if (chains == nullptr || !chains->is_array()) return false;
  for (const serve::Json& jc : chains->items()) {
    GadgetChain chain;
    chain.sink_type = jc.str("type");
    const serve::Json* nodes = jc.find("nodes");
    if (nodes == nullptr || !nodes->is_array()) return false;
    for (const serve::Json& n : nodes->items()) {
      std::uint64_t id = 0;
      if (!n.is_string() || !parse_u64(n.as_string(), id)) return false;
      chain.nodes.push_back(id);
    }
    chain.signatures = jc.strings("sigs");
    if (chain.signatures.size() != chain.nodes.size()) return false;
    search.chains.push_back(std::move(chain));
  }
  std::uint64_t v = 0;
  if (!parse_u64(doc->str("expansions"), v)) return false;
  search.expansions = v;
  if (!parse_u64(doc->str("pruned"), v)) return false;
  search.frontier_pruned = v;
  if (!parse_u64(doc->str("charged"), v)) return false;
  search.bytes_charged = v;
  if (!parse_u64(doc->str("peak"), v)) return false;
  search.peak_bytes = v;
  if (!parse_u64(doc->str("spilled"), v)) return false;
  search.spilled = v;
  search.exhausted = doc->flag("exhausted");
  search.deadline_expired = doc->flag("deadline");
  out = std::move(search);
  return true;
}

void GadgetChainFinder::run_sinks_dist(const std::vector<graph::NodeId>& sinks,
                                       std::size_t frontier_cap,
                                       std::vector<SinkSearch>& searches,
                                       dist::DistStats& stats) const {
  // Runs inside the forked worker: single-threaded const search over the
  // inherited (copy-on-write / shared-mmap) graph, result serialized onto
  // the worker's socket. No executor, no tracer — neither survives a fork.
  dist::ShardFn fn = [&](std::size_t i) {
    return encode_sink_search(search_sink(sinks[i], frontier_cap));
  };
  dist::DistReport dist_report = dist::run_shards(sinks.size(), fn, options_.dist);
  stats = dist_report.stats;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    dist::ShardResult& shard = dist_report.shards[i];
    if (shard.ok && decode_sink_search(shard.payload, searches[i])) continue;
    searches[i] = SinkSearch{};
    searches[i].worker_failed = true;
    searches[i].worker_error = shard.ok ? "shard payload decode failed" : std::move(shard.error);
  }
}

std::size_t GadgetChainFinder::shard_cap(std::size_t sink_count) const {
  if (options_.frontier_byte_pool == 0) return SIZE_MAX;
  // Floor each slice at one page so a huge sink catalogue cannot round every
  // shard down to "prune everything"; the pool is a soft aggregate bound.
  constexpr std::size_t kMinShardBytes = 4096;
  std::size_t slice = options_.frontier_byte_pool / std::max<std::size_t>(sink_count, 1);
  return std::max(slice, kMinShardBytes);
}

GadgetChainFinder::SinkSearch GadgetChainFinder::search_sink(graph::NodeId sink,
                                                             std::size_t frontier_cap) const {
  const graph::FrozenGraph& g = *cpg_;
  // Resolve every column and type id once per shard; the hot loop then only
  // touches flat arrays.
  const graph::FrozenColumn* sig_col = g.node_column(cpg::kPropSignature);
  const graph::FrozenColumn* source_col = g.node_column(cpg::kPropIsSource);
  const graph::FrozenColumn* sink_type_col = g.node_column(cpg::kPropSinkType);
  const graph::FrozenColumn* tc_col = g.node_column(cpg::kPropTriggerCondition);
  const graph::FrozenColumn* pp_col = g.edge_column(cpg::kPropPollutedPosition);
  const std::optional<std::uint16_t> call_type = g.edge_type_id(cpg::kCallEdge);
  const std::optional<std::uint16_t> alias_type = g.edge_type_id(cpg::kAliasEdge);

  // Column reads that stay exact when a key's column degraded to Mixed
  // (heterogeneous fuzz graphs).
  auto col_string = [](const graph::FrozenColumn* col, std::uint64_t i) -> std::string {
    if (col == nullptr) return {};
    if (col->kind() == graph::FrozenColumnKind::Str) return std::string(col->get_string(i));
    auto v = col->get_value(i);
    const std::string* s = v.has_value() ? std::get_if<std::string>(&v.value()) : nullptr;
    return s != nullptr ? *s : std::string{};
  };

  std::string sink_type = col_string(sink_type_col, sink);

  std::vector<std::int64_t> initial;
  if (tc_col != nullptr) {
    if (tc_col->kind() == graph::FrozenColumnKind::IntList) {
      auto xs = tc_col->get_intlist(sink);
      initial.assign(xs.begin(), xs.end());
    } else if (auto v = tc_col->get_value(sink); v.has_value()) {
      if (const auto* xs = std::get_if<std::vector<std::int64_t>>(&v.value())) initial = *xs;
    }
  }
  if (initial.empty()) initial = {0};
  std::sort(initial.begin(), initial.end());
  initial.erase(std::unique(initial.begin(), initial.end()), initial.end());
  TcTable tcs;
  const TcTable::Id root = tcs.intern(initial);

  // Algorithm 2: expand backwards over incoming CALL edges (to callers) and
  // forwards over outgoing ALIAS edges (to the overridden declaration whose
  // call sites dispatch here). A typed slice ascends by edge index, the
  // builder's insertion order. ALIAS steps and unchecked CALL steps keep the
  // branch's condition id; a checked CALL step computes Formula 4 into
  // `next` and interns the result.
  std::vector<std::int64_t> next;
  auto expand = [&, this](const graph::FrozenGraph& db, const Path& path, const TcTable::Id& tc,
                          std::vector<graph::Step<TcTable::Id>>& steps) {
    NodeId frontier = path.end();

    if (call_type.has_value()) {
      graph::AdjacencyView calls = db.in_edges_typed_view(frontier, *call_type);
      for (std::size_t k = 0; k < calls.size(); ++k) {
        EdgeId eid = calls.edge[k];
        NodeId caller = calls.nbr[k];
        if (!options_.check_trigger_conditions) {
          steps.push_back(graph::Step<TcTable::Id>{eid, caller, tc});
          continue;
        }
        if (pp_col == nullptr || !pp_col->has(eid)) continue;
        bool controllable = false;
        if (pp_col->kind() == graph::FrozenColumnKind::IntList) {
          controllable = traverse_tc(tcs[tc], pp_col->get_intlist(eid), next);
        } else {
          auto v = pp_col->get_value(eid);
          const auto* xs =
              v.has_value() ? std::get_if<std::vector<std::int64_t>>(&v.value()) : nullptr;
          controllable = xs != nullptr && traverse_tc(tcs[tc], *xs, next);
        }
        if (!controllable) continue;  // uncontrollable along this call: reject edge
        steps.push_back(graph::Step<TcTable::Id>{eid, caller, tcs.intern(next)});
      }
    }
    if (alias_type.has_value()) {
      // Forward only (override -> overridden declaration): callers invoke
      // the declared supertype method, so walking up the alias chain exposes
      // their CALL edges. Walking ALIAS edges in reverse would fabricate
      // dispatches between sibling overrides and is deliberately excluded.
      graph::AdjacencyView aliases = db.out_edges_typed_view(frontier, *alias_type);
      for (std::size_t k = 0; k < aliases.size(); ++k) {
        steps.push_back(graph::Step<TcTable::Id>{aliases.edge[k], aliases.nbr[k], tc});
      }
      if (options_.alias_bidirectional) {
        graph::AdjacencyView rev = db.in_edges_typed_view(frontier, *alias_type);
        for (std::size_t k = 0; k < rev.size(); ++k) {
          steps.push_back(graph::Step<TcTable::Id>{rev.edge[k], rev.nbr[k], tc});
        }
      }
    }
  };

  // Algorithm 3: include when the frontier is a source (IS_SOURCE read
  // straight off the column bitmap); prune at max depth.
  auto evaluate = [&, this](const graph::FrozenGraph&, const Path& path,
                            const TcTable::Id&) -> graph::Evaluation {
    if (path.length() > 0 && source_col != nullptr && source_col->get_bool(path.end())) {
      return graph::Evaluation::IncludeAndPrune;
    }
    if (static_cast<int>(path.length()) >= options_.max_depth) {
      return graph::Evaluation::ExcludeAndPrune;
    }
    return graph::Evaluation::ExcludeAndContinue;
  };

  graph::TraversalLimits limits;
  limits.max_results = options_.max_results_per_sink;
  limits.max_expansions = options_.max_expansions;
  limits.deadline = options_.deadline;
  limits.max_frontier_bytes = frontier_cap;

  // The condition table is not charged to the frontier: it holds one entry
  // per distinct condition, not per branch (docs/ROBUSTNESS.md).
  graph::Traverser<TcTable::Id, decltype(expand), decltype(evaluate)> traverser(
      g, expand, evaluate, limits);

  SinkSearch search;
  const bool governed = frontier_cap != SIZE_MAX;
  // Stream results out of the traversal: each accepted path is converted to
  // a compact GadgetChain on the spot ("spilled"), so completed paths never
  // count against the frontier byte cap.
  traverser.run(sink, root,
                [&](graph::TraversalResult<TcTable::Id> result) {
                  GadgetChain chain;
                  chain.sink_type = sink_type;
                  // Paths run sink -> source; chains are reported source-first.
                  chain.nodes.assign(result.path.nodes.rbegin(), result.path.nodes.rend());
                  for (NodeId n : chain.nodes) {
                    chain.signatures.push_back(col_string(sig_col, n));
                  }
                  search.chains.push_back(std::move(chain));
                  if (governed) ++search.spilled;
                });
  search.expansions = traverser.expansions();
  search.exhausted = traverser.exhausted_budget();
  search.deadline_expired = traverser.deadline_expired();
  search.frontier_pruned = traverser.frontier_pruned();
  search.bytes_charged = traverser.frontier_bytes_charged();
  search.peak_bytes = traverser.peak_frontier_bytes();
  return search;
}

}  // namespace tabby::finder
