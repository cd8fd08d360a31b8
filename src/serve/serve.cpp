#include "serve/serve.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <ostream>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "util/failpoint.hpp"
#include "util/signals.hpp"

namespace tabby::serve {

namespace {

/// Writes the whole buffer, riding out partial writes and EINTR.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A numeric protocol field and the integers it accepts, [min, limit): the
/// ranges of the CLI flags it mirrors, so every cast in context_from() is
/// defined.
struct IntegerField {
  const char* name;
  double min;
  double limit;
  const char* range;
};

constexpr IntegerField kIntegerFields[] = {
    {"depth", 1, 0x1p31, "[1, 2^31)"},
    {"workers", 0, 0x1p31, "[0, 2^31)"},
    {"verify_workers", 0, 0x1p31, "[0, 2^31)"},
    {"frontier_pool", 0, 0x1p64, "[0, 2^64)"},
    {"deadline_ms", 0, 0x1p63, "[0, 2^63)"},
    {"load_ms", 0, 0x1p63, "[0, 2^63)"},
    {"finder_ms", 0, 0x1p63, "[0, 2^63)"},
    {"verify_ms", 0, 0x1p63, "[0, 2^63)"},
};

constexpr const char* kBooleanFields[] = {"strict", "verify", "explain", "no_plan", "all"};

/// The usage error for the first typed field of `request` that is present
/// but malformed; empty when every one is well formed.
std::string field_error(const Json& request) {
  const Json* classpath = request.find("classpath");
  if (classpath != nullptr && (!classpath->is_array() ||
                               !std::ranges::all_of(classpath->items(), &Json::is_string))) {
    return "\"classpath\" must be an array of strings";
  }
  for (const IntegerField& field : kIntegerFields) {
    const Json* value = request.find(field.name);
    if (value == nullptr) continue;
    double v = value->as_number();
    if (value->kind() != Json::Kind::Number || std::trunc(v) != v || v < field.min ||
        v >= field.limit) {
      return "\"" + std::string(field.name) + "\" must be an integer in " + field.range;
    }
  }
  for (const char* name : kBooleanFields) {
    const Json* value = request.find(name);
    if (value != nullptr && value->kind() != Json::Kind::Bool) {
      return "\"" + std::string(name) + "\" must be a boolean";
    }
  }
  return {};
}

/// The per-request ExecContext, decoded from protocol fields that
/// field_error() accepted. Deadlines are anchored here — at dispatch — so a
/// request queued behind a slow neighbour still gets its full allowance once
/// it actually starts.
pipeline::ExecContext context_from(const Json& request, int default_workers) {
  pipeline::ExecContext ctx;
  if (request.has("deadline_ms")) {
    ctx.deadline = util::Deadline::after(
        std::chrono::milliseconds(static_cast<long long>(request.num("deadline_ms"))));
  }
  if (request.has("load_ms")) {
    ctx.load_budget = std::chrono::milliseconds(static_cast<long long>(request.num("load_ms")));
  }
  if (request.has("finder_ms")) {
    ctx.finder_budget =
        std::chrono::milliseconds(static_cast<long long>(request.num("finder_ms")));
  }
  ctx.policy = request.flag("strict") ? pipeline::FailurePolicy::kStrict
                                      : pipeline::FailurePolicy::kQuarantine;
  ctx.max_depth = static_cast<int>(request.num("depth", 12));
  ctx.frontier_byte_pool = static_cast<std::size_t>(request.num("frontier_pool", 0));
  ctx.use_planner = !request.flag("no_plan");
  ctx.workers = static_cast<int>(request.num("workers", default_workers));
  ctx.verify = request.flag("verify");
  ctx.verify_workers = static_cast<int>(request.num("verify_workers", 0));
  if (request.has("verify_ms")) {
    ctx.verify_budget = std::chrono::milliseconds(static_cast<long long>(request.num("verify_ms")));
  }
  return ctx;
}

class Daemon {
 public:
  explicit Daemon(ServeOptions options)
      : engine_(std::make_unique<pipeline::Engine>(std::move(options.engine))),
        default_workers_(options.default_workers) {}

  util::Status run(const std::string& socket_path, std::ostream& out, std::ostream& err);

 private:
  void serve_connection(int fd);
  /// Called by a connection's thread as its last act.
  void end_connection();
  std::string handle_line(const std::string& line);
  Json dispatch(const Json& request);

  Json op_open(const Json& request);
  Json op_find(const Json& request);
  Json op_query(const Json& request);
  Json op_stats() const;
  Json op_evict(const Json& request);
  Json op_shutdown();

  /// Opens (with admission control) and maps failures onto the protocol
  /// error taxonomy; `error_out` is the ready-to-send error response.
  util::Result<pipeline::AnalysisPtr> open_for(const Json& request,
                                               const pipeline::ExecContext& ctx,
                                               pipeline::OpenOptions opts, Json& error_out);

  static Json error_response(const std::string& kind, const std::string& message) {
    Json response = Json::object();
    response.set("ok", false);
    response.set("kind", kind);
    response.set("error", message);
    return response;
  }

  std::unique_ptr<pipeline::Engine> engine_;
  int default_workers_ = 0;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> failpoint_failures_{0};
  std::atomic<int> in_flight_{0};
  /// Connections still being served; shutdown waits for it to reach 0.
  std::mutex connections_mutex_;
  std::condition_variable connections_done_;
  int open_connections_ = 0;
};

util::Status Daemon::run(const std::string& socket_path, std::ostream& out, std::ostream& err) {
  // A client vanishing mid-response must surface as EPIPE from write(2), not
  // kill the daemon; ditto for the dist worker pipes forked under a find.
  util::ignore_sigpipe();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return util::Error{"socket path too long: " + socket_path};
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return util::Error{"cannot create socket: " + std::string(std::strerror(errno))};
  ::unlink(socket_path.c_str());  // a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    ::close(fd);
    return util::Error{"cannot bind " + socket_path + ": " + std::strerror(saved)};
  }
  if (::listen(fd, 16) != 0) {
    int saved = errno;
    ::close(fd);
    ::unlink(socket_path.c_str());
    return util::Error{"cannot listen on " + socket_path + ": " + std::strerror(saved)};
  }
  listen_fd_ = fd;

  out << "serving on " << socket_path << "\n" << std::flush;

  // Each connection runs on a detached thread, so its stack is released as
  // soon as the connection ends rather than held until shutdown.
  while (!stop_.load(std::memory_order_relaxed)) {
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      if (!stop_.load(std::memory_order_relaxed)) {
        err << "serve: accept failed: " << std::strerror(errno) << "\n";
      }
      break;
    }
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      ++open_connections_;
    }
    try {
      std::thread([this, conn] {
        serve_connection(conn);
        end_connection();
      }).detach();
    } catch (const std::system_error& e) {
      ::close(conn);
      end_connection();
      err << "serve: cannot start a connection thread: " << e.what() << "\n";
    }
  }

  // Shutdown waits for the open connections to end.
  {
    std::unique_lock<std::mutex> lock(connections_mutex_);
    connections_done_.wait(lock, [this] { return open_connections_ == 0; });
  }
  ::close(fd);
  ::unlink(socket_path.c_str());
  return util::Status::ok_status();
}

void Daemon::end_connection() {
  // Notified under the lock: once run() sees 0 it may destroy the daemon,
  // so this thread must be done with it before the unlock.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  if (--open_connections_ == 0) connections_done_.notify_all();
}

void Daemon::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) == std::string::npos) {
      ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    std::string response = handle_line(line);
    response += '\n';
    if (!write_all(fd, response)) {
      ::close(fd);
      return;
    }
  }
}

std::string Daemon::handle_line(const std::string& line) {
  obs::Span span("serve.request");
  requests_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  Json response;
  std::optional<Json> request = Json::parse(line);
  if (!request || !request->is_object()) {
    response = error_response("usage", "malformed request: not a JSON object");
  } else if (util::failpoint::poll("serve.request")) {
    // The chaos seam: one request dies mid-flight with a structured error;
    // the daemon must answer the NEXT request cleanly (CI proves it does).
    failpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add("serve.request_failpoints");
    response = error_response("internal", "failpoint serve.request fired");
  } else {
    try {
      response = dispatch(*request);
    } catch (const std::exception& e) {
      // A request may fault; the daemon never does.
      response = error_response("internal", std::string("unhandled exception: ") + e.what());
    }
  }
  if (request && request->is_object()) {
    if (const Json* id = request->find("id")) response.set("id", *id);
  }
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return response.dump();
}

Json Daemon::dispatch(const Json& request) {
  // Checked before any op runs, so a rejected request reads no archive.
  if (std::string error = field_error(request); !error.empty()) {
    return error_response("usage", "malformed request: " + error);
  }
  std::string op = request.str("op");
  if (op == "open") return op_open(request);
  if (op == "find") return op_find(request);
  if (op == "query") return op_query(request);
  if (op == "stats") return op_stats();
  if (op == "evict") return op_evict(request);
  if (op == "shutdown") return op_shutdown();
  return error_response("usage", "unknown op: " + (op.empty() ? "(missing)" : op));
}

util::Result<pipeline::AnalysisPtr> Daemon::open_for(const Json& request,
                                                     const pipeline::ExecContext& ctx,
                                                     pipeline::OpenOptions opts,
                                                     Json& error_out) {
  std::vector<std::string> classpath = request.strings("classpath");
  if (classpath.empty()) {
    error_out = error_response("usage", "request needs a non-empty \"classpath\" array");
    return util::Error{"usage"};
  }
  opts.require_admission = true;
  auto analysis = engine_->open(classpath, ctx, opts);
  if (!analysis.ok()) {
    error_out = pipeline::is_over_capacity(analysis.error())
                    ? error_response("over-capacity", analysis.error().message)
                    : error_response("not-found", analysis.error().to_string());
    return analysis.error();
  }
  return analysis;
}

Json Daemon::op_open(const Json& request) {
  pipeline::ExecContext ctx = context_from(request, default_workers_);
  Json error_out;
  auto analysis = open_for(request, ctx, {}, error_out);
  if (!analysis.ok()) return error_out;
  const pipeline::Outcome& outcome = analysis.value()->outcome();

  Json response = Json::object();
  response.set("ok", true);
  response.set("fingerprint", hex64(analysis.value()->fingerprint()));
  response.set("warm", outcome.warm);
  response.set("resident", analysis.value()->fingerprint() != 0);
  response.set("resident_bytes", static_cast<std::uint64_t>(analysis.value()->resident_bytes()));
  response.set("classes", static_cast<std::uint64_t>(outcome.stats.class_nodes));
  response.set("methods", static_cast<std::uint64_t>(outcome.stats.method_nodes));
  response.set("edges", static_cast<std::uint64_t>(outcome.stats.relationship_edges));
  response.set("call_edges", static_cast<std::uint64_t>(outcome.stats.call_edges));
  response.set("alias_edges", static_cast<std::uint64_t>(outcome.stats.alias_edges));
  response.set("sources", static_cast<std::uint64_t>(outcome.stats.source_methods));
  response.set("sinks", static_cast<std::uint64_t>(outcome.stats.sink_methods));
  response.set("pruned", static_cast<std::uint64_t>(outcome.stats.pruned_call_sites));
  response.set("degraded", outcome.degradation.degraded());
  if (!outcome.cache_line.empty()) response.set("cache_line", outcome.cache_line);
  Json warnings = Json::array();
  for (const std::string& warning : outcome.warnings) warnings.push(Json::string(warning));
  response.set("warnings", std::move(warnings));
  return response;
}

Json Daemon::op_find(const Json& request) {
  pipeline::ExecContext ctx = context_from(request, default_workers_);
  Json error_out;
  pipeline::OpenOptions opts;
  opts.need_program = ctx.verify;  // the verify post-pass replays chains in the VM
  auto analysis = open_for(request, ctx, opts, error_out);
  if (!analysis.ok()) return error_out;
  pipeline::FindResult result = analysis.value()->find(ctx);
  const pipeline::Outcome& outcome = analysis.value()->outcome();

  // The exact bytes `tabby find` prints for the same request (the header's
  // search time is wall clock — CI filters it the same way it already does
  // for warm-vs-cold comparisons).
  std::vector<std::string> lines;
  std::string text = pipeline::Analysis::render(result, lines);

  Json response = Json::object();
  response.set("ok", true);
  response.set("fingerprint", hex64(analysis.value()->fingerprint()));
  response.set("chains", static_cast<std::uint64_t>(result.report.chains.size()));
  response.set("partial", static_cast<std::uint64_t>(result.report.partial_sinks.size()));
  response.set("degraded", result.degradation.degraded());
  response.set("text", std::move(text));
  if (result.verified) {
    response.set("verified", true);
    response.set("effective", static_cast<std::uint64_t>(result.verify.effective));
    response.set("refuted", static_cast<std::uint64_t>(result.verify.refuted));
    response.set("unconfirmed", static_cast<std::uint64_t>(result.verify.unconfirmed));
  }
  if (!outcome.cache_line.empty()) response.set("cache_line", outcome.cache_line);
  Json warnings = Json::array();
  for (const std::string& warning : outcome.warnings) warnings.push(Json::string(warning));
  response.set("warnings", std::move(warnings));
  Json degraded = Json::array();
  for (const std::string& line : lines) degraded.push(Json::string(line));
  response.set("degraded_lines", std::move(degraded));
  return response;
}

Json Daemon::op_query(const Json& request) {
  std::string query_text = request.str("text");
  if (query_text.empty()) {
    return error_response("usage", "request needs a non-empty \"text\" query string");
  }
  pipeline::ExecContext ctx = context_from(request, default_workers_);
  Json error_out;
  auto analysis = open_for(request, ctx, {}, error_out);
  if (!analysis.ok()) return error_out;
  auto result = analysis.value()->query(query_text, ctx);
  if (!result.ok()) return error_response("query", result.error().to_string());
  const pipeline::Outcome& outcome = analysis.value()->outcome();

  Json response = Json::object();
  response.set("ok", true);
  response.set("fingerprint", hex64(analysis.value()->fingerprint()));
  response.set("rows", static_cast<std::uint64_t>(result.value().rows.size()));
  response.set("text", analysis.value()->render(result.value()));
  if (request.flag("explain")) response.set("plan", result.value().plan);
  response.set("degraded", outcome.degradation.degraded());
  if (!outcome.cache_line.empty()) response.set("cache_line", outcome.cache_line);
  Json warnings = Json::array();
  for (const std::string& warning : outcome.warnings) warnings.push(Json::string(warning));
  response.set("warnings", std::move(warnings));
  return response;
}

Json Daemon::op_stats() const {
  pipeline::EngineStats stats = engine_->stats();
  Json response = Json::object();
  response.set("ok", true);
  response.set("requests", requests_.load(std::memory_order_relaxed));
  response.set("in_flight", static_cast<std::uint64_t>(in_flight_.load(std::memory_order_relaxed)));
  response.set("failpoint_failures", failpoint_failures_.load(std::memory_order_relaxed));
  response.set("opens", stats.opens);
  response.set("resident_hits", stats.resident_hits);
  response.set("evictions", stats.evictions);
  response.set("over_capacity", stats.over_capacity);
  // Always 0: the daemon does not audit its cache directory (`tabby cache
  // DIR` does). The field stays because perfbench/run.py reads it.
  response.set("audits", std::uint64_t{0});
  response.set("resident_bytes", static_cast<std::uint64_t>(stats.resident_bytes));
  response.set("budget_bytes", static_cast<std::uint64_t>(stats.budget_bytes));
  // Worker-pool churn (all zero until a --workers find runs): operators see
  // respawn/reassignment rates here without collecting trace files.
  response.set("dist_workers_spawned", stats.dist_workers_spawned);
  response.set("dist_respawns", stats.dist_respawns);
  response.set("dist_crashes", stats.dist_crashes);
  response.set("dist_retries", stats.dist_retries);
  response.set("dist_reassignments", stats.dist_reassignments);
  response.set("dist_heartbeat_misses", stats.dist_heartbeat_misses);
  Json resident = Json::array();
  for (const pipeline::EngineStats::Resident& entry : stats.entries) {
    Json row = Json::object();
    row.set("fingerprint", hex64(entry.fingerprint));
    row.set("bytes", static_cast<std::uint64_t>(entry.bytes));
    row.set("hits", entry.hits);
    resident.push(std::move(row));
  }
  response.set("resident", std::move(resident));
  return response;
}

Json Daemon::op_evict(const Json& request) {
  std::size_t evicted = 0;
  if (request.flag("all")) {
    evicted = engine_->evict_all();
  } else {
    std::optional<std::uint64_t> fingerprint = parse_hex64(request.str("fingerprint"));
    if (!fingerprint) {
      return error_response("usage", "evict needs \"all\":true or a 16-hex-digit \"fingerprint\"");
    }
    evicted = engine_->evict(*fingerprint) ? 1 : 0;
  }
  Json response = Json::object();
  response.set("ok", true);
  response.set("evicted", static_cast<std::uint64_t>(evicted));
  return response;
}

Json Daemon::op_shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  // Break the accept loop: shutting down a listening socket makes the
  // blocked accept() return immediately.
  ::shutdown(listen_fd_, SHUT_RDWR);
  Json response = Json::object();
  response.set("ok", true);
  response.set("stopping", true);
  return response;
}

}  // namespace

util::Status serve(const std::string& socket_path, ServeOptions options, std::ostream& out,
                   std::ostream& err) {
  Daemon daemon(std::move(options));
  return daemon.run(socket_path, out, err);
}

util::Result<std::string> client_request(const std::string& socket_path,
                                         const std::string& request_line, int connect_retries) {
  util::ignore_sigpipe();  // a daemon dying mid-request is an error, not SIGPIPE
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return util::Error{"socket path too long: " + socket_path};
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  int fd = -1;
  for (int attempt = 0;; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return util::Error{"cannot create socket: " + std::string(std::strerror(errno))};
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
    int saved = errno;
    ::close(fd);
    fd = -1;
    // The daemon may still be starting (no socket file yet, or bound but
    // not listening): retry on the races, fail fast on anything else.
    if ((saved == ENOENT || saved == ECONNREFUSED) && attempt < connect_retries) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    return util::Error{"cannot connect to " + socket_path + ": " + std::strerror(saved)};
  }

  std::string request = request_line;
  request += '\n';
  if (!write_all(fd, request)) {
    int saved = errno;
    ::close(fd);
    return util::Error{"cannot write request: " + std::string(std::strerror(saved))};
  }

  std::string buffer;
  char chunk[4096];
  while (buffer.find('\n') == std::string::npos) {
    ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      int saved = errno;
      ::close(fd);
      return util::Error{"cannot read response: " + std::string(std::strerror(saved))};
    }
    if (n == 0) {
      ::close(fd);
      return util::Error{"daemon closed the connection without a response"};
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return buffer.substr(0, buffer.find('\n'));
}

}  // namespace tabby::serve
