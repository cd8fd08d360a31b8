// `tabby serve` — the resident multi-tenant analysis daemon (docs/SERVING.md).
//
// A long-lived process wraps one pipeline::Engine and answers requests over a
// unix-domain stream socket. The wire protocol is newline-delimited JSON: one
// request object per line in, one response object per line out, per
// connection, with concurrent connections handled on their own threads (the
// heavy lifting inside a request runs on the engine's shared worker pool).
//
// Operations: open / find / query / stats / evict / shutdown. Responses carry
// "ok":true plus op-specific fields, or "ok":false with a "kind" from the
// daemon error taxonomy (usage, over-capacity, not-found, query, internal)
// and a human-readable "error". Opens run with admission control: a tenant
// whose classpath cannot fit in the engine's --mem-budget — even after
// evicting idle LRU analyses — gets a structured over-capacity error, never
// an OOM. Evictions increment serve.evictions (visible in the stats op).
//
// The `tabby client` subcommand drives this protocol from the command line;
// find/query responses embed the exact text the one-shot CLI would print, so
// tests and CI can assert byte-equivalence.
#pragma once

#include <iosfwd>
#include <string>

#include "pipeline/engine.hpp"
#include "util/result.hpp"

namespace tabby::serve {

struct ServeOptions {
  /// Engine configuration (jobs, cache_dir, memory budget, max_resident,
  /// with_jdk). The daemon chains its eviction counter
  /// onto any on_evict already set here.
  pipeline::EngineOptions engine;
  /// Default finder worker processes for requests that do not send their own
  /// "workers" field (`tabby serve --workers N`). 0 = in-process finds. With
  /// workers, each tenant's search runs crash-isolated in forked workers, so
  /// a wild pointer in one find degrades that request instead of killing the
  /// resident daemon (docs/ROBUSTNESS.md, "Process isolation & supervision").
  int default_workers = 0;
};

/// Runs the daemon on `socket_path` until a shutdown request (or a fatal
/// socket error). Prints one "serving on SOCKET" line to `out` once the
/// socket is accepting, diagnostics to `err`. Blocks the calling thread.
util::Status serve(const std::string& socket_path, ServeOptions options, std::ostream& out,
                   std::ostream& err);

/// One client round trip: connect to `socket_path` (retrying while the
/// daemon is still starting), send `request_line` + '\n', return the
/// daemon's response line (without the trailing newline).
util::Result<std::string> client_request(const std::string& socket_path,
                                         const std::string& request_line,
                                         int connect_retries = 50);

}  // namespace tabby::serve
