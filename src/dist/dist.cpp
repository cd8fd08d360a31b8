#include "dist/dist.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/signals.hpp"

namespace tabby::dist {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Wire helpers. One JSON document per line, EINTR-safe, like serve.cpp's
// loops — but self-contained so tabby_dist does not pull in the daemon.
// ---------------------------------------------------------------------------

bool write_all_fd(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE and friends: peer is gone
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, const serve::Json& doc) {
  std::string line = doc.dump();
  line.push_back('\n');
  return write_all_fd(fd, line.data(), line.size());
}

/// Pops one complete line from `buffer` if present.
bool take_line(std::string& buffer, std::string& line) {
  std::size_t pos = buffer.find('\n');
  if (pos == std::string::npos) return false;
  line.assign(buffer, 0, pos);
  buffer.erase(0, pos + 1);
  return true;
}

// ---------------------------------------------------------------------------
// Worker process. Entered immediately after fork(); never returns — every
// exit is _exit() so no inherited destructor (thread pools, tracer buffers)
// runs in the child.
// ---------------------------------------------------------------------------

struct WorkerChannel {
  int fd = -1;
  std::mutex write_mutex;           // heartbeats interleave with results
  std::atomic<bool> busy{false};    // heartbeat only while executing a shard
  std::atomic<bool> silent{false};  // chaos hang: stop heartbeating too
};

void heartbeat_loop(WorkerChannel* channel, std::chrono::milliseconds interval) {
  serve::Json beat = serve::Json::object();
  beat.set("hb", true);
  const std::string line = beat.dump() + "\n";
  for (;;) {
    std::this_thread::sleep_for(interval);
    if (!channel->busy.load(std::memory_order_relaxed)) continue;
    if (channel->silent.load(std::memory_order_relaxed)) continue;
    std::lock_guard<std::mutex> lock(channel->write_mutex);
    if (!write_all_fd(channel->fd, line.data(), line.size())) _exit(0);
  }
}

[[noreturn]] void worker_main(int fd, const ShardFn& fn, const DistOptions& options) {
  // The tracer's worker threads did not survive the fork; recording into
  // their buffers would corrupt shared state. disable() is one relaxed
  // atomic store, safe even if another parent thread held tracer locks at
  // fork time.
  obs::Tracer::instance().disable();
  util::ignore_sigpipe();

  static WorkerChannel channel;
  channel.fd = fd;
  std::thread(heartbeat_loop, &channel, options.heartbeat_interval).detach();

  std::string buffer;
  std::string line;
  char chunk[4096];
  for (;;) {
    while (!take_line(buffer, line)) {
      ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        _exit(0);
      }
      if (n == 0) _exit(0);  // coordinator closed the pair: orderly shutdown
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    auto doc = serve::Json::parse(line);
    if (!doc || doc->str("op") != "shard") _exit(0);
    auto shard = static_cast<std::size_t>(doc->num("shard"));
    std::string chaos = doc->str("chaos");
    if (chaos == "crash") _exit(134);  // simulated wild-pointer death, no reply
    channel.busy.store(true, std::memory_order_relaxed);
    if (chaos == "hang") {
      // Simulated runaway: alive but silent. The coordinator's heartbeat
      // detector must SIGKILL us; sleeping forever is the point.
      channel.silent.store(true, std::memory_order_relaxed);
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    }
    serve::Json reply = serve::Json::object();
    reply.set("shard", static_cast<std::uint64_t>(shard));
    try {
      std::string payload = fn(shard);
      reply.set("ok", true);
      reply.set("payload", std::move(payload));
    } catch (const std::exception& e) {
      reply.set("ok", false);
      reply.set("error", std::string(e.what()));
    } catch (...) {
      reply.set("ok", false);
      reply.set("error", "unknown shard exception");
    }
    channel.busy.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(channel.write_mutex);
    if (!write_line(fd, reply)) _exit(0);
  }
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

struct Worker {
  pid_t pid = -1;
  int fd = -1;
  bool alive = false;
  bool busy = false;
  std::size_t shard = 0;    // in-flight shard (busy only)
  int shard_attempts = 0;   // failures the in-flight shard had before this try
  Clock::time_point last_activity{};
  Clock::time_point dispatched_at{};
  std::string inbuf;
};

struct PendingShard {
  std::size_t shard = 0;
  int attempts = 0;    // failed tries so far
  int last_slot = -1;  // worker slot of the last failed try
  Clock::time_point not_before{};
};

class Coordinator {
 public:
  Coordinator(std::size_t shard_count, const ShardFn& fn, const DistOptions& options)
      : fn_(fn), options_(options), pool_size_(std::min<std::size_t>(
            static_cast<std::size_t>(std::max(options.workers, 1)), shard_count)) {
    report_.shards.resize(shard_count);
    Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < shard_count; ++i) pending_.push_back({i, 0, -1, now});
  }

  DistReport run() {
    obs::Span span("dist.run");
    span.attr("shards", static_cast<std::uint64_t>(report_.shards.size()));
    span.attr("workers", static_cast<std::uint64_t>(pool_size_));

    workers_.resize(pool_size_);
    {
      TABBY_SPAN("dist.spawn");
      for (std::size_t slot = 0; slot < pool_size_; ++slot) {
        if (spawn(slot)) ++report_.stats.workers_spawned;
      }
    }

    while (resolved_ < report_.shards.size()) {
      if (alive_count() == 0 && !revive_pool()) {
        fail_everything_outstanding("no workers could be spawned");
        break;
      }
      dispatch_ready();
      wait_and_read();
      check_hangs();
    }

    shutdown_pool();
    emit_counters();
    return std::move(report_);
  }

 private:
  std::size_t alive_count() const {
    std::size_t n = 0;
    for (const Worker& w : workers_) n += w.alive ? 1 : 0;
    return n;
  }

  std::size_t unresolved() const { return report_.shards.size() - resolved_; }

  bool spawn(std::size_t slot) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      return false;
    }
    if (pid == 0) {
      // Child: drop every coordinator-side descriptor (ours and those of
      // sibling workers forked earlier) so EOF detection works, then serve.
      ::close(sv[0]);
      for (const Worker& w : workers_) {
        if (w.fd >= 0) ::close(w.fd);
      }
      worker_main(sv[1], fn_, options_);  // never returns
    }
    ::close(sv[1]);
    Worker& w = workers_[slot];
    w = Worker{};
    w.pid = pid;
    w.fd = sv[0];
    w.alive = true;
    w.last_activity = Clock::now();
    return true;
  }

  /// All workers are dead mid-run; try to restore the pool. False when not
  /// a single replacement could be forked (the caller fails the run).
  bool revive_pool() {
    bool any = false;
    std::size_t want = std::min(pool_size_, unresolved());
    for (std::size_t slot = 0; slot < pool_size_ && alive_count() < want; ++slot) {
      if (!workers_[slot].alive && spawn(slot)) {
        ++report_.stats.respawns;
        any = true;
      }
    }
    return any;
  }

  /// One try of `shard` just failed (`attempts` = total failures so far).
  /// Requeues with backoff, or records the structured failure once the
  /// budget is exhausted.
  void shard_failed(std::size_t shard, int attempts, int slot, const std::string& why) {
    if (attempts >= options_.max_attempts) {
      ShardResult& r = report_.shards[shard];
      r.ok = false;
      r.error = why + " (" + std::to_string(attempts) + " attempts)";
      r.attempts = attempts;
      ++resolved_;
      return;
    }
    ++report_.stats.retries;
    pending_.push_back({shard, attempts, slot, Clock::now() + retry_backoff(options_, shard, attempts)});
  }

  /// Worker in `slot` is gone (crashed, killed, or its pipe broke). Reaps
  /// the corpse, fails/requeues its in-flight shard, and respawns a
  /// replacement while there is still work for it.
  void handle_death(std::size_t slot, const std::string& why) {
    Worker& w = workers_[slot];
    if (!w.alive) return;
    ++report_.stats.crashes;
    ::close(w.fd);
    w.fd = -1;
    w.alive = false;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    if (w.busy) {
      w.busy = false;
      shard_failed(w.shard, w.shard_attempts + 1, static_cast<int>(slot), why);
    }
    if (resolved_ < report_.shards.size() && alive_count() < std::min(pool_size_, unresolved())) {
      if (spawn(slot)) ++report_.stats.respawns;
    }
  }

  void fail_everything_outstanding(const std::string& why) {
    for (Worker& w : workers_) {
      if (w.alive && w.busy) {
        w.busy = false;
        shard_failed(w.shard, options_.max_attempts, -1, why);
      }
    }
    while (!pending_.empty()) {
      PendingShard p = pending_.front();
      pending_.pop_front();
      shard_failed(p.shard, options_.max_attempts, -1, why);
    }
  }

  /// Hands ready pending shards to idle workers. Chaos is decided HERE, in
  /// the coordinator, so `site*N` firing budgets count in one process; the
  /// instruction rides along in the dispatch document.
  void dispatch_ready() {
    Clock::time_point now = Clock::now();
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      Worker& w = workers_[slot];
      if (!w.alive || w.busy) continue;
      auto it = std::find_if(pending_.begin(), pending_.end(),
                             [&](const PendingShard& p) { return p.not_before <= now; });
      if (it == pending_.end()) continue;
      PendingShard p = *it;
      pending_.erase(it);
      if (util::failpoint::poll("dist.dispatch")) {
        // The dispatch itself failed (queue full, serialization error):
        // costs the shard an attempt but the worker is fine.
        shard_failed(p.shard, p.attempts + 1, static_cast<int>(slot), "dispatch failed (failpoint)");
        continue;
      }
      if (p.attempts > 0 && p.last_slot >= 0 && p.last_slot != static_cast<int>(slot)) {
        ++report_.stats.reassignments;
      }
      serve::Json msg = serve::Json::object();
      msg.set("op", "shard");
      msg.set("shard", static_cast<std::uint64_t>(p.shard));
      if (util::failpoint::poll(options_.crash_failpoint)) {
        msg.set("chaos", "crash");
      } else if (util::failpoint::poll(options_.hang_failpoint)) {
        msg.set("chaos", "hang");
      }
      w.busy = true;
      w.shard = p.shard;
      w.shard_attempts = p.attempts;
      w.dispatched_at = now;
      w.last_activity = now;
      if (!write_line(w.fd, msg)) handle_death(slot, "worker pipe broke at dispatch");
    }
  }

  /// Sleeps until something can happen (heartbeat, result, EOF, a backoff
  /// expiring, a hang deadline) and drains every readable worker pipe.
  void wait_and_read() {
    Clock::time_point now = Clock::now();
    auto timeout = std::chrono::milliseconds(50);
    for (const Worker& w : workers_) {
      if (!w.alive || !w.busy) continue;
      if (options_.hang_timeout.count() > 0) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            w.last_activity + options_.hang_timeout - now);
        timeout = std::min(timeout, std::max(left, std::chrono::milliseconds(1)));
      }
      if (options_.shard_timeout.count() > 0) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            w.dispatched_at + options_.shard_timeout - now);
        timeout = std::min(timeout, std::max(left, std::chrono::milliseconds(1)));
      }
    }
    for (const PendingShard& p : pending_) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(p.not_before - now);
      timeout = std::min(timeout, std::max(left, std::chrono::milliseconds(0)));
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> slots;
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      if (!workers_[slot].alive) continue;
      fds.push_back({workers_[slot].fd, POLLIN, 0});
      slots.push_back(slot);
    }
    if (fds.empty()) return;
    int rc = ::poll(fds.data(), fds.size(), static_cast<int>(timeout.count()));
    if (rc <= 0) return;  // timeout or EINTR: the outer loop re-checks state

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      read_worker(slots[i]);
    }
  }

  void read_worker(std::size_t slot) {
    Worker& w = workers_[slot];
    char chunk[4096];
    ssize_t n;
    do {
      n = ::read(w.fd, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n > 0) w.inbuf.append(chunk, static_cast<std::size_t>(n));

    std::string line;
    while (w.alive && take_line(w.inbuf, line)) {
      auto doc = serve::Json::parse(line);
      if (!doc) continue;
      if (doc->flag("hb")) {
        w.last_activity = Clock::now();
        continue;
      }
      auto shard = static_cast<std::size_t>(doc->num("shard"));
      if (!w.busy || shard != w.shard) continue;  // stale reply from a pre-kill race
      w.busy = false;
      w.last_activity = Clock::now();
      if (doc->flag("ok")) {
        ShardResult& r = report_.shards[shard];
        r.ok = true;
        r.payload = doc->str("payload");
        r.attempts = w.shard_attempts + 1;
        ++resolved_;
      } else {
        // The ShardFn threw inside the worker: structured, retriable, and
        // the worker itself lives on.
        shard_failed(shard, w.shard_attempts + 1, static_cast<int>(slot),
                     "shard error: " + doc->str("error", "unknown"));
      }
    }
    if (n == 0) handle_death(slot, "worker crashed");
  }

  void check_hangs() {
    Clock::time_point now = Clock::now();
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      Worker& w = workers_[slot];
      if (!w.alive || !w.busy) continue;
      bool silent = options_.hang_timeout.count() > 0 &&
                    now - w.last_activity > options_.hang_timeout;
      bool overdue = options_.shard_timeout.count() > 0 &&
                     now - w.dispatched_at > options_.shard_timeout;
      if (!silent && !overdue) continue;
      ++report_.stats.heartbeat_misses;
      ::kill(w.pid, SIGKILL);
      handle_death(slot, silent ? "worker hung (heartbeats stopped)" : "shard deadline exceeded");
    }
  }

  void shutdown_pool() {
    TABBY_SPAN("dist.reap");
    serve::Json bye = serve::Json::object();
    bye.set("op", "exit");
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      write_line(w.fd, bye);  // best effort; closing the fd is the real signal
      ::close(w.fd);
      w.fd = -1;
    }
    for (Worker& w : workers_) {
      if (!w.alive) continue;
      int status = 0;
      // Workers _exit on EOF almost instantly, so poll with a doubling
      // backoff (50 us up to 5 ms, 500 ms in all); SIGKILL is the backstop
      // for one wedged mid-write.
      std::chrono::microseconds backoff{50}, waited{0};
      while (true) {
        pid_t got = ::waitpid(w.pid, &status, WNOHANG);
        if (got == w.pid || got < 0) {
          w.alive = false;
          break;
        }
        if (waited >= std::chrono::milliseconds(500)) break;
        std::this_thread::sleep_for(backoff);
        waited += backoff;
        backoff = std::min(backoff * 2, std::chrono::microseconds{5000});
      }
      if (w.alive) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
        w.alive = false;
      }
    }
  }

  void emit_counters() {
    const DistStats& s = report_.stats;
    if (s.workers_spawned) obs::counter_add("dist.workers_spawned", s.workers_spawned);
    if (s.respawns) obs::counter_add("dist.respawns", s.respawns);
    if (s.crashes) obs::counter_add("dist.crashes", s.crashes);
    if (s.retries) obs::counter_add("dist.retries", s.retries);
    if (s.reassignments) obs::counter_add("dist.reassignments", s.reassignments);
    if (s.heartbeat_misses) obs::counter_add("dist.heartbeat_misses", s.heartbeat_misses);
  }

  const ShardFn& fn_;
  const DistOptions& options_;
  std::size_t pool_size_;
  std::vector<Worker> workers_;
  std::deque<PendingShard> pending_;
  DistReport report_;
  std::size_t resolved_ = 0;
};

}  // namespace

std::chrono::microseconds retry_backoff(const DistOptions& options, std::size_t shard,
                                        int attempt) {
  int exponent = std::clamp(attempt - 1, 0, 20);
  auto base = static_cast<std::uint64_t>(std::max<std::int64_t>(options.backoff_base.count(), 1));
  std::uint64_t delay = base << exponent;
  util::Rng rng(options.backoff_seed ^ (static_cast<std::uint64_t>(shard) * 0x9E3779B97F4A7C15ULL) ^
                (static_cast<std::uint64_t>(static_cast<unsigned>(attempt)) << 32));
  return std::chrono::microseconds(delay + rng.next_below(delay / 2 + 1));
}

DistReport run_shards(std::size_t shard_count, const ShardFn& fn, const DistOptions& options) {
  DistReport report;
  report.shards.resize(shard_count);
  if (shard_count == 0) return report;
  if (options.workers <= 0) {
    // Degenerate in-process mode, used by tests; production callers branch
    // to the historical serial/threaded path before reaching here.
    for (std::size_t i = 0; i < shard_count; ++i) {
      ShardResult& r = report.shards[i];
      r.attempts = 1;
      try {
        r.payload = fn(i);
        r.ok = true;
      } catch (const std::exception& e) {
        r.error = e.what();
      } catch (...) {
        r.error = "unknown shard exception";
      }
    }
    return report;
  }
  util::ignore_sigpipe();
  Coordinator coordinator(shard_count, fn, options);
  return coordinator.run();
}

}  // namespace tabby::dist
