// Cooperative time budgets and cancellation for the fail-soft pipeline.
// Nothing here preempts anything: a Deadline is a value that long-running
// loops poll at unit boundaries (per archive, per sink, every few traversal
// expansions), and a CancelToken is a flag another thread can raise. Work
// that observes an expired deadline finishes (or abandons) its current unit
// and reports itself `partial` instead of stalling the run — see
// docs/ROBUSTNESS.md for the plumbing map.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>

namespace tabby::util {

/// A raisable "stop soon" flag, shareable across threads. Raising it is a
/// request, not an interrupt: loops notice it at their next poll.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A wall-clock budget, optionally combined with a CancelToken. The default
/// constructed Deadline is unlimited and never expires, so plumbing it
/// through a stage costs nothing when no budget was requested. Copyable;
/// the token (when bound) is borrowed and must outlive every copy.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// A deadline `budget` from now. Non-positive budgets are already expired;
  /// a budget that does not fit before the clock's last tick saturates there,
  /// giving a deadline that never expires.
  static Deadline after(std::chrono::milliseconds budget) {
    const Clock::time_point now = Clock::now();
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::time_point::max() - now);
    Deadline d;
    d.at_ = budget < headroom ? now + budget : Clock::time_point::max();
    return d;
  }

  /// The unlimited deadline, spelled out.
  static Deadline never() { return Deadline{}; }

  /// Attaches a cancel token: the deadline also reads as expired once the
  /// token is raised. Returns *this for chaining.
  Deadline& bind(const CancelToken* token) {
    cancel_ = token;
    return *this;
  }

  bool unlimited() const { return !at_.has_value() && cancel_ == nullptr; }

  bool expired() const {
    if (cancel_ != nullptr && cancel_->cancelled()) return true;
    return at_.has_value() && Clock::now() >= *at_;
  }

  /// Time left, floored at zero; nullopt when no time bound is set.
  std::optional<std::chrono::milliseconds> remaining() const {
    if (!at_.has_value()) return std::nullopt;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(*at_ - Clock::now());
    return left.count() < 0 ? std::chrono::milliseconds{0} : left;
  }

  /// The tighter of two deadlines (used to fold --deadline with a
  /// --phase-budget). Keeps whichever cancel token is bound, preferring
  /// this one's.
  Deadline tightened(const Deadline& other) const {
    Deadline d = *this;
    if (!d.at_.has_value() || (other.at_.has_value() && *other.at_ < *d.at_)) d.at_ = other.at_;
    if (d.cancel_ == nullptr) d.cancel_ = other.cancel_;
    return d;
  }

 private:
  std::optional<Clock::time_point> at_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace tabby::util
