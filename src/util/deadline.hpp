// Cooperative time budgets for the fail-soft pipeline. Nothing here preempts
// anything: a Deadline is a value that long-running loops poll at unit
// boundaries (per archive, per sink, every few traversal expansions). Work
// that observes an expired deadline finishes (or abandons) its current unit
// and reports itself `partial` instead of stalling the run — see
// docs/ROBUSTNESS.md for the plumbing map.
#pragma once

#include <chrono>
#include <optional>

namespace tabby::util {

/// A wall-clock budget. The default constructed Deadline is unlimited and
/// never expires, so plumbing it through a stage costs nothing when no
/// budget was requested. Copyable.
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

  bool unlimited() const { return !at_.has_value(); }

  bool expired() const { return at_.has_value() && Clock::now() >= *at_; }

  /// Time left, floored at zero; nullopt when no time bound is set.
  std::optional<std::chrono::milliseconds> remaining() const {
    if (!at_.has_value()) return std::nullopt;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(*at_ - Clock::now());
    return left.count() < 0 ? std::chrono::milliseconds{0} : left;
  }

  /// The tighter of two deadlines (used to fold --deadline with a
  /// --phase-budget).
  Deadline tightened(const Deadline& other) const {
    Deadline d = *this;
    if (!d.at_.has_value() || (other.at_.has_value() && *other.at_ < *d.at_)) d.at_ = other.at_;
    return d;
  }

 private:
  std::optional<Clock::time_point> at_;
};

}  // namespace tabby::util
