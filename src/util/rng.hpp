// Deterministic random number generation for corpus synthesis and property
// tests. All experiment corpora are seeded so every bench run regenerates the
// exact same workload; std::mt19937_64 would also work but SplitMix64 has a
// trivially portable state we can document in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tabby::util {

/// SplitMix64 PRNG. Deterministic across platforms and standard-library
/// versions, unlike distribution adaptors in <random>.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound) { return next_u64() % bound; }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli draw with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) { return next_below(den) < num; }

  /// Pick a uniformly random element. Precondition: !v.empty().
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[next_below(v.size())];
  }

  /// Lower-case identifier of the given length, first char alphabetic.
  std::string identifier(std::size_t length) {
    static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz";
    std::string out;
    out.reserve(length);
    for (std::size_t i = 0; i < length; ++i) out.push_back(kAlpha[next_below(26)]);
    return out;
  }

 private:
  std::uint64_t state_;
};

}  // namespace tabby::util
