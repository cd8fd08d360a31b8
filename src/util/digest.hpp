// Content digests for the incremental analysis cache and the frozen frame.
// Two digests, each for one kind of input:
//
//   - `content_digest` is for bulk bytes: archive contents (the cache keys)
//     and frozen frames (the trailing checksum). Four 64-bit lanes run over
//     32-byte stripes of 8-byte words, so megabytes digest at memory speed.
//   - `Fnv1a` / `fnv1a` (64-bit FNV-1a) is for structured fingerprints fed
//     field by field: options, the snapshot-key fold, verdict and chain keys,
//     the small cache entries, and golden digests.
//
// Every step of both (FNV-1a: xor a byte, multiply by an odd prime; the lane
// round: add an odd multiple of the word, rotate, multiply by an odd prime;
// the final xorshift-multiply avalanche) is a bijection of the 64-bit state
// and injective in its input. So any single-byte change to an input of the
// same length is *guaranteed* to change the digest. That makes both sound
// keys for "did this archive change", which only ever compares contents of
// controlled provenance; neither is a cryptographic hash, and neither offers
// collision resistance against an adversary crafting inputs.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace tabby::util {

// content_digest loads its words in host order; the digests (and the frames
// they sign) are defined little-endian.
static_assert(std::endian::native == std::endian::little,
              "content_digest reads little-endian words in place");

/// Streaming FNV-1a 64-bit hasher. Feed bytes/values in a fixed order; the
/// digest is a pure function of the fed byte sequence (job counts, thread
/// interleavings and wall clocks can never influence it).
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void update_byte(std::uint8_t b) {
    state_ ^= b;
    state_ *= kPrime;
  }
  void update(std::span<const std::byte> data) {
    for (std::byte b : data) update_byte(static_cast<std::uint8_t>(b));
  }
  void update(std::string_view s) {
    for (char c : s) update_byte(static_cast<std::uint8_t>(c));
  }
  /// Length-prefixed string: distinguishes ("ab","c") from ("a","bc").
  void update_sized(std::string_view s) {
    update_u64(s.size());
    update(s);
  }
  void update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) update_byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void update_bool(bool b) { update_byte(b ? 1 : 0); }

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

inline std::uint64_t fnv1a(std::span<const std::byte> data) {
  Fnv1a h;
  h.update(data);
  return h.digest();
}

inline std::uint64_t fnv1a(std::string_view s) {
  Fnv1a h;
  h.update(s);
  return h.digest();
}

/// The bulk-bytes digest (see the header). Each lane folds every fourth
/// 8-byte word with XXH64's round; the lanes are then folded in order with
/// the same round, followed by the length, the trailing `size % 32` bytes
/// as FNV-1a steps, and an xorshift-multiply avalanche. (XXH64 itself is
/// not used: its lane merge is not injective per lane, so the single-byte
/// guarantee would not be provable.)
inline std::uint64_t content_digest(std::span<const std::byte> data) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  auto round = [](std::uint64_t acc, std::uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  };
  auto word_at = [](const std::byte* p) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    return word;
  };
  std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
  const std::byte* p = data.data();
  const std::byte* const stripes_end = p + (data.size() & ~std::size_t{31});
  for (; p != stripes_end; p += 32) {
    v1 = round(v1, word_at(p));
    v2 = round(v2, word_at(p + 8));
    v3 = round(v3, word_at(p + 16));
    v4 = round(v4, word_at(p + 24));
  }
  std::uint64_t h = round(round(round(round(Fnv1a::kOffsetBasis, v1), v2), v3), v4);
  h = round(h, data.size());
  for (const std::byte* const end = data.data() + data.size(); p != end; ++p) {
    h ^= static_cast<std::uint8_t>(*p);
    h *= Fnv1a::kPrime;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

/// Fixed-width lowercase hex rendering, the cache's file-name alphabet.
inline std::string digest_hex(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

}  // namespace tabby::util
