// Unit tests for the util module: strings, Result, Rng determinism, table
// rendering, the bounds-checked byte cursor and the --mem-budget size
// syntax.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace tabby::util {
namespace {

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleToken) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "."), "x.y.z");
  EXPECT_EQ(join({}, "."), "");
}

TEST(Strings, PrefixSuffixContains) {
  EXPECT_TRUE(starts_with("java.lang.String", "java."));
  EXPECT_FALSE(starts_with("j", "java."));
  EXPECT_TRUE(ends_with("Foo.class", ".class"));
  EXPECT_FALSE(ends_with("s", ".class"));
  EXPECT_TRUE(contains("abcdef", "cde"));
  EXPECT_FALSE(contains("abcdef", "xyz"));
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SimpleAndPackageNames) {
  EXPECT_EQ(simple_name("java.lang.String"), "String");
  EXPECT_EQ(simple_name("NoPackage"), "NoPackage");
  EXPECT_EQ(package_of("java.lang.String"), "java.lang");
  EXPECT_EQ(package_of("NoPackage"), "");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.5, 1), "1.5");
  EXPECT_EQ(format_double(31.6219, 1), "31.6");
  EXPECT_EQ(format_double(0.0, 2), "0.00");
}

TEST(Result, ValueAndError) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.value_or(-1), 42);

  Result<int> bad(Error{"boom", 7});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.error().to_string(), "boom (at 7)");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Result, StatusOkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status failed = Error{"nope"};
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().message, "nope");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, IdentifierShape) {
  Rng rng(9);
  std::string id = rng.identifier(8);
  EXPECT_EQ(id.size(), 8u);
  for (char c : id) EXPECT_TRUE(c >= 'a' && c <= 'z');
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "count"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::string out = t.render();
  EXPECT_NE(out.find("| name  | count |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("| only |"), std::string::npos);
}

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.uvarint(300);
  w.svarint(-123456);
  w.bytes("hello");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0xBEEF);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.uvarint().value(), 300u);
  EXPECT_EQ(r.svarint().value(), -123456);
  EXPECT_EQ(r.bytes().value(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, VarintBoundaries) {
  for (std::uint64_t v : std::vector<std::uint64_t>{0, 127, 128, 16383, 16384, UINT64_MAX}) {
    ByteWriter w;
    w.uvarint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.uvarint().value(), v);
  }
  for (std::int64_t v : std::vector<std::int64_t>{0, -1, 1, INT64_MIN, INT64_MAX}) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.svarint().value(), v);
  }
}

TEST(Bytes, TruncatedInputFails) {
  ByteWriter w;
  w.u32(12345678);
  auto data = w.data();
  std::span<const std::byte> truncated(data.data(), 2);
  ByteReader r(truncated);
  EXPECT_FALSE(r.u32().ok());
}

TEST(Bytes, OversizedStringLengthRejected) {
  ByteWriter w;
  w.uvarint(1'000'000);  // declared length far beyond actual bytes
  w.u8('x');
  ByteReader r(w.data());
  EXPECT_FALSE(r.bytes().ok());
}

TEST(Bytes, OversizedCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.uvarint(UINT64_MAX / 2);
  ByteReader r(w.data());
  EXPECT_FALSE(r.count("thing").ok());
}

TEST(ParseInt, AcceptsPlainBase10) {
  EXPECT_EQ(parse_int("0").value(), 0);
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int("2147483647").value(), 2147483647);
}

TEST(ParseInt, RejectsPartialParses) {
  // The whole token must be digits: trailing garbage is an error, not a
  // silent truncation to the leading digits.
  EXPECT_FALSE(parse_int("12abc").ok());
  EXPECT_FALSE(parse_int("1.5").ok());
  EXPECT_FALSE(parse_int("1 ").ok());
  EXPECT_FALSE(parse_int(" 1").ok());
}

TEST(ParseInt, RejectsNonNumbersAndExoticForms) {
  EXPECT_FALSE(parse_int("").ok());
  EXPECT_FALSE(parse_int("abc").ok());
  EXPECT_FALSE(parse_int("+5").ok());
  EXPECT_FALSE(parse_int("0x1f").ok());
  EXPECT_FALSE(parse_int("--3").ok());
}

TEST(ParseInt, RejectsOutOfRange) {
  auto r = parse_int("99999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("out of range"), std::string::npos);
}

TEST(ParseInt, ErrorNamesTheOffendingToken) {
  auto r = parse_int("12abc");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("12abc"), std::string::npos);
}

TEST(ParseSizeBytes, PlainAndSuffixed) {
  EXPECT_EQ(parse_size_bytes("65536").value(), 65536u);
  EXPECT_EQ(parse_size_bytes("512k").value(), 512u * 1024);
  EXPECT_EQ(parse_size_bytes("512K").value(), 512u * 1024);
  EXPECT_EQ(parse_size_bytes("64m").value(), 64u * 1024 * 1024);
  EXPECT_EQ(parse_size_bytes("2g").value(), 2ull * 1024 * 1024 * 1024);
  EXPECT_EQ(parse_size_bytes("0").value(), 0u);
}

TEST(ParseSizeBytes, RejectsMalformed) {
  EXPECT_FALSE(parse_size_bytes("").ok());
  EXPECT_FALSE(parse_size_bytes("64mb").ok());
  EXPECT_FALSE(parse_size_bytes("m").ok());
  EXPECT_FALSE(parse_size_bytes("-1").ok());
  EXPECT_FALSE(parse_size_bytes("1.5g").ok());
  EXPECT_FALSE(parse_size_bytes("12 k").ok());
  // 2^64 overflows even before a suffix; 2^54 * 1g overflows via the scale.
  EXPECT_FALSE(parse_size_bytes("18446744073709551616").ok());
  EXPECT_FALSE(parse_size_bytes("18014398509481984g").ok());
}

}  // namespace
}  // namespace tabby::util
