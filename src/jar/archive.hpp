// TJAR: the binary class-archive format standing in for Java Jar files.
// A TJAR holds archive metadata (name/version, like a Jar manifest) plus a
// set of JIR classes encoded against a shared string pool. The reader is
// fully bounds-checked: corrupt input yields an Error, never UB.
//
// Layout (all multi-byte integers little-endian, varints LEB128):
//   magic  u32  = 0x544A4152 ("TJAR")
//   version u16 = 1
//   name    string        archive (jar) name
//   verstr  string        archive version string
//   pool    uvarint n, then n strings
//   classes uvarint n, then n class records (see archive.cpp)
#pragma once

#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "jir/model.hpp"
#include "util/result.hpp"

namespace tabby::jar {

struct ArchiveMeta {
  std::string name;
  std::string version;
};

struct Archive {
  ArchiveMeta meta;
  std::vector<jir::ClassDecl> classes;

  std::size_t method_count() const {
    std::size_t n = 0;
    for (const auto& c : classes) n += c.methods.size();
    return n;
  }
};

inline constexpr std::uint32_t kTjarMagic = 0x544A4152;
inline constexpr std::uint16_t kTjarVersion = 1;

/// Serialize an archive to bytes.
std::vector<std::byte> write_archive(const Archive& archive);

/// Parse an archive from untrusted bytes.
util::Result<Archive> read_archive(std::span<const std::byte> data);

/// What a fail-soft decode lost. `error` is unset when the decode was
/// clean; when set, the archive in hand holds only the classes decoded
/// before the first corrupt record (possibly none — header or string-pool
/// corruption loses the whole archive, since every later record indexes
/// the pool).
struct DecodeDegradation {
  std::optional<util::Error> error;
  std::size_t classes_kept = 0;
  std::size_t classes_dropped = 0;  // declared in the header but unrecovered
  std::size_t bytes_skipped = 0;    // unread stream suffix after the fault
};

/// Fail-soft decode for quarantine mode: never fails, instead salvages the
/// longest clean prefix of classes and reports what was dropped. A clean
/// input decodes exactly like read_archive.
Archive read_archive_salvage(std::span<const std::byte> data, DecodeDegradation& degradation);

/// File convenience wrappers.
util::Status write_archive_file(const Archive& archive, const std::filesystem::path& path);
util::Result<Archive> read_archive_file(const std::filesystem::path& path);

/// Links archives into one closed-world Program, classpath style: when two
/// archives define the same class, the first archive on the path wins.
/// Returns the number of duplicate classes skipped via `duplicates_skipped`
/// when non-null.
jir::Program link(const std::vector<Archive>& classpath, std::size_t* duplicates_skipped = nullptr);

}  // namespace tabby::jar
