// Whole-file IO shared by the archive reader and the analysis cache. Kept
// in util so the `fs.read` failpoint covers every byte the pipeline ingests
// from disk through one seam (see docs/ROBUSTNESS.md).
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <vector>

#include "util/failpoint.hpp"
#include "util/result.hpp"

namespace tabby::util {

/// Reads a whole regular file. Errors name the path; a fired `fs.read`
/// failpoint reports like an IO error mid-read. Anything else that exists
/// (a directory, a FIFO, a device) is refused before it is opened: opening
/// a FIFO blocks, and a directory's stream reports no usable size.
inline Result<std::vector<std::byte>> read_file(const std::filesystem::path& path) {
  if (failpoint::poll("fs.read")) {
    return Error{"failpoint: injected read failure: " + path.string()};
  }
  std::error_code ec;
  std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (std::filesystem::exists(status) && !std::filesystem::is_regular_file(status)) {
    return Error{"not a regular file: " + path.string()};
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Error{"cannot open for read: " + path.string()};
  std::streamsize size = in.tellg();
  if (size < 0) return Error{"read failed: " + path.string()};
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return Error{"read failed: " + path.string()};
  return bytes;
}

}  // namespace tabby::util
