// Shared helper for tests that compare `tabby find` output byte for byte.
#pragma once

#include <sstream>
#include <string>

namespace tabby::testsupport {

/// Drops the wall-clock header line ("N gadget chain(s), T s search") —
/// the only non-deterministic bytes in `tabby find` output.
inline std::string strip_timing(const std::string& text) {
  std::istringstream lines(text);
  std::string line, kept;
  while (std::getline(lines, line)) {
    if (line.find(" s search") != std::string::npos) continue;
    kept += line;
    kept += '\n';
  }
  return kept;
}

}  // namespace tabby::testsupport
