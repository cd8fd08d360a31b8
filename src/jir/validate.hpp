// Well-formedness checks for JIR programs: referenced labels exist, invoke
// argument counts match their MethodRef, variables are defined before use
// (flow-insensitively), and class references resolve or are declared phantom.
// Corpus generators run this in tests to keep the synthetic workloads honest.
#pragma once

#include <string>
#include <vector>

#include "jir/model.hpp"

namespace tabby::jir {

struct ValidationIssue {
  std::string class_name;
  std::string method_name;  // empty for class-level issues
  std::string message;

  std::string to_string() const {
    std::string where = class_name;
    if (!method_name.empty()) where += "#" + method_name;
    return where + ": " + message;
  }
};

/// Returns all issues found; empty means the program is well-formed.
/// `allow_phantom_classes` tolerates references to classes absent from the
/// Program (Soot's phantom-class mode; real jars always have these).
/// Issues are reported in class order.
std::vector<ValidationIssue> validate(const Program& program, bool allow_phantom_classes = true);

}  // namespace tabby::jir
