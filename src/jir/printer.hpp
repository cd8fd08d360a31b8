// Renders a Program / ClassDecl in the textual JIR surface syntax. The
// output round-trips through jir::parse_program, which the test suite checks
// property-style over generated corpora.
#pragma once

#include <string>

#include "jir/model.hpp"

namespace tabby::jir {

std::string to_text(const Method& method);
std::string to_text(const ClassDecl& cls);
std::string to_text(const Program& program);

}  // namespace tabby::jir
