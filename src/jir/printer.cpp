#include "jir/printer.hpp"

namespace tabby::jir {

namespace {

std::string modifier_prefix(const Modifiers& mods) {
  std::string out;
  if (!mods.is_public) out += "private ";
  if (mods.is_static) out += "static ";
  if (mods.is_abstract) out += "abstract ";
  if (mods.is_final) out += "final ";
  if (mods.is_native) out += "native ";
  return out;
}

}  // namespace

std::string to_text(const Method& method) {
  std::string out = "  " + modifier_prefix(method.mods) + "method " + method.name + "(";
  for (std::size_t i = 0; i < method.params.size(); ++i) {
    if (i != 0) out += ", ";
    out += method.params[i].to_string();
  }
  out += ") : " + method.ret.to_string();
  if (!method.has_body()) {
    out += ";\n";
    return out;
  }
  out += " {\n";
  for (const Stmt& s : method.body) out += "    " + to_string(s) + ";\n";
  out += "  }\n";
  return out;
}

std::string to_text(const ClassDecl& cls) {
  std::string out = modifier_prefix(cls.mods);
  // `abstract` is implied for interfaces; drop it from the rendering.
  if (cls.is_interface) {
    out = "";
    if (!cls.mods.is_public) out += "private ";
    out += "interface " + cls.name;
    if (!cls.interfaces.empty()) {
      out += " extends ";
      for (std::size_t i = 0; i < cls.interfaces.size(); ++i) {
        if (i != 0) out += ", ";
        out += cls.interfaces[i];
      }
    }
  } else {
    out += "class " + cls.name;
    if (!cls.super.empty()) out += " extends " + cls.super;
    if (!cls.interfaces.empty()) {
      out += " implements ";
      for (std::size_t i = 0; i < cls.interfaces.size(); ++i) {
        if (i != 0) out += ", ";
        out += cls.interfaces[i];
      }
    }
  }
  out += " {\n";
  for (const Field& f : cls.fields) {
    out += "  " + modifier_prefix(f.mods) + "field " + f.type.to_string() + " " + f.name + ";\n";
  }
  for (const Method& m : cls.methods) out += to_text(m);
  out += "}\n";
  return out;
}

std::string to_text(const Program& program) {
  std::string out;
  for (const ClassDecl& cls : program.classes()) {
    out += to_text(cls);
    out += "\n";
  }
  return out;
}

}  // namespace tabby::jir
