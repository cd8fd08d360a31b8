#include "jir/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace tabby::jir {

const Method* ClassDecl::find_method(std::string_view method_name, int nargs) const {
  for (const Method& m : methods) {
    if (m.name == method_name && m.nargs() == nargs) return &m;
  }
  return nullptr;
}

const Field* ClassDecl::find_field(std::string_view field_name) const {
  for (const Field& f : fields) {
    if (f.name == field_name) return &f;
  }
  return nullptr;
}

std::uint32_t Program::add_class(ClassDecl cls) {
  auto [it, inserted] = by_name_.emplace(cls.name, static_cast<std::uint32_t>(classes_.size()));
  if (!inserted) throw std::invalid_argument("duplicate class: " + cls.name);
  classes_.push_back(std::move(cls));
  return it->second;
}

void Program::reserve(std::size_t classes) {
  classes_.reserve(classes);
  by_name_.reserve(classes);
}

std::size_t Program::method_count() const {
  std::size_t n = 0;
  for (const ClassDecl& c : classes_) n += c.methods.size();
  return n;
}

const ClassDecl* Program::find_class(std::string_view name) const {
  auto idx = class_index(name);
  if (!idx) return nullptr;
  return &classes_[*idx];
}

std::optional<std::uint32_t> Program::class_index(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

namespace {

/// Index of the method `cls` itself declares with this name and arity.
std::optional<std::uint32_t> declared_index(const ClassDecl& cls, std::string_view name,
                                            int nargs) {
  for (std::uint32_t mi = 0; mi < cls.methods.size(); ++mi) {
    const Method& m = cls.methods[mi];
    if (m.name == name && m.nargs() == nargs) return mi;
  }
  return std::nullopt;
}

}  // namespace

std::optional<MethodId> Program::find_method(std::string_view owner, std::string_view name,
                                             int nargs) const {
  auto ci = class_index(owner);
  if (!ci) return std::nullopt;
  auto mi = declared_index(classes_[*ci], name, nargs);
  if (!mi) return std::nullopt;
  return MethodId{*ci, *mi};
}

std::optional<MethodId> Program::resolve_method(std::string_view owner, std::string_view name,
                                                int nargs) const {
  // The owner is tried before any queue exists: most calls resolve there.
  auto ci = class_index(owner);
  if (!ci) return std::nullopt;
  if (auto mi = declared_index(classes_[*ci], name, nargs)) return MethodId{*ci, *mi};

  // Breadth-first over the supertype lattice: class chain first, then
  // interfaces, matching JVM resolution closely enough for dispatch. `work`
  // is the queue, and the names before `next` are the ones visited. Every
  // name but the owner is a view into a ClassDecl of this program.
  std::vector<std::string_view> work{owner};
  auto push_supertypes = [&work](const ClassDecl& decl) {
    if (!decl.super.empty()) work.push_back(decl.super);
    work.insert(work.end(), decl.interfaces.begin(), decl.interfaces.end());
  };
  push_supertypes(classes_[*ci]);
  for (std::size_t next = 1; next < work.size(); ++next) {
    const std::string_view current = work[next];
    const auto visited = work.begin() + static_cast<std::ptrdiff_t>(next);
    if (std::find(work.begin(), visited, current) != visited) continue;
    auto si = class_index(current);
    if (!si) continue;
    if (auto mi = declared_index(classes_[*si], name, nargs)) return MethodId{*si, *mi};
    push_supertypes(classes_[*si]);
  }
  return std::nullopt;
}

std::vector<MethodId> Program::all_methods() const {
  std::vector<MethodId> out;
  out.reserve(method_count());
  for (std::uint32_t ci = 0; ci < classes_.size(); ++ci) {
    for (std::uint32_t mi = 0; mi < classes_[ci].methods.size(); ++mi) {
      out.push_back(MethodId{ci, mi});
    }
  }
  return out;
}

}  // namespace tabby::jir
