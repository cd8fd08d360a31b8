#include "jir/hierarchy.hpp"

#include <deque>
#include <unordered_set>

namespace tabby::jir {

std::vector<std::string> Hierarchy::direct_supertypes(std::string_view cls) const {
  const ClassDecl* decl = program_->find_class(cls);
  if (decl == nullptr) return {};
  std::vector<std::string> out;
  if (!decl->super.empty()) out.push_back(decl->super);
  out.insert(out.end(), decl->interfaces.begin(), decl->interfaces.end());
  return out;
}

std::vector<std::string> Hierarchy::all_supertypes(std::string_view cls) const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen{std::string(cls)};
  std::deque<std::string> work{std::string(cls)};
  while (!work.empty()) {
    std::string current = std::move(work.front());
    work.pop_front();
    for (std::string& super : direct_supertypes(current)) {
      if (seen.insert(super).second) {
        out.push_back(super);
        work.push_back(std::move(super));
      }
    }
  }
  return out;
}

bool Hierarchy::is_serializable(std::string_view cls) const {
  if (cls == kSerializableInterface || cls == kExternalizableInterface) return true;
  for (const std::string& s : all_supertypes(cls)) {
    if (s == kSerializableInterface || s == kExternalizableInterface) return true;
  }
  return false;
}

std::optional<MethodId> Hierarchy::dispatch(std::string_view receiver_class, std::string_view name,
                                            int nargs) const {
  // Walk the superclass chain first (instance method override semantics),
  // then fall back to full resolution including interfaces (default-method
  // style fallback keeps synthetic corpora simple).
  std::string current{receiver_class};
  while (!current.empty()) {
    if (auto id = program_->find_method(current, name, nargs)) {
      if (program_->method(*id).has_body() || program_->class_of(*id).is_interface) return id;
    }
    const ClassDecl* decl = program_->find_class(current);
    if (decl == nullptr) break;
    current = decl->super;
  }
  return program_->resolve_method(receiver_class, name, nargs);
}

}  // namespace tabby::jir
