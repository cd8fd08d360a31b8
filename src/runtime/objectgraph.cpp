#include "runtime/objectgraph.hpp"

namespace tabby::runtime {

namespace {

VmValue resolve(const FieldSpec& spec, const std::map<std::string, ObjectPtr>& instances) {
  struct Visitor {
    const std::map<std::string, ObjectPtr>& instances;
    VmValue operator()(std::monostate) { return VmValue::null(); }
    VmValue operator()(std::int64_t v) { return VmValue::of(v); }
    VmValue operator()(const std::string& v) { return VmValue::of(v); }
    VmValue operator()(const Ref& ref) {
      auto it = instances.find(ref.name);
      return it == instances.end() ? VmValue::null() : VmValue::of(it->second);
    }
  };
  return std::visit(Visitor{instances}, spec);
}

}  // namespace

ObjectPtr instantiate(const ObjectGraphSpec& spec) {
  if (spec.empty()) return nullptr;

  // The recipe's objects share one owner, which the returned root pointer
  // keeps alive. Dropping the last such pointer empties every object, so a
  // cyclic recipe is freed with it.
  struct Graph {
    std::map<std::string, ObjectPtr> instances;
    ~Graph() {
      for (auto& [name, object] : instances) object->clear();
    }
  };
  auto graph = std::make_shared<Graph>();
  std::map<std::string, ObjectPtr>& instances = graph->instances;

  // Two-phase build so cyclic references resolve.
  for (const auto& [name, object_spec] : spec.objects) {
    instances.emplace(name, std::make_shared<Object>(object_spec.class_name));
  }
  for (const auto& [name, object_spec] : spec.objects) {
    ObjectPtr& obj = instances.at(name);
    for (const auto& [field, value] : object_spec.fields) {
      obj->set_field(field, resolve(value, instances));
    }
    for (const FieldSpec& element : object_spec.elements) {
      obj->elements().push_back(resolve(element, instances));
    }
  }

  auto it = instances.find(spec.root);
  return it == instances.end() ? nullptr : ObjectPtr(graph, it->second.get());
}

}  // namespace tabby::runtime
