// Sink and source registries. The paper summarises 38 sink methods, each
// tagged with a Trigger_Condition (Table VII / Table VI): the positions
// (0 = receiver, i = parameter i) an attacker must control for the call to
// have its attack effect. Sources are the deserialization entry points a
// gadget chain must start from (§I: "readObject, readExternal ... usually
// overridden by developers of dependency libraries").
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tabby::cpg {

struct SinkSpec {
  std::string owner;            // declaring class
  std::string name;             // method name (any arity)
  std::string type;             // category: EXEC, CODE, JNDI, FILE, XXE, SSRF, JDV, SQL
  std::vector<int> trigger;     // Trigger_Condition positions
};

class SinkRegistry {
 public:
  /// The paper's 38 sink methods (Table VII plus the published full list's
  /// categories reconstructed from the text: lookup/getConnection/invoke are
  /// named in §IV-D3). One table per process, built on first use; the CPG
  /// builder and the VM both read it.
  static const SinkRegistry& table();

  /// Match by declaring class + method name (arity-insensitive, as the
  /// paper's table lists no arities).
  const SinkSpec* match(std::string_view owner, std::string_view name) const;

  const std::vector<SinkSpec>& all() const { return sinks_; }
  std::size_t size() const { return sinks_.size(); }

 private:
  void add(SinkSpec spec);

  std::vector<SinkSpec> sinks_;
  std::unordered_map<std::string, std::size_t> by_key_;
};

class SourceRegistry {
 public:
  /// readObject/readExternal/readResolve/validateObject/readObjectNoData/
  /// finalize overrides. One table per process, like SinkRegistry::table().
  static const SourceRegistry& table();

  /// True if a method with this name, declared with a body in a serializable
  /// class, is a deserialization source.
  bool is_source_name(std::string_view method_name) const;

  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

}  // namespace tabby::cpg
