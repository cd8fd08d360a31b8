#include "corpus/stress.hpp"

#include <functional>
#include <string>
#include <vector>

#include "jir/builder.hpp"

namespace tabby::corpus {

// The frontier arithmetic (docs/ROBUSTNESS.md "Memory governance"): an
// explicit-stack DFS holds, at its deepest point, every unexplored sibling
// of every ancestor on the current path — Σ fan-out along one path frames.
// The chain edge is always created first, so the stable DFS dives straight
// down the hops and finds the one real chain while the per-level fans pile
// up behind it; an exhaustive finish must then drain hops × (aliases +
// call_fans) dead-end frames, each a fixed-size record plus its trigger
// condition. Interfaces make the fan nearly free to *build* (one abstract
// declaration shared by every hop, ALIAS edges carry no properties) while
// costing the *search* a frame per branch per level — the asymmetry the
// fixture exists to exercise.
jar::Archive fanout_stress_archive(const FanoutStressSpec& spec) {
  jir::ProgramBuilder pb;
  pb.with_core_classes();

  const std::string pkg = "stress.fanout";

  // One complete chain: entry -> hops -> sink, with per-hop alias and call
  // fans that never share a class with any other chain (dual_sink plants a
  // second instance under different prefixes, so the two searches stay
  // independent and each prunes against its own frontier slice).
  auto plant = [&](const std::string& entry_cls, const std::string& hop_prefix,
                   const std::string& iface_prefix, const std::string& fan_prefix,
                   const std::function<void(jir::ClassBuilder&)>& fire_sink) {
    auto hop_name = [&](int j) { return pkg + "." + hop_prefix + std::to_string(j); };
    auto iface_name = [&](int i) { return pkg + "." + iface_prefix + std::to_string(i); };
    auto fan_name = [&](int i) { return pkg + "." + fan_prefix + std::to_string(i); };

    // Entry first: its CALL edge into the first hop's step is created before
    // any fan edge, keeping the chain the first-explored branch per level.
    {
      jir::ClassBuilder entry = pb.add_class(pkg + "." + entry_cls);
      entry.serializable();
      entry.field("h0", hop_name(0));
      entry.method("readObject")
          .param("java.io.ObjectInputStream")
          .returns("void")
          .field_load("h", "@this", "h0")
          .invoke_virtual("", "h", hop_name(0), "step", {})
          .ret();
    }

    for (int j = 0; j < spec.hops; ++j) {
      jir::ClassBuilder hop = pb.add_class(hop_name(j));
      for (int i = 0; i < spec.aliases; ++i) hop.implements(iface_name(i));
      if (j + 1 < spec.hops) {
        hop.field("next", hop_name(j + 1));
        hop.method("step")
            .returns("void")
            .field_load("n", "@this", "next")
            .invoke_virtual("", "n", hop_name(j + 1), "step", {})
            .ret();
      } else {
        fire_sink(hop);
      }
    }

    for (int i = 0; i < spec.aliases; ++i) {
      pb.add_interface(iface_name(i)).method("step").returns("void").set_abstract();
    }

    for (int i = 0; i < spec.call_fans; ++i) {
      jir::ClassBuilder fan = pb.add_class(fan_name(i));
      jir::MethodBuilder poke = fan.method("poke").returns("void");
      for (int j = 0; j < spec.hops; ++j) {
        std::string field = "h" + std::to_string(j);
        fan.field(field, hop_name(j));
        std::string local = "v" + std::to_string(j);
        poke.field_load(local, "@this", field).invoke_virtual("", local, hop_name(j), "step", {});
      }
      poke.ret();
    }
  };

  // The last hop fires the Table VII Exec sink; cmd rides @this, so the
  // Trigger_Condition {1} maps back to {0} along every chain edge.
  plant("Entry", "Hop", "Step", "Fan", [](jir::ClassBuilder& hop) {
    hop.field("cmd", "java.lang.String");
    hop.method("step")
        .returns("void")
        .field_load("c", "@this", "cmd")
        .invoke_static("rt", "java.lang.Runtime", "getRuntime", {})
        .invoke_virtual("", "rt", "java.lang.Runtime", "exec", {"c"})
        .ret();
  });

  if (spec.dual_sink) {
    // Mirror chain into the ClassLoader sink (same String-param shape as
    // exec, so the TC mapping is identical) under disjoint class names.
    plant("Entry2", "LHop", "LStep", "LFan", [](jir::ClassBuilder& hop) {
      hop.field("loader", "java.lang.ClassLoader");
      hop.field("cmd", "java.lang.String");
      hop.method("step")
          .returns("void")
          .field_load("l", "@this", "loader")
          .field_load("c", "@this", "cmd")
          .invoke_virtual("", "l", "java.lang.ClassLoader", "loadClass", {"c"})
          .ret();
    });
  }

  jar::Archive archive;
  archive.meta.name = "fanout-stress";
  archive.meta.version = "sim";
  archive.classes = pb.build().classes();
  return archive;
}

}  // namespace tabby::corpus
