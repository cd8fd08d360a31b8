// Tests for automatic payload synthesis and chain auto-verification (§V-C
// future work, implemented here): reported chains must be confirmed or
// refuted by the VM without consulting ground truth — and that verdict must
// agree with the planted ground truth across the entire corpus.
#include <gtest/gtest.h>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "evalkit/evalkit.hpp"
#include "finder/finder.hpp"
#include "finder/payload.hpp"
#include "fixtures.hpp"
#include "support/freeze.hpp"

namespace tabby::finder {
namespace {

TEST(Payload, SynthesizesUrldnsRecipe) {
  jir::Program program = testing::urldns_program();
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  GadgetChainFinder finder(cpg);
  auto chains = finder.find_all().chains;
  ASSERT_EQ(chains.size(), 1u);

  PayloadResult payload = synthesize_payload(program, AliasView(cpg), chains[0]);
  EXPECT_TRUE(payload.complete) << (payload.notes.empty() ? "" : payload.notes[0]);
  // Root is a HashMap whose key field holds a URL.
  ASSERT_FALSE(payload.recipe.root.empty());
  const auto& root = payload.recipe.objects.at(payload.recipe.root);
  EXPECT_EQ(root.class_name, "java.util.HashMap");
  ASSERT_TRUE(root.fields.count("key"));
  const auto* ref = std::get_if<runtime::Ref>(&root.fields.at("key"));
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(payload.recipe.objects.at(ref->name).class_name, "java.net.URL");
}

TEST(Payload, AutoVerifyConfirmsUrldns) {
  jir::Program program = testing::urldns_program();
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  GadgetChainFinder finder(cpg);
  auto chains = finder.find_all().chains;
  ASSERT_EQ(chains.size(), 1u);
  AutoVerifyResult verdict = auto_verify(program, AliasView(cpg), chains[0]);
  EXPECT_TRUE(verdict.effective);
  EXPECT_TRUE(verdict.execution.attack_succeeded("java.net.InetAddress#getByName/1"));
}

TEST(Payload, AutoVerifyConfirmsEvilObject) {
  jir::Program program = testing::evil_object_program();
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  GadgetChainFinder finder(cpg);
  for (const GadgetChain& chain : finder.find_all().chains) {
    if (chain.source_signature() != "demo.EvilObjectA#readObject/1") continue;
    AutoVerifyResult verdict = auto_verify(program, AliasView(cpg), chain);
    EXPECT_TRUE(verdict.effective) << chain.to_string();
  }
}

TEST(Payload, RefutesGuardedChain) {
  // Build a component known to contain guarded fakes and check each Tabby
  // chain matching a guarded source is refuted.
  corpus::Component component = corpus::build_component("BeanShell1");
  jir::Program program = component.link();
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  GadgetChainFinder finder(cpg);
  int refuted = 0;
  for (const GadgetChain& chain : finder.find_all().chains) {
    if (chain.source_signature().find("GuardedGadget") == std::string::npos) continue;
    AutoVerifyResult verdict = auto_verify(program, AliasView(cpg), chain);
    EXPECT_FALSE(verdict.effective) << chain.to_string();
    ++refuted;
  }
  EXPECT_EQ(refuted, 2);  // BeanShell1 plants two guarded fakes
}

/// The flagship property: across every Table IX component, the VM verdict on
/// each Tabby-reported chain must agree with the planted ground truth.
class AutoVerifyAgreement : public ::testing::TestWithParam<std::string> {};

TEST_P(AutoVerifyAgreement, MatchesGroundTruth) {
  corpus::Component component = corpus::build_component(GetParam());
  jir::Program program = component.link();
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  GadgetChainFinder finder(cpg);

  for (const GadgetChain& chain : finder.find_all().chains) {
    bool in_truth = false;
    for (const auto& truth : component.truths) {
      if (truth.source_signature == chain.source_signature() &&
          truth.sink_signature == chain.sink_signature()) {
        in_truth = true;
        break;
      }
    }
    AutoVerifyResult verdict = auto_verify(program, AliasView(cpg), chain);
    EXPECT_EQ(verdict.effective, in_truth)
        << GetParam() << ": auto-verify disagrees with ground truth for\n"
        << chain.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(AllComponents, AutoVerifyAgreement,
                         ::testing::ValuesIn(corpus::component_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(Payload, IncompleteChainsAreFlagged) {
  jir::Program program = testing::urldns_program();
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  GadgetChain bogus;
  bogus.signatures = {"ghost.Class#readObject/1"};
  PayloadResult payload = synthesize_payload(program, AliasView(cpg), bogus);
  EXPECT_FALSE(payload.complete);
  EXPECT_FALSE(payload.notes.empty());
}

}  // namespace
}  // namespace tabby::finder
