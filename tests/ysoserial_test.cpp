// Parameterized end-to-end tests over the faithful ysoserial chain models:
// for every model, Tabby must report exactly the expected method-call stack,
// the shipped recipe must fire in the VM, and §V-C auto-verification must
// independently confirm the chain.
#include <gtest/gtest.h>

#include "corpus/jdk.hpp"
#include "corpus/ysoserial.hpp"
#include "cpg/builder.hpp"
#include "evalkit/evalkit.hpp"
#include "finder/finder.hpp"
#include "finder/payload.hpp"
#include "jir/validate.hpp"
#include "support/freeze.hpp"

namespace tabby::corpus {
namespace {

class YsoserialChain : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    model_ = build_ysoserial(GetParam());
    program_ = jar::link({jdk_base_archive(), model_.jar});
  }

  YsoserialModel model_;
  jir::Program program_;
};

TEST_P(YsoserialChain, ModelValidates) {
  auto issues = jir::validate(program_);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front().to_string());
}

TEST_P(YsoserialChain, TabbyReportsTheExpectedCallStack) {
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program_).db);
  finder::GadgetChainFinder finder(cpg);
  finder::FinderReport report = finder.find_all();

  bool found = false;
  for (const finder::GadgetChain& chain : report.chains) {
    if (chain.signatures == model_.expected_chain) found = true;
  }
  std::string all;
  for (const auto& chain : report.chains) all += chain.to_string() + "\n";
  EXPECT_TRUE(found) << "expected chain not reported. Reported:\n" << all;
}

TEST_P(YsoserialChain, RecipeFiresInTheVm) {
  evalkit::VerificationOutcome outcome =
      evalkit::verify_ground_truth(program_, {model_.truth}, {});
  EXPECT_TRUE(outcome.all_good())
      << (outcome.failures.empty() ? "count mismatch" : outcome.failures[0]);
}

TEST_P(YsoserialChain, AutoVerifyConfirmsTheChain) {
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program_).db);
  finder::GadgetChainFinder finder(cpg);
  for (const finder::GadgetChain& chain : finder.find_all().chains) {
    if (chain.signatures != model_.expected_chain) continue;
    finder::AutoVerifyResult verdict = finder::auto_verify(program_, finder::AliasView(cpg), chain);
    EXPECT_TRUE(verdict.effective)
        << chain.to_string() << "notes: "
        << (verdict.payload.notes.empty() ? "" : verdict.payload.notes[0])
        << " fault: " << verdict.execution.fault;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, YsoserialChain, ::testing::ValuesIn(ysoserial_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Ysoserial, UnknownNameThrows) {
  EXPECT_THROW(build_ysoserial("CommonsCollections99"), std::invalid_argument);
}

TEST(Ysoserial, Cc6AndCc5ShareTheFunctorCore) {
  YsoserialModel cc5 = build_ysoserial("CommonsCollections5");
  YsoserialModel cc6 = build_ysoserial("CommonsCollections6");
  auto has_class = [](const YsoserialModel& m, std::string_view name) {
    for (const auto& cls : m.jar.classes) {
      if (cls.name == name) return true;
    }
    return false;
  };
  for (const char* cls : {"org.apache.commons.collections.functors.InvokerTransformer",
                          "org.apache.commons.collections.functors.ChainedTransformer",
                          "org.apache.commons.collections.map.LazyMap"}) {
    EXPECT_TRUE(has_class(cc5, cls)) << cls;
    EXPECT_TRUE(has_class(cc6, cls)) << cls;
  }
}

TEST(Ysoserial, LazyMapCacheHitSuppressesTheChain) {
  // If cachedValue is pre-set, LazyMap.get never calls the factory: the
  // same structure, a different object graph, no attack. Demonstrates that
  // effectiveness is a property of the payload, not just the code.
  YsoserialModel cc6 = build_ysoserial("CommonsCollections6");
  jir::Program program = jar::link({jdk_base_archive(), cc6.jar});

  runtime::ObjectGraphSpec recipe = cc6.truth.recipe;
  recipe.objects.at("lazymap").fields["cachedValue"] = std::string("already-cached");

  jir::Hierarchy hierarchy(program);
  runtime::Interpreter vm(program, hierarchy);
  runtime::ExecutionResult result = vm.deserialize(runtime::instantiate(recipe));
  EXPECT_TRUE(result.completed) << result.fault;
  EXPECT_FALSE(result.attack_succeeded());
}

}  // namespace
}  // namespace tabby::corpus
