// Tests for the controllability analysis (§III-C): the weight/origin domain,
// Formula 2 (calc), every Table IV transfer rule, and — most importantly —
// the paper's own worked example from Figure 5, asserted end to end
// (PP = [∞,∞,2] and the exact Action of `exchange`).
#include <gtest/gtest.h>

#include "analysis/controllability.hpp"
#include "analysis/domain.hpp"
#include "jir/builder.hpp"
#include "jir/hierarchy.hpp"
#include "jir/parser.hpp"

namespace tabby::analysis {
namespace {

using jir::CmpOp;

struct Analyzed {
  jir::Program program;
  std::unique_ptr<jir::Hierarchy> hierarchy;
  std::unique_ptr<ControllabilityAnalysis> analysis;

  FieldId field(std::string_view name) const { return analysis->field_names().find(name); }
};

Analyzed analyze(jir::ProgramBuilder& pb, AnalysisOptions options = {}) {
  Analyzed a;
  a.program = pb.build();
  a.hierarchy = std::make_unique<jir::Hierarchy>(a.program);
  a.analysis = std::make_unique<ControllabilityAnalysis>(a.program, *a.hierarchy, options);
  return a;
}

const MethodSummary& summary_of(Analyzed& a, std::string_view cls, std::string_view name,
                                int nargs) {
  auto id = a.program.find_method(cls, name, nargs);
  EXPECT_TRUE(id.has_value()) << cls << "#" << name;
  return a.analysis->summary(*id);
}

// --- Domain -----------------------------------------------------------------

/// Field ids for the domain tests.
const FieldNames& test_fields() {
  static const FieldNames names({"a", "b", "f", "field", "x"});
  return names;
}
FieldId field(std::string_view name) { return test_fields().find(name); }

TEST(Domain, WeightsOfOrigins) {
  EXPECT_EQ(Origin::unknown().weight(), kUncontrollable);
  EXPECT_EQ(Origin::this_origin().weight(), 0);
  EXPECT_EQ(Origin::this_origin(field("f")).weight(), 0);
  EXPECT_EQ(Origin::param_origin(3).weight(), 3);
  EXPECT_EQ(Origin::param_origin(3, field("f")).weight(), 3);
  EXPECT_TRUE(is_controllable(0));
  EXPECT_FALSE(is_controllable(kUncontrollable));
}

TEST(Domain, OriginRendersPaperForms) {
  const FieldNames& names = test_fields();
  EXPECT_EQ(Origin::unknown().to_string(names), "null");
  EXPECT_EQ(Origin::this_origin().to_string(names), "this");
  EXPECT_EQ(Origin::this_origin(field("x")).to_string(names), "this.x");
  EXPECT_EQ(Origin::param_origin(2).to_string(names), "init-param-2");
  EXPECT_EQ(Origin::param_origin(12, field("field")).to_string(names), "init-param-12.field");
}

TEST(Domain, FieldIdsFollowByteOrder) {
  const FieldNames names({"z", "a", "[]", "Z", "a"});
  // The element pseudo-field renders "[]" but is not the field named "[]".
  EXPECT_NE(names.find("[]"), names.element());
  EXPECT_EQ(names.name(names.element()), "[]");
  EXPECT_EQ(names.name(names.find("[]")), "[]");
  EXPECT_LT(names.find("Z"), names.element());
  EXPECT_LT(names.element(), names.find("[]"));
  EXPECT_LT(names.find("[]"), names.find("a"));
  EXPECT_LT(names.find("a"), names.find("z"));
  EXPECT_EQ(names.find("absent"), kNoField);
  EXPECT_EQ(FieldNames().find("[]"), kNoField);
}

TEST(Domain, MemberCollapsesAtDepthOne) {
  Origin base = Origin::param_origin(1);
  Origin f = base.member(field("a"));
  EXPECT_EQ(f.field, field("a"));
  EXPECT_EQ(f.member(field("b")).field, field("a"));  // depth-1 collapse keeps first field
  EXPECT_EQ(Origin::unknown().member(field("a")), Origin::unknown());
}

TEST(Domain, MergePicksMoreControllable) {
  Origin p2 = Origin::param_origin(2);
  Origin t = Origin::this_origin();
  Origin u = Origin::unknown();
  EXPECT_EQ(merge(p2, t), t);   // 0 beats 2
  EXPECT_EQ(merge(u, p2), p2);  // 2 beats ∞
  EXPECT_EQ(merge(p2, u), p2);
}

TEST(Domain, ActionRendersInKeyByteOrder) {
  Action a;
  a.set(this_key(), Origin::unknown());
  a.set(kReturnKey, Origin::param_origin(2));
  a.set(final_param_key(2), Origin::param_origin(2));
  a.set(final_param_key(10), Origin::param_origin(10));
  a.set(final_param_key(1, field("b")), Origin::param_origin(2, field("x")));
  a.set(final_param_key(1), Origin::param_origin(1));
  EXPECT_EQ(a.to_strings(test_fields()),
            (std::vector<std::string>{"final-param-1=init-param-1",
                                      "final-param-1.b=init-param-2.x",
                                      "final-param-10=init-param-10",
                                      "final-param-2=init-param-2", "return=init-param-2",
                                      "this=null"}));
  EXPECT_EQ(a.to_string(test_fields()),
            "{final-param-1: init-param-1, final-param-1.b: init-param-2.x, "
            "final-param-10: init-param-10, final-param-2: init-param-2, "
            "return: init-param-2, this: null}");
  EXPECT_EQ(a.at(final_param_key(10)), Origin::param_origin(10));
  EXPECT_THROW(a.at(this_key(field("b"))), std::out_of_range);
}

TEST(Domain, CalcFollowsFigure5) {
  // Action of exchange (Fig. 5(b)).
  Action action;
  action.set(final_param_key(1), Origin::param_origin(1));
  action.set(final_param_key(1, field("b")), Origin::param_origin(2));
  action.set(final_param_key(2), Origin::unknown());
  action.set(kReturnKey, Origin::param_origin(2));
  action.set(this_key(), Origin::unknown());

  // in (Fig. 5(d)) is the call site's PP: the static receiver, then a and b.
  PollutedPosition pp{kUncontrollable, kUncontrollable, 2};

  auto out = [&](const ActionKey& key) { return calc(action.at(key), pp); };
  EXPECT_EQ(out(this_key()), kUncontrollable);
  EXPECT_EQ(out(final_param_key(1)), kUncontrollable);
  EXPECT_EQ(out(final_param_key(1, field("b"))), 2);
  EXPECT_EQ(out(final_param_key(2)), kUncontrollable);
  EXPECT_EQ(out(kReturnKey), 2);

  // An input the call site does not pass weighs ∞; a field weighs its base.
  EXPECT_EQ(calc(Origin::param_origin(3), pp), kUncontrollable);
  EXPECT_EQ(calc(Origin::param_origin(0), pp), kUncontrollable);
  EXPECT_EQ(calc(Origin::this_origin(field("f")), PollutedPosition{0, 1}), 0);
  EXPECT_EQ(calc(Origin::param_origin(1, field("f")), PollutedPosition{0, 1}), 1);
}

TEST(Domain, PpHelpers) {
  PollutedPosition pp{kUncontrollable, kUncontrollable, 2};
  EXPECT_EQ(pp_to_string(pp), "[∞,∞,2]");
  EXPECT_FALSE(all_uncontrollable(pp));
  EXPECT_TRUE(all_uncontrollable({kUncontrollable, kUncontrollable}));
  EXPECT_FALSE(all_uncontrollable({0}));
}

// --- Figure 5: the paper's worked example ------------------------------------

Analyzed figure5() {
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto a_cls = pb.add_class("demo.A");
  a_cls.field("b", "demo.B");
  auto b_cls = pb.add_class("demo.B");
  // public static B exchange(A a, B b) { a.b = b; b = new B(); return a.b; }
  b_cls.method("exchange")
      .set_static()
      .param("demo.A")
      .param("demo.B")
      .returns("demo.B")
      .field_store("@p1", "b", "@p2")
      .new_object("@p2", "demo.B")
      .field_load("r", "@p1", "b")
      .ret("r");
  // public A example(A a, B b) { A a1 = new A(); A a2 = a; a = a1;
  //                              B b1 = B.exchange(a, b); return a2; }
  auto holder = pb.add_class("demo.Holder");
  holder.method("example")
      .param("demo.A")
      .param("demo.B")
      .returns("demo.A")
      .new_object("a1", "demo.A")
      .assign("a2", "@p1")
      .assign("@p1", "a1")
      .invoke_static("b1", "demo.B", "exchange", {"@p1", "@p2"})
      .ret("a2");
  return analyze(pb);
}

TEST(Figure5, ExchangeActionMatchesPaper) {
  Analyzed a = figure5();
  const Action& action = summary_of(a, "demo.B", "exchange", 2).action;
  EXPECT_EQ(action.at(final_param_key(1)), Origin::param_origin(1));
  EXPECT_EQ(action.at(final_param_key(1, a.field("b"))), Origin::param_origin(2));
  EXPECT_EQ(action.at(final_param_key(2)), Origin::unknown());
  EXPECT_EQ(action.at(kReturnKey), Origin::param_origin(2));
  EXPECT_EQ(action.at(this_key()), Origin::unknown());
}

TEST(Figure5, ExamplePollutedPositionIsInfInf2) {
  Analyzed a = figure5();
  const MethodSummary& s = summary_of(a, "demo.Holder", "example", 2);
  ASSERT_EQ(s.call_sites.size(), 1u);
  const CallSite& site = s.call_sites[0];
  EXPECT_EQ(site.declared->name, "exchange");
  ASSERT_EQ(site.pp.size(), 3u);
  EXPECT_EQ(site.pp[0], kUncontrollable);  // static receiver
  EXPECT_EQ(site.pp[1], kUncontrollable);  // a rebound to new A()
  EXPECT_EQ(site.pp[2], 2);                // b is init-param-2
}

TEST(Figure5, ExampleReturnIsControllableParam1) {
  Analyzed a = figure5();
  const Action& action = summary_of(a, "demo.Holder", "example", 2).action;
  // "the example method will return the a2 variable (the content of the
  // original method parameter a), making it a controllable variable."
  EXPECT_EQ(action.at(kReturnKey), Origin::param_origin(1));
  // After correct(): the caller's b became uncontrollable, and a.b points to
  // init-param-2.
  EXPECT_EQ(action.at(final_param_key(2)), Origin::unknown());
  EXPECT_EQ(action.at(final_param_key(1)), Origin::unknown());
  EXPECT_EQ(action.at(final_param_key(1, a.field("b"))), Origin::param_origin(2));
}

// --- Table IV transfer rules, one test per row --------------------------------

TEST(TableIV, OriginalAssignmentPropagates) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m").param("t.X").returns("t.X").assign("a", "@p1").ret("a");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::param_origin(1));
}

TEST(TableIV, NewDestroysControllability) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m").param("t.X").returns("t.X").assign("a", "@p1").new_object("a", "t.X").ret("a");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::unknown());
}

TEST(TableIV, ClassPropertyAssignmentAndLoad) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.field("f", "t.X");
  cls.method("m")
      .param("t.X")
      .returns("t.X")
      .field_store("@this", "f", "@p1")
      .field_load("r", "@this", "f")
      .ret("r");
  Analyzed a = analyze(pb);
  const Action& action = summary_of(a, "t.C", "m", 1).action;
  EXPECT_EQ(action.at(kReturnKey), Origin::param_origin(1));
  EXPECT_EQ(action.at(this_key(a.field("f"))), Origin::param_origin(1));
}

TEST(TableIV, UnassignedThisFieldIsCallerControllable) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.field("f", "t.X");
  cls.method("m").returns("t.X").field_load("r", "@this", "f").ret("r");
  Analyzed a = analyze(pb);
  // this.f without assignment: weight 0 ("comes from the caller class or
  // class property").
  EXPECT_EQ(summary_of(a, "t.C", "m", 0).action.at(kReturnKey).weight(), 0);
}

TEST(TableIV, StaticPropertyAssignmentAndLoad) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.field("sf", "t.X", /*is_static=*/true);
  cls.method("m")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .static_store("t.C", "sf", "@p1")
      .static_load("r", "t.C", "sf")
      .ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::param_origin(1));
}

TEST(TableIV, UnassignedStaticIsUncontrollable) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m").set_static().returns("t.X").static_load("r", "t.Other", "sf").ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 0).action.at(kReturnKey), Origin::unknown());
}

TEST(TableIV, ArrayStoreAndLoad) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .set_static()
      .param("t.X[]")
      .param("t.X")
      .returns("t.X")
      .const_int("i", 0)
      .array_store("@p1", "i", "@p2")
      .array_load("r", "@p1", "i")
      .ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 2).action.at(kReturnKey), Origin::param_origin(2));
}

TEST(TableIV, ArrayLoadFromParamIsControllable) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .set_static()
      .param("t.X[]")
      .returns("t.X")
      .const_int("i", 0)
      .array_load("r", "@p1", "i")
      .ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey).weight(), 1);
}

TEST(TableIV, CastPreservesControllability) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m").set_static().param("t.X").returns("t.Y").cast("r", "t.Y", "@p1").ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::param_origin(1));
}

TEST(TableIV, ConstantsAreUncontrollable) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m").set_static().returns("java.lang.String").const_str("r", "cmd").ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 0).action.at(kReturnKey), Origin::unknown());
}

TEST(TableIV, MethodCallAssignmentUsesCalleeReturn) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("id").set_static().param("t.X").returns("t.X").ret("@p1");
  cls.method("m")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .invoke_static("r", "t.C", "id", {"@p1"})
      .ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey).weight(), 1);
}

TEST(TableIV, CalleeCanDestroyArgumentControllability) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  // wipe(x) rebinds its param; the paper's correct() propagates that wipe
  // into the caller frame (Fig. 5(d): caller's b becomes ∞).
  cls.method("wipe").set_static().param("t.X").returns("void").new_object("@p1", "t.X").ret();
  cls.method("m")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .invoke_static("", "t.C", "wipe", {"@p1"})
      .ret("@p1");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::unknown());
}

// Variables whose names share a prefix ("a" and "ab") keep separate field
// entries: a rebind or a copy of "a" touches "a.*" and never "ab.*".
TEST(TableIV, RebindDropsOnlyTheVariablesOwnFields) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .param("t.X")
      .param("t.X")
      .returns("void")
      .assign("a", "@p1")
      .assign("ab", "@p1")
      .field_store("a", "f", "@p2")
      .field_store("ab", "f", "@p2")
      .new_object("a", "t.X")
      .field_load("r1", "a", "f")
      .field_load("r2", "ab", "f")
      .field_store("@this", "g1", "r1")
      .field_store("@this", "g2", "r2")
      .ret();
  Analyzed a = analyze(pb);
  const Action& action = summary_of(a, "t.C", "m", 2).action;
  EXPECT_FALSE(is_controllable(action.at(this_key(a.field("g1"))).weight()));  // a.f dropped
  EXPECT_EQ(action.at(this_key(a.field("g2"))), Origin::param_origin(2));     // ab.f kept
}

TEST(TableIV, CopyTakesOnlyTheSourcesOwnFields) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .param("t.X")
      .param("t.X")
      .returns("void")
      .assign("a", "@p1")
      .assign("ab", "@p1")
      .field_store("a", "f", "@p2")
      .field_store("ab", "g", "@p2")
      .assign("x", "a")
      .field_load("r1", "x", "f")
      .field_load("r2", "x", "g")
      .field_store("@this", "g1", "r1")
      .field_store("@this", "g2", "r2")
      .ret();
  Analyzed a = analyze(pb);
  const Action& action = summary_of(a, "t.C", "m", 2).action;
  EXPECT_EQ(action.at(this_key(a.field("g1"))), Origin::param_origin(2));  // a.f copied
  EXPECT_EQ(action.at(this_key(a.field("g2"))),
            Origin::param_origin(1, a.field("g")));  // ab.g not copied
}

// --- Control flow ------------------------------------------------------------

TEST(ControlFlow, JoinMergesOptimistically) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  // r = param on one branch, constant on the other: the merge keeps the
  // controllable origin (the paper's false-positive source).
  cls.method("m")
      .set_static()
      .param("t.X")
      .param("int")
      .returns("t.X")
      .const_int("zero", 0)
      .const_null("r")
      .if_cmp("@p2", CmpOp::Eq, "zero", "takeparam")
      .jump("end")
      .mark("takeparam")
      .assign("r", "@p1")
      .mark("end")
      .ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 2).action.at(kReturnKey), Origin::param_origin(1));
}

TEST(ControlFlow, LoopConverges) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .assign("r", "@p1")
      .mark("head")
      .const_int("c", 1)
      .const_int("d", 2)
      .if_cmp("c", CmpOp::Eq, "d", "out")
      .assign("r", "r")
      .jump("head")
      .mark("out")
      .ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::param_origin(1));
}

TEST(ControlFlow, MultipleReturnsMerge) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .const_int("c", 1)
      .const_int("d", 2)
      .const_null("k")
      .if_cmp("c", CmpOp::Eq, "d", "other")
      .ret("@p1")
      .mark("other")
      .ret("k");
  Analyzed a = analyze(pb);
  // Most controllable across returns wins.
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::param_origin(1));
}

// --- Interprocedural machinery ------------------------------------------------

TEST(Interprocedural, RecursionTerminatesWithIdentityBottom) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("rec")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .invoke_static("r", "t.C", "rec", {"@p1"})
      .ret("r");
  Analyzed a = analyze(pb);
  const Action& action = summary_of(a, "t.C", "rec", 1).action;
  (void)action;  // termination is the primary assertion
  SUCCEED();
}

TEST(Interprocedural, MutualRecursionTerminates) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("ping").set_static().param("t.X").returns("t.X")
      .invoke_static("r", "t.C", "pong", {"@p1"}).ret("r");
  cls.method("pong").set_static().param("t.X").returns("t.X")
      .invoke_static("r", "t.C", "ping", {"@p1"}).ret("r");
  Analyzed a = analyze(pb);
  summary_of(a, "t.C", "ping", 1);
  SUCCEED();
}

TEST(Interprocedural, SummariesAreCached) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("leaf").set_static().param("t.X").returns("t.X").ret("@p1");
  cls.method("c1").set_static().param("t.X").returns("t.X")
      .invoke_static("r", "t.C", "leaf", {"@p1"}).ret("r");
  cls.method("c2").set_static().param("t.X").returns("t.X")
      .invoke_static("r", "t.C", "leaf", {"@p1"}).ret("r");
  Analyzed a = analyze(pb);
  summary_of(a, "t.C", "c1", 1);
  summary_of(a, "t.C", "c2", 1);
  EXPECT_EQ(a.analysis->analyzed_count(), 3u);  // c1, leaf, c2: leaf's summary is reused
}

TEST(Interprocedural, UnknownCalleeReturnUncontrollableByDefault) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m").set_static().param("t.X").returns("t.X")
      .invoke_static("r", "ghost.Lib", "mystery", {"@p1"}).ret("r");
  Analyzed a = analyze(pb);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey), Origin::unknown());
}

TEST(Interprocedural, UnknownCalleePermissiveOption) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m").set_static().param("t.X").returns("t.X")
      .invoke_static("r", "ghost.Lib", "mystery", {"@p1"}).ret("r");
  AnalysisOptions options;
  options.unknown_return_controllable = true;
  Analyzed a = analyze(pb, options);
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey).weight(), 1);
}

TEST(Interprocedural, IntraproceduralModeIgnoresCalleeBodies) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("wipe").set_static().param("t.X").returns("void").new_object("@p1", "t.X").ret();
  cls.method("m").set_static().param("t.X").returns("t.X")
      .invoke_static("", "t.C", "wipe", {"@p1"}).ret("@p1");
  AnalysisOptions options;
  options.interprocedural = false;
  Analyzed a = analyze(pb, options);
  // Without interprocedural analysis the wipe is invisible: param stays
  // controllable — the imprecision the paper pins on prior tools.
  EXPECT_EQ(summary_of(a, "t.C", "m", 1).action.at(kReturnKey).weight(), 1);
}

TEST(Interprocedural, PpRecordedPerCallSite) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.field("f", "t.X");
  cls.method("sinkish").param("t.X").returns("void").ret();
  cls.method("m")
      .param("t.X")
      .returns("void")
      .field_load("own", "@this", "f")
      .const_null("k")
      .invoke_virtual("", "@this", "t.C", "sinkish", {"@p1"})
      .invoke_virtual("", "@this", "t.C", "sinkish", {"own"})
      .invoke_virtual("", "@this", "t.C", "sinkish", {"k"})
      .ret();
  Analyzed a = analyze(pb);
  const auto& sites = summary_of(a, "t.C", "m", 1).call_sites;
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].pp, (PollutedPosition{0, 1}));
  EXPECT_EQ(sites[1].pp, (PollutedPosition{0, 0}));
  EXPECT_EQ(sites[2].pp, (PollutedPosition{0, kUncontrollable}));
}

/// The Action of `cls#name/nargs`, demanded serially and computed by a
/// precompute() wave schedule, which must agree.
std::string action_both_ways(jir::ProgramBuilder& pb, AnalysisOptions options,
                             std::string_view cls, std::string_view name, int nargs) {
  Analyzed serial = analyze(pb, options);
  std::string demanded =
      summary_of(serial, cls, name, nargs).action.to_string(serial.analysis->field_names());
  ControllabilityAnalysis waves(serial.program, *serial.hierarchy, options);
  waves.precompute(nullptr);
  auto id = serial.program.find_method(cls, name, nargs);
  EXPECT_EQ(waves.cached_summary(*id).action.to_string(waves.field_names()), demanded);
  return demanded;
}

TEST(Interprocedural, SelfRecursiveActionIsStable) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("rec")
      .set_static()
      .param("t.X")
      .param("t.X")
      .returns("t.X")
      .field_store("@p1", "f", "@p2")
      .invoke_static("r", "t.C", "rec", {"@p2", "@p1"})
      .ret("r");
  EXPECT_EQ(action_both_ways(pb, {}, "t.C", "rec", 2),
            "{final-param-1: init-param-1, final-param-1.f: init-param-2, "
            "final-param-2: init-param-2, return: null, this: null}");
}

TEST(Interprocedural, BodylessCalleeActionIsStable) {
  for (bool permissive : {false, true}) {
    SCOPED_TRACE(permissive ? "permissive" : "conservative");
    jir::ProgramBuilder pb;
    auto iface = pb.add_interface("t.I");
    iface.method("get").param("t.X").returns("t.X").set_abstract();
    auto cls = pb.add_class("t.C");
    cls.method("m")
        .param("t.I")
        .param("t.X")
        .returns("t.X")
        .invoke_interface("r", "@p1", "t.I", "get", {"@p2"})
        .field_store("@this", "g", "r")
        .invoke_static("s", "ghost.Lib", "make", {"@p2", "@this"})
        .ret("s");
    AnalysisOptions options;
    options.unknown_return_controllable = permissive;
    EXPECT_EQ(action_both_ways(pb, options, "t.C", "m", 2),
              permissive ? "{final-param-1: init-param-1, final-param-2: init-param-2, "
                           "return: this, this: this, this.g: init-param-1}"
                         : "{final-param-1: init-param-1, final-param-2: init-param-2, "
                           "return: null, this: this, this.g: null}");
  }
}

// Action keys iterate in the byte order of their renderings: the frame's
// ACTION list and the caller's fold both use it, so "final-param-10" sorts
// before "final-param-2".
TEST(Interprocedural, ActionKeysSortAsRenderedBytes) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  auto wide = cls.method("wide");
  wide.set_static();
  for (int i = 0; i < 10; ++i) wide.param("t.X");
  wide.returns("void").field_store("@p10", "z", "@p1").field_store("@p10", "a", "@p2").ret();
  EXPECT_EQ(action_both_ways(pb, {}, "t.C", "wide", 10),
            "{final-param-1: init-param-1, final-param-10: init-param-10, "
            "final-param-10.a: init-param-2, final-param-10.z: init-param-1, "
            "final-param-2: init-param-2, final-param-3: init-param-3, "
            "final-param-4: init-param-4, final-param-5: init-param-5, "
            "final-param-6: init-param-6, final-param-7: init-param-7, "
            "final-param-8: init-param-8, final-param-9: init-param-9, "
            "return: null, this: null}");
}

// A call folds the callee's entries in key order, so when the receiver and
// the argument are one variable, "this.f" (folded last) decides its field.
TEST(Interprocedural, CallFoldFollowsKeyOrder) {
  // m2 stores null into this.f and its parameter into p1.f; n passes one
  // variable as both receiver and argument.
  auto program = [](jir::ProgramBuilder& pb) {
    auto cls = pb.add_class("t.C");
    cls.field("f", "t.X");
    cls.method("m2")
        .param("t.C")
        .returns("void")
        .const_null("k")
        .field_store("@this", "f", "k")
        .field_store("@p1", "f", "@p1")
        .ret();
    cls.method("n")
        .set_static()
        .param("t.C")
        .returns("t.X")
        .assign("x", "@p1")
        .invoke_virtual("", "x", "t.C", "m2", {"x"})
        .field_load("r", "x", "f")
        .ret("r");
  };
  jir::ProgramBuilder callee;
  program(callee);
  EXPECT_EQ(action_both_ways(callee, {}, "t.C", "m2", 1),
            "{final-param-1: init-param-1, final-param-1.f: init-param-1, return: null, "
            "this: this, this.f: null}");
  jir::ProgramBuilder caller;
  program(caller);
  EXPECT_EQ(action_both_ways(caller, {}, "t.C", "n", 1),
            "{final-param-1: init-param-1, return: null, this: null}");
}

// --- Names that only collide once concatenated ------------------------------

// "@p1x" is a local that merely starts like a parameter: its fields are not
// the caller's argument's fields.
TEST(Interprocedural, ParamPrefixedLocalIsNotAParameter) {
  auto parsed = jir::parse_program(R"(
    class t.C {
      method m(t.X) : void {
        @p1x = new t.X;
        @p1x.f = @this;
        return;
      }
    }
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  jir::Program program = std::move(parsed.value());
  jir::Hierarchy hierarchy(program);
  ControllabilityAnalysis analysis(program, hierarchy);
  auto id = program.find_method("t.C", "m", 1);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(analysis.summary(*id).action.to_string(analysis.field_names()),
            "{final-param-1: init-param-1, return: null, this: this}");
}

// A variable spelled "a.f" is not field f of a.
TEST(TableIV, DottedVariableIsNotAField) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .new_object("a", "t.X")
      .assign("a.f", "@p1")
      .field_load("r", "a", "f")
      .ret("r");
  EXPECT_EQ(action_both_ways(pb, {}, "t.C", "m", 1),
            "{final-param-1: init-param-1, return: null, this: null}");
}

// A field named "[]" is not the array's elements.
TEST(TableIV, FieldNamedBracketsIsNotAnArrayElement) {
  jir::ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.method("m")
      .set_static()
      .param("t.X")
      .returns("t.X")
      .new_object("a", "t.X[]")
      .field_store("a", "[]", "@p1")
      .const_int("i", 0)
      .array_load("r", "a", "i")
      .ret("r");
  EXPECT_EQ(action_both_ways(pb, {}, "t.C", "m", 1),
            "{final-param-1: init-param-1, return: null, this: null}");
}

TEST(Interprocedural, AbstractMethodGetsIdentityAction) {
  jir::ProgramBuilder pb;
  auto iface = pb.add_interface("t.I");
  iface.method("doIt").param("t.X").returns("t.X").set_abstract();
  Analyzed a = analyze(pb);
  const Action& action = summary_of(a, "t.I", "doIt", 1).action;
  EXPECT_EQ(action.at(final_param_key(1)), Origin::param_origin(1));
}

}  // namespace
}  // namespace tabby::analysis
