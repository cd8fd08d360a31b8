// Unit tests for the JIR module: types, statements, the builder API, the
// textual printer/parser round trip, hierarchy queries and validation.
#include <gtest/gtest.h>

#include "jir/builder.hpp"
#include "jir/hierarchy.hpp"
#include "jir/model.hpp"
#include "jir/parser.hpp"
#include "jir/printer.hpp"
#include "jir/validate.hpp"

namespace tabby::jir {
namespace {

TEST(Type, ParseAndPrint) {
  EXPECT_EQ(parse_type("int").name, "int");
  EXPECT_EQ(parse_type("int").dims, 0);
  Type arr = parse_type("java.lang.String[][]");
  EXPECT_EQ(arr.name, "java.lang.String");
  EXPECT_EQ(arr.dims, 2);
  EXPECT_EQ(arr.to_string(), "java.lang.String[][]");
  EXPECT_EQ(arr.element().dims, 1);
}

TEST(Type, Classification) {
  EXPECT_TRUE(parse_type("void").is_void());
  EXPECT_TRUE(parse_type("int").is_primitive());
  EXPECT_FALSE(parse_type("int[]").is_primitive());
  EXPECT_TRUE(parse_type("int[]").is_array());
  EXPECT_TRUE(parse_type("java.lang.Object").is_reference());
  EXPECT_FALSE(parse_type("double").is_reference());
}

TEST(Stmt, RenderForms) {
  EXPECT_EQ(to_string(Stmt{AssignStmt{"a", "b"}}), "a = b");
  EXPECT_EQ(to_string(Stmt{ConstStmt{"a", Const::of(std::int64_t{42})}}), "a = 42");
  EXPECT_EQ(to_string(Stmt{ConstStmt{"a", Const::of("hi")}}), "a = \"hi\"");
  EXPECT_EQ(to_string(Stmt{ConstStmt{"a", Const::null()}}), "a = null");
  EXPECT_EQ(to_string(Stmt{NewStmt{"a", parse_type("x.T")}}), "a = new x.T");
  EXPECT_EQ(to_string(Stmt{FieldStoreStmt{"a", "f", "b"}}), "a.f = b");
  EXPECT_EQ(to_string(Stmt{FieldLoadStmt{"a", "b", "f"}}), "a = b.f");
  EXPECT_EQ(to_string(Stmt{StaticStoreStmt{"x.T", "f", "b"}}), "staticput x.T.f = b");
  EXPECT_EQ(to_string(Stmt{StaticLoadStmt{"a", "x.T", "f"}}), "a = staticget x.T.f");
  EXPECT_EQ(to_string(Stmt{ArrayStoreStmt{"a", "i", "b"}}), "a[i] = b");
  EXPECT_EQ(to_string(Stmt{ArrayLoadStmt{"a", "b", "i"}}), "a = b[i]");
  EXPECT_EQ(to_string(Stmt{CastStmt{"a", parse_type("x.T"), "b"}}), "a = (x.T) b");
  EXPECT_EQ(to_string(Stmt{ReturnStmt{}}), "return");
  EXPECT_EQ(to_string(Stmt{ReturnStmt{"a"}}), "return a");
  EXPECT_EQ(to_string(Stmt{IfStmt{"a", CmpOp::Ne, "b", "L1"}}), "if a != b goto L1");
  EXPECT_EQ(to_string(Stmt{GotoStmt{"L"}}), "goto L");
  EXPECT_EQ(to_string(Stmt{LabelStmt{"L"}}), "label L");
  EXPECT_EQ(to_string(Stmt{ThrowStmt{"e"}}), "throw e");
  EXPECT_EQ(to_string(Stmt{NopStmt{}}), "nop");
}

TEST(StmtParse, EachFormRoundTrips) {
  const char* cases[] = {
      "a = b",
      "a = 42",
      "a = -7",
      "a = \"hi there\"",
      "a = null",
      "a = new x.T",
      "a.f = b",
      "a = b.f",
      "staticput x.T.f = b",
      "a = staticget x.T.f",
      "a[i] = b",
      "a = b[i]",
      "a = (x.T) b",
      "return",
      "return a",
      "a = virtualinvoke b.<x.T#m/2>(p, q)",
      "staticinvoke <x.T#m/0>()",
      "specialinvoke b.<x.T#<init>/1>(p)",
      "a = interfaceinvoke b.<x.I#m/1>(p)",
      "if a != b goto L1",
      "goto L",
      "label L",
      "throw e",
      "nop",
  };
  for (const char* text : cases) {
    auto stmt = parse_stmt(text);
    ASSERT_TRUE(stmt.ok()) << text << ": " << stmt.error().to_string();
    EXPECT_EQ(to_string(stmt.value()), text);
  }
}

TEST(StmtParse, RejectsMalformed) {
  EXPECT_FALSE(parse_stmt("a = ").ok());
  EXPECT_FALSE(parse_stmt("= b").ok());
  EXPECT_FALSE(parse_stmt("a = virtualinvoke <x.T#m/1>(p)").ok());  // missing receiver
  EXPECT_FALSE(parse_stmt("a = virtualinvoke b.<x.T#m/2>(p)").ok());  // arity mismatch
  EXPECT_FALSE(parse_stmt("if a ~ b goto L").ok());
  EXPECT_FALSE(parse_stmt("staticput noField = b").ok());
}

TEST(Builder, BuildsClassesAndMethods) {
  ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("demo.Evil");
  cls.serializable();
  cls.field("val", "java.lang.Object");
  cls.method("readObject")
      .param("java.io.ObjectInputStream")
      .returns("void")
      .field_load("v", "@this", "val")
      .invoke_virtual("", "v", "java.lang.Object", "toString", {})
      .ret();
  Program p = pb.build();

  const ClassDecl* evil = p.find_class("demo.Evil");
  ASSERT_NE(evil, nullptr);
  EXPECT_EQ(evil->super, "java.lang.Object");
  ASSERT_EQ(evil->interfaces.size(), 1u);
  EXPECT_EQ(evil->interfaces[0], kSerializableInterface);
  const Method* ro = evil->find_method("readObject", 1);
  ASSERT_NE(ro, nullptr);
  EXPECT_EQ(ro->body.size(), 3u);
}

TEST(Builder, DuplicateClassThrows) {
  ProgramBuilder pb;
  pb.add_class("demo.X");
  pb.add_class("demo.X");
  EXPECT_THROW(pb.build(), std::invalid_argument);
}

TEST(Program, FindAndResolveMethods) {
  ProgramBuilder pb;
  pb.with_core_classes();
  auto base = pb.add_class("demo.Base");
  base.method("greet").returns("void").ret();
  auto derived = pb.add_class("demo.Derived");
  derived.extends("demo.Base");
  Program p = pb.build();

  EXPECT_TRUE(p.find_method("demo.Base", "greet", 0).has_value());
  EXPECT_FALSE(p.find_method("demo.Derived", "greet", 0).has_value());
  auto resolved = p.resolve_method("demo.Derived", "greet", 0);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(p.class_of(*resolved).name, "demo.Base");
  // Inherited from the root.
  EXPECT_TRUE(p.resolve_method("demo.Derived", "hashCode", 0).has_value());
  EXPECT_FALSE(p.resolve_method("demo.Derived", "nope", 0).has_value());
}

/// The declaring class of `owner#name/nargs` after resolution, or "" when it
/// does not resolve.
std::string resolved_owner(const Program& p, std::string_view owner, std::string_view name,
                           int nargs) {
  auto id = p.resolve_method(owner, name, nargs);
  return id ? p.class_of(*id).name : std::string();
}

TEST(Program, ResolveSearchesTheSuperclassBeforeInterfaces) {
  ProgramBuilder pb;
  auto iface = pb.add_interface("t.I");
  iface.method("m").returns("void").set_abstract();
  auto base = pb.add_class("t.B");
  base.method("m").returns("void").ret();
  auto cls = pb.add_class("t.C");
  cls.extends("t.B").implements("t.I");
  auto derived = pb.add_class("t.D");
  derived.extends("t.C");
  Program p = pb.build();

  // At each level the superclass is queued ahead of the interfaces.
  EXPECT_EQ(resolved_owner(p, "t.C", "m", 0), "t.B");
  EXPECT_EQ(resolved_owner(p, "t.D", "m", 0), "t.B");
  // The owner itself is tried first, and the arity must match.
  EXPECT_EQ(resolved_owner(p, "t.I", "m", 0), "t.I");
  EXPECT_EQ(resolved_owner(p, "t.C", "m", 1), "");
}

TEST(Program, ResolveTakesTheFirstDeclarationTheBreadthFirstWalkReaches) {
  ProgramBuilder pb;
  auto root = pb.add_interface("t.I0");
  root.method("m").returns("void").set_abstract();
  root.method("n").returns("void").set_abstract();
  auto left = pb.add_interface("t.I1");
  left.implements("t.I0");
  auto right = pb.add_interface("t.I2");
  right.implements("t.I0");
  right.method("m").returns("void").set_abstract();
  auto deep = pb.add_class("t.Deep");
  deep.method("m").returns("void").ret();
  auto mid = pb.add_class("t.Mid");
  mid.extends("t.Deep");
  auto cls = pb.add_class("t.C");
  cls.extends("t.Mid").implements("t.I1").implements("t.I2");
  Program p = pb.build();

  // Level 1 is t.Mid, t.I1, t.I2: t.I2's declaration is reached before
  // t.Deep's (level 2), and before t.I0's through either side of the diamond.
  EXPECT_EQ(resolved_owner(p, "t.C", "m", 0), "t.I2");
  // Nothing on level 1 declares n; both diamond sides lead to the one t.I0.
  EXPECT_EQ(resolved_owner(p, "t.C", "n", 0), "t.I0");
  EXPECT_EQ(resolved_owner(p, "t.I1", "m", 0), "t.I0");
}

TEST(Program, ResolveTerminatesOnCyclicSupertypes) {
  ProgramBuilder pb;
  auto a = pb.add_class("t.A");
  a.extends("t.B").implements("t.A");
  auto b = pb.add_class("t.B");
  b.extends("t.A");
  b.method("m").returns("void").ret();
  Program p = pb.build();

  EXPECT_EQ(resolved_owner(p, "t.A", "m", 0), "t.B");
  EXPECT_EQ(resolved_owner(p, "t.A", "nope", 0), "");
  EXPECT_EQ(resolved_owner(p, "t.B", "nope", 0), "");
}

TEST(Program, ResolveThroughAbsentClassesFindsNothing) {
  ProgramBuilder pb;
  auto cls = pb.add_class("t.C");
  cls.extends("ghost.Base").implements("ghost.Iface");
  cls.method("own").returns("void").ret();
  Program p = pb.build();

  // An absent owner resolves nothing, not even a method some class declares.
  EXPECT_EQ(resolved_owner(p, "ghost.Owner", "own", 0), "");
  // A method declared only on an absent supertype does not resolve.
  EXPECT_EQ(resolved_owner(p, "t.C", "inherited", 0), "");
  EXPECT_EQ(resolved_owner(p, "t.C", "own", 0), "t.C");
}

TEST(Program, AllMethodsDeterministicOrder) {
  ProgramBuilder pb;
  auto a = pb.add_class("demo.A");
  a.method("m1").returns("void").ret();
  a.method("m2").returns("void").ret();
  auto b = pb.add_class("demo.B");
  b.method("m3").returns("void").ret();
  Program p = pb.build();
  auto methods = p.all_methods();
  ASSERT_EQ(methods.size(), 3u);
  EXPECT_EQ(p.method(methods[0]).name, "m1");
  EXPECT_EQ(p.method(methods[2]).name, "m3");
}

TEST(Hierarchy, SupertypesAndSubtypes) {
  ProgramBuilder pb;
  pb.with_core_classes();
  pb.add_interface("demo.I");
  auto mid = pb.add_class("demo.Mid");
  mid.implements("demo.I");
  auto leaf = pb.add_class("demo.Leaf");
  leaf.extends("demo.Mid");
  Program p = pb.build();
  Hierarchy h(p);

  auto supers = h.all_supertypes("demo.Leaf");
  EXPECT_NE(std::find(supers.begin(), supers.end(), "demo.Mid"), supers.end());
  EXPECT_NE(std::find(supers.begin(), supers.end(), "demo.I"), supers.end());
  EXPECT_NE(std::find(supers.begin(), supers.end(), std::string(kObjectClass)), supers.end());
}

TEST(Hierarchy, SerializableDetection) {
  ProgramBuilder pb;
  pb.with_core_classes();
  auto ser = pb.add_class("demo.Ser");
  ser.serializable();
  auto child = pb.add_class("demo.Child");
  child.extends("demo.Ser");
  auto plain = pb.add_class("demo.Plain");
  plain.method("m").returns("void").ret();
  Program p = pb.build();
  Hierarchy h(p);
  EXPECT_TRUE(h.is_serializable("demo.Ser"));
  EXPECT_TRUE(h.is_serializable("demo.Child"));  // inherited
  EXPECT_FALSE(h.is_serializable("demo.Plain"));
}

TEST(Hierarchy, DispatchPrefersOverride) {
  ProgramBuilder pb;
  pb.with_core_classes();
  auto base = pb.add_class("demo.Base");
  base.method("run").returns("void").ret();
  auto derived = pb.add_class("demo.Derived");
  derived.extends("demo.Base");
  derived.method("run").returns("void").ret();
  Program p = pb.build();
  Hierarchy h(p);

  auto target = h.dispatch("demo.Derived", "run", 0);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(p.class_of(*target).name, "demo.Derived");
  auto base_target = h.dispatch("demo.Base", "run", 0);
  ASSERT_TRUE(base_target.has_value());
  EXPECT_EQ(p.class_of(*base_target).name, "demo.Base");
}

TEST(PrinterParser, ProgramRoundTrip) {
  ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("demo.RoundTrip");
  cls.serializable();
  cls.field("items", "java.lang.Object[]");
  cls.field("count", "int", /*is_static=*/true);
  auto m = cls.method("process");
  m.param("java.lang.Object").param("int").returns("java.lang.Object");
  m.const_str("s", "cmd value");
  m.new_object("o", "demo.RoundTrip");
  m.field_store("o", "items", "@p1");
  m.field_load("x", "o", "items");
  m.array_load("y", "x", "@p2");
  m.cast("z", "java.lang.String", "y");
  m.if_cmp("z", CmpOp::Eq, "s", "skip");
  m.invoke_static("r", "demo.RoundTrip", "helper", {"z"});
  m.mark("skip");
  m.static_store("demo.RoundTrip", "count", "@p2");
  m.ret("y");
  cls.method("helper").param("java.lang.String").returns("java.lang.Object").set_static().ret("@p1");
  cls.method("abstractish").returns("void").set_abstract();
  Program original = pb.build();

  std::string text = to_text(original);
  auto reparsed = parse_program(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string() << "\n" << text;
  EXPECT_EQ(to_text(reparsed.value()), text);
  EXPECT_EQ(reparsed.value().class_count(), original.class_count());
  EXPECT_EQ(reparsed.value().method_count(), original.method_count());
}

TEST(Parser, ParsesInterfaceExtends) {
  auto p = parse_program(R"(
    interface demo.A { }
    interface demo.B extends demo.A {
      abstract method lookup(java.lang.String) : java.lang.Object;
    }
  )");
  ASSERT_TRUE(p.ok()) << p.error().to_string();
  const ClassDecl* b = p.value().find_class("demo.B");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->is_interface);
  ASSERT_EQ(b->interfaces.size(), 1u);
  EXPECT_EQ(b->interfaces[0], "demo.A");
  ASSERT_EQ(b->methods.size(), 1u);
  EXPECT_FALSE(b->methods[0].has_body());
}

TEST(Parser, CommentsAreIgnored) {
  auto p = parse_program(R"(
    // a leading comment
    class demo.C {  // trailing comment
      method m() : void {
        return;  // comment after stmt
      }
    }
  )");
  ASSERT_TRUE(p.ok()) << p.error().to_string();
  EXPECT_EQ(p.value().class_count(), 1u);
}

TEST(Parser, ErrorsCarryLocation) {
  auto p = parse_program("class demo.X {\n  method broken( : void { }\n}");
  ASSERT_FALSE(p.ok());
  EXPECT_GT(p.error().location, 0u);
}

TEST(Parser, DuplicateClassRejected) {
  auto p = parse_program("class demo.X { }\nclass demo.X { }");
  ASSERT_FALSE(p.ok());
}

TEST(Validate, CleanProgramHasNoIssues) {
  ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("demo.Ok");
  cls.method("m").param("int").returns("int").assign("x", "@p1").ret("x");
  Program p = pb.build();
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, DetectsUndefinedVariable) {
  ProgramBuilder pb;
  auto cls = pb.add_class("demo.Bad");
  cls.method("m").returns("void").assign("x", "ghost").ret();
  Program p = pb.build();
  auto issues = validate(p);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("ghost"), std::string::npos);
}

TEST(Validate, DetectsBadLabelAndParamRange) {
  ProgramBuilder pb;
  auto cls = pb.add_class("demo.Bad");
  cls.method("m").param("int").returns("void").jump("nowhere").ret();
  cls.method("n").returns("void").assign("x", "@p3").ret();
  Program p = pb.build();
  auto issues = validate(p);
  EXPECT_EQ(issues.size(), 2u);
}

TEST(Validate, DetectsThisInStatic) {
  ProgramBuilder pb;
  auto cls = pb.add_class("demo.Bad");
  cls.method("m").set_static().returns("void").assign("x", "@this").ret();
  Program p = pb.build();
  EXPECT_FALSE(validate(p).empty());
}

TEST(Validate, DetectsArgCountMismatch) {
  ProgramBuilder pb;
  auto cls = pb.add_class("demo.Bad");
  auto m = cls.method("m").returns("void");
  m.stmt(InvokeStmt{"", InvokeKind::Static, MethodRef{"demo.Bad", "x", 2}, "", {"@this"}});
  m.ret();
  Program p = pb.build();
  EXPECT_FALSE(validate(p).empty());
}

TEST(Validate, PhantomClassesToleratedByDefault) {
  ProgramBuilder pb;
  auto cls = pb.add_class("demo.UsesPhantom");
  cls.method("m").returns("void").new_object("x", "ghost.Class").ret();
  Program p = pb.build();
  EXPECT_TRUE(validate(p, /*allow_phantom_classes=*/true).empty());
  EXPECT_FALSE(validate(p, /*allow_phantom_classes=*/false).empty());
}

}  // namespace
}  // namespace tabby::jir
