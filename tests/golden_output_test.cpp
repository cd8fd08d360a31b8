// Golden outputs of the whole engine. Every Table IX component and every
// Table X scene (each with the simulated JDK), the 26-archive ysoserial
// classpath and a small fan-out classpath are opened through pipeline::Engine
// and searched at the default depth. Each case pins the chain count and an
// FNV-1a digest over the chain keys in report order; the scenes, ysoserial
// and the fan-out also pin the content digest of the frozen frame the open
// produced (the bytes `analyze --store` writes), and ysoserial pins its
// verdicts and the rendered rows of three fixed queries. The test calls
// nothing but the Engine API, so it holds whichever graph builder runs
// underneath.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "corpus/components.hpp"
#include "corpus/scenes.hpp"
#include "corpus/stress.hpp"
#include "finder/verify.hpp"
#include "jar/archive.hpp"
#include "pipeline/engine.hpp"
#include "util/digest.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;

struct Golden {
  const char* name;
  std::size_t chains;
  std::uint64_t digest;     // FNV-1a over GadgetChain::key() in report order
  std::uint64_t frame = 0;  // util::content_digest of the frame (scenes only)
};

constexpr Golden kComponents[] = {
    {"AspectJWeaver", 1, 0x24c825d7a6783b18ull},
    {"BeanShell1", 3, 0xe0dc49a2282974d7ull},
    {"C3P0", 6, 0x0e75e8b859c67824ull},
    {"Click1", 1, 0xd469b8327b17deaeull},
    {"Clojure", 2, 0x61805c38900faa89ull},
    {"CommonsBeanutils1", 1, 0xa2193a59833d0ad2ull},
    {"commons-collections(3.2.1)", 17, 0x890ec78aac578c63ull},
    {"commons-collections(4.0.0)", 18, 0x78f3bbeec5a61897ull},
    {"FileUpload1", 2, 0xddab3642e54fb250ull},
    {"Groovy1", 2, 0xee9ee269a86faac8ull},
    {"Hibernate", 4, 0xd16e9958a04cf4f8ull},
    {"JBossInterceptors1", 3, 0x5230d8aba9e6382dull},
    {"JSON1", 0, 0xcbf29ce484222325ull},
    {"JavaassistWeld1", 3, 0x1c69fc4fb0352fd8ull},
    {"Jython1", 2, 0x2f8df7129dc59f59ull},
    {"MozillaRhino", 1, 0xccb99784435d0b52ull},
    {"Myface", 1, 0xa61777ba44eba910ull},
    {"Rome", 2, 0x107a8f8e86355068ull},
    {"Spring", 2, 0xc3829ef5feb6af77ull},
    {"Vaadin1", 1, 0xd65443d874d88985ull},
    {"Wicket1", 2, 0x37706e5fa9c675b8ull},
    {"commons-configration", 0, 0xcbf29ce484222325ull},
    {"spring-beans", 2, 0x5c9bb2dce202f933ull},
    {"spring-aop", 2, 0x9dc09c9c6ef82f90ull},
    {"XBean", 1, 0x857136b1659be7c8ull},
    {"Resin", 0, 0xcbf29ce484222325ull},
};

constexpr Golden kScenes[] = {
    {"Spring", 10, 0xc3e9b26a9e27ff3bull, 0x42e40ed88e9c8578ull},
    {"JDK8", 13, 0xb6a245c01a1b51e6ull, 0x39d8ccc335d6d235ull},
    {"Tomcat", 4, 0x0130ca58b1d01aebull, 0xb3bc351a9d1a5c86ull},
    {"Jetty", 6, 0xdd26aafe966fa194ull, 0xe02bd1e20502404bull},
    {"Apache Dubbo", 5, 0x6d096d3dbe2beeeaull, 0x9627a205a7aba072ull},
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

std::uint64_t chain_digest(const finder::FinderReport& report) {
  util::Fnv1a h;
  for (const finder::GadgetChain& chain : report.chains) h.update(chain.key());
  return h.digest();
}

std::uint64_t frame_digest(const pipeline::Analysis& analysis) {
  return util::content_digest(analysis.outcome().frozen.frame());
}

/// A scratch directory of .tjar files, removed with the fixture.
class GoldenOutput : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "_" + info->name();
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    dir_ = fs::temp_directory_path() / ("tabby_golden_" + std::to_string(::getpid()) + "_" + name);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<std::string> write(const std::vector<jar::Archive>& archives) {
    std::vector<std::string> paths;
    for (const jar::Archive& archive : archives) {
      std::string path = (dir_ / ("a" + std::to_string(paths.size()) + ".tjar")).string();
      EXPECT_TRUE(jar::write_archive_file(archive, path).ok()) << path;
      paths.push_back(path);
    }
    return paths;
  }

  /// Opens `jars` in a fresh engine and runs one default find; `frame`
  /// receives the digest of the opened frame.
  pipeline::FindResult find(const std::vector<std::string>& jars, bool with_jdk,
                            std::uint64_t* frame = nullptr) {
    pipeline::EngineOptions options;
    options.with_jdk = with_jdk;
    pipeline::Engine engine(options);
    auto analysis = engine.open(jars, {});
    EXPECT_TRUE(analysis.ok()) << (analysis.ok() ? "" : analysis.error().to_string());
    if (!analysis.ok()) return {};
    if (frame != nullptr) *frame = frame_digest(*analysis.value());
    return analysis.value()->find({});
  }

  fs::path dir_;
};

class GoldenComponent : public GoldenOutput, public ::testing::WithParamInterface<Golden> {};
class GoldenScene : public GoldenOutput, public ::testing::WithParamInterface<Golden> {};

std::string param_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = info.param.name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

TEST_P(GoldenComponent, ChainsMatch) {
  const Golden& want = GetParam();
  pipeline::FindResult result = find(write({corpus::build_component(want.name).jar}), true);
  EXPECT_EQ(result.report.chains.size(), want.chains);
  EXPECT_EQ(chain_digest(result.report), want.digest);
}

TEST_P(GoldenScene, ChainsMatch) {
  const Golden& want = GetParam();
  // A scene's classpath already starts with the simulated JDK.
  std::uint64_t frame = 0;
  pipeline::FindResult result = find(write(corpus::build_scene(want.name).jars), false, &frame);
  EXPECT_EQ(result.report.chains.size(), want.chains);
  EXPECT_EQ(chain_digest(result.report), want.digest);
  EXPECT_EQ(frame, want.frame) << std::hex << "0x" << frame;
}

TEST_F(GoldenOutput, SmallFanoutChainsAndFrame) {
  corpus::FanoutStressSpec spec{.hops = 8, .aliases = 64, .dual_sink = true};
  std::uint64_t frame = 0;
  pipeline::FindResult result = find(write({corpus::fanout_stress_archive(spec)}), true, &frame);
  EXPECT_EQ(result.report.chains.size(), 2u);
  EXPECT_EQ(chain_digest(result.report), 0x8a7bb60f398048bbull);
  EXPECT_EQ(frame, 0xbba67c66a59ee184ull) << std::hex << "0x" << frame;
}

INSTANTIATE_TEST_SUITE_P(TableIX, GoldenComponent, ::testing::ValuesIn(kComponents), param_name);
INSTANTIATE_TEST_SUITE_P(TableX, GoldenScene, ::testing::ValuesIn(kScenes), param_name);

TEST(GoldenTables, CoverEveryComponentAndScene) {
  std::vector<std::string> components, scenes;
  for (const Golden& g : kComponents) components.push_back(g.name);
  for (const Golden& g : kScenes) scenes.push_back(g.name);
  EXPECT_EQ(components, corpus::component_names());
  EXPECT_EQ(scenes, corpus::scene_names());
}

TEST_F(GoldenOutput, YsoserialClasspathChainsVerdictsAndQueries) {
  std::vector<jar::Archive> archives;
  for (const std::string& name : corpus::component_names()) {
    archives.push_back(corpus::build_component(name).jar);
  }
  pipeline::Engine engine;
  pipeline::OpenOptions open_options;
  open_options.need_program = true;
  auto analysis = engine.open(write(archives), {}, open_options);
  ASSERT_TRUE(analysis.ok()) << analysis.error().to_string();

  pipeline::ExecContext ctx;
  ctx.verify = true;
  pipeline::FindResult result = analysis.value()->find(ctx);
  EXPECT_EQ(result.report.chains.size(), 79u);
  EXPECT_EQ(chain_digest(result.report), 0xba89d14badbfdcc3ull);
  EXPECT_EQ(frame_digest(*analysis.value()), 0x0b342d762a034906ull)
      << std::hex << "0x" << frame_digest(*analysis.value());
  ASSERT_TRUE(result.verified);
  EXPECT_EQ(result.verify.effective, 53u);
  EXPECT_EQ(result.verify.refuted, 26u);
  EXPECT_EQ(result.verify.unconfirmed, 0u);
  util::Fnv1a verdicts;
  for (const finder::ChainVerdict& verdict : result.verify.verdicts) {
    verdicts.update(finder::verdict_line(verdict));
    verdicts.update("\n");
  }
  EXPECT_EQ(verdicts.digest(), 0x179dcb05b84f18f8ull);

  struct Query {
    const char* text;
    std::size_t rows;
    std::uint64_t digest;  // FNV-1a over Analysis::render
  };
  const Query queries[] = {
      {"MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.SIGNATURE", 11, 0x9b3ee3c3c0775b98ull},
      {"MATCH (m:Method)-[:CALL]->(s:Method {IS_SINK: true}) RETURN m.SIGNATURE, s.NAME", 105,
       0x001171ca6d71f774ull},
      {"MATCH (m:Method {IS_SOURCE: true})-[:CALL*1..6]->(s:Method {IS_SINK: true}) "
       "RETURN m.SIGNATURE LIMIT 50",
       9, 0xa8794bfb14389201ull},
  };
  for (const Query& query : queries) {
    SCOPED_TRACE(query.text);
    auto rows = analysis.value()->query(query.text, {});
    ASSERT_TRUE(rows.ok()) << rows.error().to_string();
    EXPECT_EQ(rows.value().rows.size(), query.rows);
    EXPECT_EQ(util::fnv1a(analysis.value()->render(rows.value())), query.digest);
  }
}

}  // namespace
}  // namespace tabby
