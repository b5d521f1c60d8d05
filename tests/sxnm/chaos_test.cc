// Chaos tests: arm each fault-injection site in turn and prove that the
// failure surfaces as a clean Status identifying the failed stage — never
// a crash, never a half-built result handed out as success.

#include <string>

#include <gtest/gtest.h>

#include "extsort/extsort.h"
#include "sxnm/config_xml.h"
#include "sxnm/detector.h"
#include "util/fault_injection.h"
#include "xml/parser.h"

namespace sxnm::core {
namespace {

using util::ScopedFault;
using util::StatusCode;

constexpr const char* kMovies = R"xml(
<db>
  <movies>
    <movie year="1999"><title>The Matrix</title></movie>
    <movie year="1999"><title>The Matrxi</title></movie>
    <movie year="1998"><title>Mask of Zorro</title></movie>
    <movie year="2001"><title>Ocean Storm</title></movie>
  </movies>
</db>
)xml";

constexpr const char* kConfigXml = R"xml(
<sxnm-config>
  <candidate name="movie" path="db/movies/movie" window="4">
    <paths><path id="1" rel="title/text()"/><path id="2" rel="@year"/></paths>
    <od><entry pid="1" relevance="0.8"/><entry pid="2" relevance="0.2"/></od>
    <keys>
      <key><part pid="1" pattern="K1-K5"/></key>
      <key><part pid="2" pattern="D3,D4"/></key>
    </keys>
  </candidate>
</sxnm-config>
)xml";

Config LoadConfig() {
  auto config = ConfigFromXmlString(kConfigXml);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return std::move(config).value();
}

class ChaosTest : public ::testing::Test {
 protected:
  // Belt and braces: no fault may leak into or out of a chaos test.
  void SetUp() override { util::FaultInjector::Instance().DisarmAll(); }
  void TearDown() override { util::FaultInjector::Instance().DisarmAll(); }
};

TEST_F(ChaosTest, XmlNodeFaultFailsParseCleanly) {
  ScopedFault fault("xml.node", 3);  // fail allocating the third DOM node
  auto doc = xml::Parse(kMovies);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doc.status().message().find("xml.node"), std::string::npos);
}

TEST_F(ChaosTest, XmlNodeFaultIsHardEvenInRecoverMode) {
  ScopedFault fault("xml.node", 3);
  auto recovered = xml::ParseRecovering(kMovies);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ChaosTest, ConfigLoadFaultFailsCleanly) {
  ScopedFault fault("config.load");
  auto config = ConfigFromXmlString(kConfigXml);
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInternal);
  EXPECT_NE(config.status().message().find("configuration load"),
            std::string::npos);
}

TEST_F(ChaosTest, KeyGenerationRowFaultIdentifiesRowAndCandidate) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(LoadConfig());
  ScopedFault fault("kg.row", 2);  // fail on the second GK row (index 1)
  auto result = detector.Run(doc.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("key generation"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("row 1"), std::string::npos);
  EXPECT_NE(result.status().message().find("'movie'"), std::string::npos);
}

TEST_F(ChaosTest, DetectorPassFaultIdentifiesPassAndCandidate) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(LoadConfig());
  ScopedFault fault("detector.pass", 2);  // fail the second window pass
  auto result = detector.Run(doc.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("window pass"), std::string::npos);
  EXPECT_NE(result.status().message().find("movie"), std::string::npos);
}

TEST_F(ChaosTest, TransitiveClosureFaultFailsCleanly) {
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(LoadConfig());
  ScopedFault fault("tc.closure");
  auto result = detector.Run(doc.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("transitive closure"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("'movie'"), std::string::npos);
}

TEST_F(ChaosTest, EveryFaultSiteLeavesDetectorReusable) {
  // After any injected failure the same Detector must run clean again —
  // no poisoned state survives the error path.
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Detector detector(LoadConfig());
  for (const char* site : {"kg.row", "detector.pass", "tc.closure"}) {
    {
      ScopedFault fault(site);
      EXPECT_FALSE(detector.Run(doc.value()).ok()) << site;
    }
    auto clean = detector.Run(doc.value());
    ASSERT_TRUE(clean.ok()) << site << ": " << clean.status().ToString();
    EXPECT_FALSE(clean->degraded()) << site;
  }
}

TEST_F(ChaosTest, ExtSortSpillFaultFailsCleanlyAndDetectorStaysReusable) {
  // With a memory budget every pass order goes through the external
  // sorter; an injected spill failure (ENOSPC on the run file) must
  // surface as kResourceExhausted naming the spill — and the same
  // detector must run clean (and still spill) afterwards.
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Config config = LoadConfig();
  config.set_memory_budget_bytes(1);  // every row over budget: spill per Add
  config.set_shards(2);
  Detector detector(config);
  {
    ScopedFault fault(extsort::kSpillFaultSite);
    auto result = detector.Run(doc.value());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(result.status().message().find("spill"), std::string::npos);
  }
  auto clean = detector.Run(doc.value());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_FALSE(clean->degraded());
}

TEST_F(ChaosTest, FaultInParallelKeyGenerationPropagatesDeterministically) {
  // Key generation runs in 1 024-row chunks on every thread, but the
  // "kg.row" site is checked in the serial merge, in row order: with
  // several worker threads, the Nth hit always names row N-1.
  auto doc = xml::Parse(kMovies);
  ASSERT_TRUE(doc.ok());
  Config config = LoadConfig();
  config.set_num_threads(4);
  Detector detector(config);
  {
    ScopedFault fault("kg.row", 1);
    auto result = detector.Run(doc.value());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("row 0"), std::string::npos);
  }

  std::string movies = "<db><movies>";
  for (int i = 0; i < 4000; ++i) {  // over three chunks
    movies += "<movie year=\"" + std::to_string(1950 + i % 60) +
              "\"><title>Title " + std::to_string(i) + "</title></movie>";
  }
  movies += "</movies></db>";
  auto large = xml::Parse(movies);
  ASSERT_TRUE(large.ok());
  for (int repetition = 0; repetition < 5; ++repetition) {
    ScopedFault fault("kg.row", 2000);
    auto result = detector.Run(large.value());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("row 1999 "), std::string::npos)
        << result.status().message();
  }
}

}  // namespace
}  // namespace sxnm::core
