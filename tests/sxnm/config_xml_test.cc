#include "sxnm/config_xml.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sxnm::core {
namespace {

constexpr const char* kConfigXml = R"xml(
<sxnm-config>
  <candidate name="movie" path="movie_database/movies/movie" window="10"
             use-descendants="true">
    <paths>
      <path id="1" rel="title/text()"/>
      <path id="2" rel="@ID"/>
      <path id="3" rel="@year"/>
    </paths>
    <od>
      <entry pid="1" relevance="0.8"/>
      <entry pid="3" relevance="0.2" similarity="numeric:10"/>
    </od>
    <keys>
      <key>
        <part pid="1" order="1" pattern="K1,K2"/>
        <part pid="3" order="2" pattern="D3,D4"/>
      </key>
      <key>
        <part pid="2" order="1" pattern="D1"/>
        <part pid="1" order="2" pattern="C1,C2"/>
      </key>
    </keys>
    <classifier mode="average" od-threshold="0.7" desc-threshold="0.4"
                od-weight="0.6"/>
  </candidate>
  <candidate name="person" path="movie_database/movies/movie/people/person"
             window="4">
    <paths><path id="1" rel="text()"/></paths>
    <od><entry pid="1" relevance="1"/></od>
    <keys><key><part pid="1" pattern="K1-K4"/></key></keys>
  </candidate>
</sxnm-config>
)xml";

TEST(ConfigXmlTest, ParsesPaperStyleConfig) {
  auto config = ConfigFromXmlString(kConfigXml);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->candidates().size(), 2u);

  const CandidateConfig* movie = config->Find("movie");
  ASSERT_NE(movie, nullptr);
  EXPECT_EQ(movie->absolute_path.ToString(), "movie_database/movies/movie");
  EXPECT_EQ(movie->window_size, 10u);
  EXPECT_EQ(movie->paths.size(), 3u);
  EXPECT_EQ(movie->od.size(), 2u);
  EXPECT_DOUBLE_EQ(movie->od[0].relevance, 0.8);
  EXPECT_EQ(movie->od[1].similarity_name, "numeric:10");
  ASSERT_EQ(movie->keys.size(), 2u);
  EXPECT_EQ(movie->keys[0].parts[0].pattern.ToString(), "K1,K2");
  EXPECT_EQ(movie->keys[1].parts[0].pid, 2);
  EXPECT_EQ(movie->classifier.mode, CombineMode::kAverage);
  EXPECT_DOUBLE_EQ(movie->classifier.od_threshold, 0.7);
  EXPECT_DOUBLE_EQ(movie->classifier.desc_threshold, 0.4);
  EXPECT_DOUBLE_EQ(movie->classifier.od_weight, 0.6);

  const CandidateConfig* person = config->Find("person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(person->window_size, 4u);
}

TEST(ConfigXmlTest, PartsSortedByExplicitOrder) {
  auto config = ConfigFromXmlString(R"xml(
<sxnm-config>
  <candidate name="m" path="db/m">
    <paths><path id="1" rel="a/text()"/><path id="2" rel="b/text()"/></paths>
    <od><entry pid="1" relevance="1"/></od>
    <keys>
      <key>
        <part pid="2" order="2" pattern="C1"/>
        <part pid="1" order="1" pattern="K1"/>
      </key>
    </keys>
  </candidate>
</sxnm-config>)xml");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const auto& parts = config->Find("m")->keys[0].parts;
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].pid, 1) << "order=1 part first";
  EXPECT_EQ(parts[1].pid, 2);
}

TEST(ConfigXmlTest, RoundTripsThroughXml) {
  auto original = ConfigFromXmlString(kConfigXml);
  ASSERT_TRUE(original.ok());
  std::string serialized = ConfigToXmlString(original.value());
  auto reparsed = ConfigFromXmlString(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString()
                             << "\n" << serialized;
  ASSERT_EQ(reparsed->candidates().size(), original->candidates().size());
  for (size_t i = 0; i < original->candidates().size(); ++i) {
    const CandidateConfig& a = original->candidates()[i];
    const CandidateConfig& b = reparsed->candidates()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.absolute_path, b.absolute_path);
    EXPECT_EQ(a.window_size, b.window_size);
    EXPECT_EQ(a.use_descendants, b.use_descendants);
    EXPECT_EQ(a.classifier.mode, b.classifier.mode);
    EXPECT_DOUBLE_EQ(a.classifier.od_threshold, b.classifier.od_threshold);
    ASSERT_EQ(a.paths.size(), b.paths.size());
    for (size_t p = 0; p < a.paths.size(); ++p) {
      EXPECT_EQ(a.paths[p].id, b.paths[p].id);
      EXPECT_EQ(a.paths[p].path, b.paths[p].path);
    }
    ASSERT_EQ(a.keys.size(), b.keys.size());
    for (size_t k = 0; k < a.keys.size(); ++k) {
      ASSERT_EQ(a.keys[k].parts.size(), b.keys[k].parts.size());
      for (size_t q = 0; q < a.keys[k].parts.size(); ++q) {
        EXPECT_EQ(a.keys[k].parts[q].pid, b.keys[k].parts[q].pid);
        EXPECT_EQ(a.keys[k].parts[q].pattern, b.keys[k].parts[q].pattern);
      }
    }
  }
}

TEST(ConfigXmlTest, ParsesObservabilityElement) {
  std::string xml = kConfigXml;
  std::string insert =
      "  <observability metrics=\"on\" trace=\"/tmp/t.json\" "
      "report=\"/tmp/r.json\"/>\n  <candidate";
  xml.replace(xml.find("  <candidate"), 12, insert);
  auto config = ConfigFromXmlString(xml);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->observability().metrics);
  EXPECT_EQ(config->observability().trace_path, "/tmp/t.json");
  EXPECT_EQ(config->observability().report_path, "/tmp/r.json");
}

TEST(ConfigXmlTest, ObservabilityRoundTripsThroughXml) {
  auto original = ConfigFromXmlString(kConfigXml);
  ASSERT_TRUE(original.ok());
  // Default (everything off) serializes without the element.
  EXPECT_EQ(ConfigToXmlString(original.value()).find("observability"),
            std::string::npos);

  original->mutable_observability().metrics = true;
  original->mutable_observability().trace_path = "trace.json";
  original->mutable_observability().report_path = "report.json";
  std::string serialized = ConfigToXmlString(original.value());
  auto reparsed = ConfigFromXmlString(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << serialized;
  EXPECT_TRUE(reparsed->observability().metrics);
  EXPECT_EQ(reparsed->observability().trace_path, "trace.json");
  EXPECT_EQ(reparsed->observability().report_path, "report.json");
}

TEST(ConfigXmlTest, ExplainAttributeRoundTripsThroughXml) {
  std::string xml = kConfigXml;
  std::string insert =
      "  <observability metrics=\"on\" explain=\"explain.ndjson\"/>\n"
      "  <candidate";
  xml.replace(xml.find("  <candidate"), 12, insert);
  auto config = ConfigFromXmlString(xml);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->observability().explain_path, "explain.ndjson");

  std::string serialized = ConfigToXmlString(config.value());
  EXPECT_NE(serialized.find("explain=\"explain.ndjson\""),
            std::string::npos)
      << serialized;
  auto reparsed = ConfigFromXmlString(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->observability().explain_path, "explain.ndjson");
}

TEST(ConfigXmlTest, ExplainWithoutMetricsRejected) {
  // The explain log rides on the metrics layer (pass stats, counters);
  // asking for it with metrics off is a config error, same as report.
  std::string xml = kConfigXml;
  std::string insert =
      "  <observability metrics=\"off\" explain=\"/tmp/e.ndjson\"/>\n"
      "  <candidate";
  xml.replace(xml.find("  <candidate"), 12, insert);
  EXPECT_FALSE(ConfigFromXmlString(xml).ok());
}

TEST(ConfigXmlTest, ObservabilityReportWithoutMetricsRejected) {
  std::string xml = kConfigXml;
  std::string insert =
      "  <observability metrics=\"off\" report=\"/tmp/r.json\"/>\n"
      "  <candidate";
  xml.replace(xml.find("  <candidate"), 12, insert);
  auto config = ConfigFromXmlString(xml);
  EXPECT_FALSE(config.ok());
}

TEST(ConfigXmlTest, WrongRootRejected) {
  auto config = ConfigFromXmlString("<not-a-config/>");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), util::StatusCode::kParseError);
}

TEST(ConfigXmlTest, MissingRequiredAttributesRejected) {
  EXPECT_FALSE(ConfigFromXmlString(
                   "<sxnm-config><candidate name=\"x\"/></sxnm-config>")
                   .ok())
      << "missing path attribute";
  EXPECT_FALSE(ConfigFromXmlString(
                   "<sxnm-config><candidate path=\"a/b\"/></sxnm-config>")
                   .ok())
      << "missing name attribute";
}

TEST(ConfigXmlTest, InvalidConfigFailsValidation) {
  // Parses but has no OD/keys: Validate() must reject.
  auto config = ConfigFromXmlString(R"xml(
<sxnm-config>
  <candidate name="m" path="db/m">
    <paths><path id="1" rel="t/text()"/></paths>
  </candidate>
</sxnm-config>)xml");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigXmlTest, BadWindowRejected) {
  auto config = ConfigFromXmlString(R"xml(
<sxnm-config>
  <candidate name="m" path="db/m" window="1">
    <paths><path id="1" rel="t/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="C1"/></key></keys>
  </candidate>
</sxnm-config>)xml");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigXmlTest, BadBooleanRejected) {
  auto config = ConfigFromXmlString(R"xml(
<sxnm-config>
  <candidate name="m" path="db/m" use-descendants="maybe">
    <paths><path id="1" rel="t/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="C1"/></key></keys>
  </candidate>
</sxnm-config>)xml");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigXmlTest, BadCombineModeRejected) {
  auto config = ConfigFromXmlString(R"xml(
<sxnm-config>
  <candidate name="m" path="db/m">
    <paths><path id="1" rel="t/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="C1"/></key></keys>
    <classifier mode="nonsense"/>
  </candidate>
</sxnm-config>)xml");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigXmlTest, MalformedXmlRejected) {
  EXPECT_FALSE(ConfigFromXmlString("<sxnm-config>").ok());
}

TEST(ConfigXmlTest, MissingFileRejected) {
  EXPECT_FALSE(ConfigFromXmlFile("/no/such/config.xml").ok());
}

TEST(ConfigXmlTest, DefaultsApplied) {
  auto config = ConfigFromXmlString(R"xml(
<sxnm-config>
  <candidate name="m" path="db/m">
    <paths><path id="1" rel="t/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="C1"/></key></keys>
  </candidate>
</sxnm-config>)xml");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const CandidateConfig* m = config->Find("m");
  EXPECT_EQ(m->window_size, 10u) << "builder default";
  EXPECT_TRUE(m->use_descendants);
  EXPECT_DOUBLE_EQ(m->od[0].relevance, 1.0);
  EXPECT_EQ(m->od[0].similarity_name, "edit");
}

// The dag / batch-scoring candidate attributes switched comparison
// shortcuts that no longer exist, and the observability attribute
// profile-hz set the rate of the removed sampling profiler (see
// docs/CONFIG.md): old configs that carry them still load, the values
// are ignored, and each attribute yields one deprecation warning per
// document.
std::string DagCandidateXml(const std::string& attrs,
                            const std::string& obs_attrs = "") {
  std::string obs;
  if (!obs_attrs.empty()) obs = "\n  <observability " + obs_attrs + "/>";
  return R"xml(
<sxnm-config>)xml" +
         obs + R"xml(
  <candidate name="m" path="db/m" )xml" +
         attrs + R"xml(>
    <paths><path id="1" rel="t/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="C1"/></key></keys>
  </candidate>
</sxnm-config>)xml";
}

TEST(ConfigXmlTest, DagAndBatchScoringAttributesParse) {
  struct Case {
    const char* attrs;
    const char* obs_attrs;
    size_t warnings;
  };
  const Case cases[] = {
      {"", "", 0},
      {"dag=\"false\"", "", 1},
      {"batch-scoring=\"false\"", "", 1},
      {"dag=\"true\" batch-scoring=\"false\"", "", 2},
      // Once rejected by validation (the pre-filter needed the fast
      // paths); with both attributes ignored there is nothing to conflict.
      {"fast-paths=\"false\" batch-scoring=\"true\"", "", 2},
      {"fast-paths=\"true\"", "", 1},
      {"", "profile-hz=\"97\"", 1},
      {"", "profile=\"run.folded\" profile-hz=\"997\"", 1},
      {"dag=\"false\"", "profile-hz=\"5\"", 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.attrs) + " | " + c.obs_attrs);
    std::vector<std::string> warnings;
    auto config = ConfigFromXmlString(DagCandidateXml(c.attrs, c.obs_attrs),
                                      &warnings);
    ASSERT_TRUE(config.ok()) << config.status().ToString();
    EXPECT_EQ(warnings.size(), c.warnings);
    for (const std::string& warning : warnings) {
      EXPECT_NE(warning.find("deprecated"), std::string::npos) << warning;
    }
  }
  // Without a warnings sink the attributes are ignored just the same.
  EXPECT_TRUE(ConfigFromXmlString(DagCandidateXml("dag=\"false\"")).ok());
  EXPECT_TRUE(
      ConfigFromXmlString(DagCandidateXml("", "profile-hz=\"97\"")).ok());
  // The value must still parse as a positive number.
  EXPECT_FALSE(
      ConfigFromXmlString(DagCandidateXml("", "profile-hz=\"0\"")).ok());
}

TEST(ConfigXmlTest, DagAndBatchScoringRoundTripThroughXml) {
  // An old config with the deprecated attributes on two candidates: one
  // warning per attribute, not per occurrence, and the re-serialized form
  // no longer carries them, so it reloads without warnings to the same
  // config.
  const std::string old_xml = R"xml(
<sxnm-config>
  <observability profile="run.folded" profile-hz="499"/>
  <candidate name="a" path="db/a" dag="true" batch-scoring="true">
    <paths><path id="1" rel="t/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="C1"/></key></keys>
  </candidate>
  <candidate name="b" path="db/b" dag="false" batch-scoring="false"
             fast-paths="false">
    <paths><path id="1" rel="t/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="C1"/></key></keys>
  </candidate>
</sxnm-config>)xml";
  std::vector<std::string> warnings;
  auto original = ConfigFromXmlString(old_xml, &warnings);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_EQ(warnings.size(), 4u);
  EXPECT_NE(warnings[0].find("'profile-hz'"), std::string::npos)
      << warnings[0];
  EXPECT_NE(warnings[1].find("'dag'"), std::string::npos) << warnings[1];
  EXPECT_NE(warnings[2].find("'batch-scoring'"), std::string::npos)
      << warnings[2];
  EXPECT_NE(warnings[3].find("'fast-paths'"), std::string::npos)
      << warnings[3];

  const std::string serialized = ConfigToXmlString(original.value());
  EXPECT_EQ(serialized.find("dag="), std::string::npos) << serialized;
  EXPECT_EQ(serialized.find("batch-scoring="), std::string::npos)
      << serialized;
  EXPECT_EQ(serialized.find("fast-paths="), std::string::npos) << serialized;
  EXPECT_EQ(serialized.find("profile-hz="), std::string::npos) << serialized;
  EXPECT_NE(serialized.find("profile=\"run.folded\""), std::string::npos)
      << serialized;
  std::vector<std::string> rewarnings;
  auto reparsed = ConfigFromXmlString(serialized, &rewarnings);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(rewarnings.empty());
  EXPECT_EQ(ConfigToXmlString(reparsed.value()), serialized);
}

std::string OutOfCoreConfigXml(const std::string& root_attrs) {
  return "<sxnm-config " + root_attrs + R"xml(>
  <candidate name="m" path="db/m">
    <paths><path id="1" rel="a/text()"/></paths>
    <od><entry pid="1" relevance="1"/></od>
    <keys><key><part pid="1" pattern="K1"/></key></keys>
  </candidate>
</sxnm-config>)xml";
}

TEST(ConfigXmlTest, OutOfCoreAttributesParse) {
  auto config = ConfigFromXmlString(OutOfCoreConfigXml(
      "shards=\"4\" memory-budget=\"64M\" spill-dir=\"/tmp/sxnm\""));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->shards(), 4u);
  EXPECT_EQ(config->memory_budget_bytes(), 64ull * 1024 * 1024);
  EXPECT_EQ(config->spill_dir(), "/tmp/sxnm");
}

TEST(ConfigXmlTest, MemoryBudgetSuffixesAreCaseInsensitive) {
  struct Case {
    const char* text;
    uint64_t bytes;
  };
  for (const Case& c : {Case{"4096", 4096ull}, Case{"64k", 64ull * 1024},
                        Case{"64K", 64ull * 1024},
                        Case{"256m", 256ull * 1024 * 1024},
                        Case{"2G", 2ull * 1024 * 1024 * 1024}}) {
    SCOPED_TRACE(c.text);
    auto config = ConfigFromXmlString(OutOfCoreConfigXml(
        std::string("memory-budget=\"") + c.text + "\""));
    ASSERT_TRUE(config.ok()) << config.status().ToString();
    EXPECT_EQ(config->memory_budget_bytes(), c.bytes);
  }
}

TEST(ConfigXmlTest, OutOfCoreAttributesRoundTripThroughXml) {
  for (const char* attrs :
       {"", "shards=\"3\"", "memory-budget=\"128K\"",
        "shards=\"8\" memory-budget=\"1G\" spill-dir=\"/var/tmp\""}) {
    SCOPED_TRACE(attrs);
    auto original = ConfigFromXmlString(OutOfCoreConfigXml(attrs));
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    std::string serialized = ConfigToXmlString(original.value());
    auto reparsed = ConfigFromXmlString(serialized);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(reparsed->shards(), original->shards());
    EXPECT_EQ(reparsed->memory_budget_bytes(),
              original->memory_budget_bytes());
    EXPECT_EQ(reparsed->spill_dir(), original->spill_dir());
    if (std::string(attrs).empty()) {
      // Defaults stay implicit: no new attributes on legacy configs.
      EXPECT_EQ(serialized.find("shards"), std::string::npos);
      EXPECT_EQ(serialized.find("memory-budget"), std::string::npos);
      EXPECT_EQ(serialized.find("spill-dir"), std::string::npos);
    }
  }
}

TEST(ConfigXmlTest, BadOutOfCoreAttributesRejected) {
  EXPECT_FALSE(
      ConfigFromXmlString(OutOfCoreConfigXml("shards=\"0\"")).ok());
  EXPECT_FALSE(
      ConfigFromXmlString(OutOfCoreConfigXml("shards=\"-2\"")).ok());
  EXPECT_FALSE(
      ConfigFromXmlString(OutOfCoreConfigXml("memory-budget=\"abc\"")).ok());
  EXPECT_FALSE(
      ConfigFromXmlString(OutOfCoreConfigXml("memory-budget=\"64Q\"")).ok());
  EXPECT_FALSE(
      ConfigFromXmlString(OutOfCoreConfigXml("memory-budget=\"\"")).ok());
}

TEST(ConfigXmlTest, BadDagBooleanRejected) {
  EXPECT_FALSE(ConfigFromXmlString(DagCandidateXml("dag=\"maybe\"")).ok());
  EXPECT_FALSE(
      ConfigFromXmlString(DagCandidateXml("batch-scoring=\"0.5\"")).ok());
  EXPECT_FALSE(
      ConfigFromXmlString(DagCandidateXml("fast-paths=\"fast\"")).ok());
}

}  // namespace
}  // namespace sxnm::core
