#include "sxnm/similarity_measure.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace sxnm::core {
namespace {

// Builds a minimal candidate with two OD entries (edit 0.8, exact 0.2).
CandidateConfig TwoFieldCandidate() {
  return CandidateBuilder("m", "db/m")
      .Path(1, "a/text()")
      .Path(2, "b/text()")
      .Od(1, 0.8)
      .Od(2, 0.2, "exact")
      .Key({{1, "C1"}})
      .OdThreshold(0.75)
      .Build()
      .value();
}

GkRow Row(size_t ordinal, std::vector<std::string> ods) {
  GkRow row;
  row.ordinal = ordinal;
  row.eid = static_cast<xml::ElementId>(ordinal);
  row.ods = std::move(ods);
  return row;
}

// Instances record with a single child type slot holding the given
// per-instance descendant lists.
CandidateInstances WithDescendants(
    const CandidateConfig* config,
    std::vector<std::vector<size_t>> per_instance) {
  CandidateInstances instances;
  instances.config = config;
  instances.elements.resize(per_instance.size(), nullptr);
  instances.eids.resize(per_instance.size(), 0);
  instances.child_types = {1};  // dummy type index
  instances.desc_instances = {std::move(per_instance)};
  return instances;
}

CandidateInstances NoDescendants(const CandidateConfig* config, size_t n) {
  CandidateInstances instances;
  instances.config = config;
  instances.elements.resize(n, nullptr);
  instances.eids.resize(n, 0);
  return instances;
}

TEST(OdSimilarityTest, WeightedSumPerDef2) {
  CandidateConfig cand = TwoFieldCandidate();
  CandidateInstances instances = NoDescendants(&cand, 2);
  SimilarityMeasure measure(cand, instances, {});

  // Field 1 identical (sim 1), field 2 different (exact -> 0):
  // 0.8*1 + 0.2*0 = 0.8.
  EXPECT_NEAR(measure.OdSimilarity(Row(0, {"same", "x"}),
                                   Row(1, {"same", "y"})),
              0.8, 1e-12);
  // Both identical: 1.0.
  EXPECT_NEAR(measure.OdSimilarity(Row(0, {"same", "x"}),
                                   Row(1, {"same", "x"})),
              1.0, 1e-12);
}

TEST(OdSimilarityTest, RelevanciesNormalized) {
  // Relevancies 8 and 2 behave like 0.8 and 0.2.
  CandidateConfig cand = CandidateBuilder("m", "db/m")
                             .Path(1, "a/text()")
                             .Path(2, "b/text()")
                             .Od(1, 8.0)
                             .Od(2, 2.0, "exact")
                             .Key({{1, "C1"}})
                             .Build()
                             .value();
  CandidateInstances instances = NoDescendants(&cand, 2);
  SimilarityMeasure measure(cand, instances, {});
  EXPECT_NEAR(measure.OdSimilarity(Row(0, {"same", "x"}),
                                   Row(1, {"same", "y"})),
              0.8, 1e-12);
}

TEST(OdSimilarityTest, MissingValueHandling) {
  CandidateConfig cand = TwoFieldCandidate();
  CandidateInstances instances = NoDescendants(&cand, 2);
  SimilarityMeasure measure(cand, instances, {});
  // Nothing comparable at all: not a duplicate signal.
  EXPECT_NEAR(measure.OdSimilarity(Row(0, {"", ""}), Row(1, {"", ""})), 0.0,
              1e-12);
  // One empty vs non-empty: component counts with similarity 0.
  EXPECT_NEAR(measure.OdSimilarity(Row(0, {"", "x"}), Row(1, {"abc", "x"})),
              0.2, 1e-12);
  // Both-empty component is skipped and weights renormalize: the second
  // field alone decides.
  EXPECT_NEAR(measure.OdSimilarity(Row(0, {"", "x"}), Row(1, {"", "x"})),
              1.0, 1e-12);
  EXPECT_NEAR(measure.OdSimilarity(Row(0, {"", "x"}), Row(1, {"", "y"})),
              0.0, 1e-12);
}

TEST(DescendantSimilarityTest, JaccardOfClusterIdSets) {
  CandidateConfig cand = TwoFieldCandidate();
  // Child clusters: {0,1} share a cluster, 2 and 3 are singletons.
  ClusterSet child = ClusterSet::FromClusters({{0, 1}}, 4);
  // Instance 0 has descendants {0, 2}; instance 1 has {1, 3}.
  // Cluster-id sets: {cid0, cid2} and {cid0, cid3} -> overlap 1, union 3.
  CandidateInstances instances =
      WithDescendants(&cand, {{0, 2}, {1, 3}});
  SimilarityMeasure measure(cand, instances, {&child});
  EXPECT_NEAR(measure.DescendantSimilarity(0, 1), 1.0 / 3.0, 1e-12);
}

TEST(DescendantSimilarityTest, DisjointAndIdentical) {
  CandidateConfig cand = TwoFieldCandidate();
  ClusterSet child = ClusterSet::Singletons(4);
  CandidateInstances disjoint = WithDescendants(&cand, {{0, 1}, {2, 3}});
  SimilarityMeasure m1(cand, disjoint, {&child});
  EXPECT_DOUBLE_EQ(m1.DescendantSimilarity(0, 1), 0.0);

  CandidateInstances same = WithDescendants(&cand, {{0, 1}, {0, 1}});
  SimilarityMeasure m2(cand, same, {&child});
  EXPECT_DOUBLE_EQ(m2.DescendantSimilarity(0, 1), 1.0);
}

TEST(DescendantSimilarityTest, PaperFig2bScenario) {
  // e1 and e2 are movies with three persons each; two persons coincide
  // (Tab. 2(b)): l_e1 = (1, 4, 1), l_e2 = (4, 1, 8).
  // Cluster-id sets {1,4} and {4,1,8}: overlap 2, union 3.
  CandidateConfig cand = TwoFieldCandidate();
  // persons 0..5; clusters: {0,2,4} (id 0... construct to match).
  // Build clusters so that cid(p0)=cid(p2)=cid(p4)=A, cid(p1)=cid(p3)=B,
  // cid(p5)=C.
  ClusterSet child = ClusterSet::FromClusters({{0, 2, 4}, {1, 3}}, 6);
  CandidateInstances instances =
      WithDescendants(&cand, {{0, 1, 2}, {3, 4, 5}});
  SimilarityMeasure measure(cand, instances, {&child});
  // Sets: e1 -> {A, B}; e2 -> {B, A, C}. Overlap 2, union 3.
  EXPECT_NEAR(measure.DescendantSimilarity(0, 1), 2.0 / 3.0, 1e-12);
}

TEST(DescendantSimilarityTest, NoDescendantInfoReturnsMinusOne) {
  CandidateConfig cand = TwoFieldCandidate();
  CandidateInstances instances = NoDescendants(&cand, 2);
  SimilarityMeasure measure(cand, instances, {});
  EXPECT_DOUBLE_EQ(measure.DescendantSimilarity(0, 1), -1.0);
}

TEST(DescendantSimilarityTest, BothEmptyListsSkipType) {
  CandidateConfig cand = TwoFieldCandidate();
  ClusterSet child = ClusterSet::Singletons(2);
  CandidateInstances instances = WithDescendants(&cand, {{}, {}});
  SimilarityMeasure measure(cand, instances, {&child});
  EXPECT_DOUBLE_EQ(measure.DescendantSimilarity(0, 1), -1.0)
      << "no comparable type -> no descendant information";
}

TEST(DescendantSimilarityTest, OneEmptyListIsZero) {
  CandidateConfig cand = TwoFieldCandidate();
  ClusterSet child = ClusterSet::Singletons(2);
  CandidateInstances instances = WithDescendants(&cand, {{0}, {}});
  SimilarityMeasure measure(cand, instances, {&child});
  EXPECT_DOUBLE_EQ(measure.DescendantSimilarity(0, 1), 0.0);
}

// Def. 3 written out directly: per child type, the Jaccard ratio of the
// two instances' descendant cluster-ID sets, averaged over the types
// where at least one side has descendants; -1 when there is none.
double SetBasedDescendantSimilarity(
    const std::vector<std::vector<size_t>>& per_instance,
    const ClusterSet& clusters, size_t ordinal_a, size_t ordinal_b) {
  const std::vector<size_t>& desc_a = per_instance[ordinal_a];
  const std::vector<size_t>& desc_b = per_instance[ordinal_b];
  if (desc_a.empty() && desc_b.empty()) return -1.0;
  std::set<int> cids_a, cids_b;
  for (size_t d : desc_a) cids_a.insert(clusters.cid(d));
  for (size_t d : desc_b) cids_b.insert(clusters.cid(d));
  size_t overlap = 0;
  for (int cid : cids_a) overlap += cids_b.count(cid);
  size_t unions = cids_a.size() + cids_b.size() - overlap;
  return static_cast<double>(overlap) / static_cast<double>(unions);
}

TEST(DescendantSimilarityTest, SortedVectorMatchesSetBasedReference) {
  // The precomputed sorted-vector Jaccard against a per-pair std::set
  // reference of Def. 3, over random descendant lists with duplicates
  // and empties.
  std::mt19937 rng(9001);
  constexpr size_t kInstances = 24;
  constexpr size_t kChildren = 40;
  std::uniform_int_distribution<size_t> list_len(0, 8);
  std::uniform_int_distribution<size_t> child(0, kChildren - 1);

  std::vector<std::vector<size_t>> per_instance(kInstances);
  for (auto& list : per_instance) {
    list.resize(list_len(rng));
    for (size_t& d : list) d = child(rng);  // duplicates allowed
  }
  ClusterSet clusters = ClusterSet::FromClusters(
      {{0, 5, 11}, {1, 2}, {7, 13, 21, 33}, {8, 39}}, kChildren);

  CandidateConfig cand = TwoFieldCandidate();
  CandidateInstances instances = WithDescendants(&cand, per_instance);
  SimilarityMeasure measure(cand, instances, {&clusters});

  for (size_t a = 0; a < kInstances; ++a) {
    for (size_t b = a + 1; b < kInstances; ++b) {
      ASSERT_DOUBLE_EQ(
          measure.DescendantSimilarity(a, b),
          SetBasedDescendantSimilarity(per_instance, clusters, a, b))
          << "ordinals " << a << ", " << b;
    }
  }
}

// Random GK rows with properly interned normalized ODs, as key
// generation would produce them.
GkRow RandomRow(size_t ordinal, std::mt19937& rng, OdPool& pool) {
  static const std::vector<std::string> kWords = {
      "The  Matrix", "the matrix", "The Matrix Reloaded", "Mask of Zorro",
      "MASK OF ZORRO", "Keanu Reeves", "Keanu Reevs", "", "1999", "1998",
      "12 Monkeys", "Twelve Monkeys", "zzzz"};
  std::uniform_int_distribution<size_t> word(0, kWords.size() - 1);
  GkRow row = Row(ordinal, {kWords[word(rng)], kWords[word(rng)]});
  for (const std::string& od : row.ods) {
    row.norm_ods.push_back(
        pool.Intern(util::ToLower(util::NormalizeWhitespace(od))));
  }
  return row;
}

// The verdict a decision trace's exact fields imply: the theory's rules
// when there is one; otherwise the exact combined score against the
// threshold, plus the descendant veto under kDescGate.
bool ImpliedVerdict(const CandidateConfig& cand,
                    const obs::PairExplain& trace) {
  if (!cand.theory.empty()) return trace.theory_equal;
  if (cand.classifier.mode == CombineMode::kDescGate && trace.desc_valid) {
    return trace.od_sim >= trace.threshold &&
           trace.desc_sim >= cand.classifier.desc_threshold;
  }
  return trace.score >= trace.threshold;
}

// The bounded kernel (CompareFast before it became Decide) may report
// pruned upper bounds, but its verdict must be the one the exact values
// imply — for every combine mode and under an equational theory, with
// and without descendant information — and a trace must not change it.
TEST(CompareFastTest, ClassifiesIdenticallyToExactAcrossModes) {
  std::mt19937 rng(31337);
  ClusterSet child = ClusterSet::FromClusters({{0, 1}, {2, 3}}, 6);
  std::uniform_int_distribution<size_t> desc(0, 5);

  struct Case {
    CombineMode mode;
    bool theory;
  };
  const Case cases[] = {
      {CombineMode::kOdOnly, false},   {CombineMode::kAverage, false},
      {CombineMode::kWeighted, false}, {CombineMode::kDescBoost, false},
      {CombineMode::kDescGate, false}, {CombineMode::kAverage, true},
  };
  size_t pruned = 0, accepted = 0, theory_fired = 0;
  for (const Case& c : cases) {
    CandidateConfig cand = TwoFieldCandidate();
    cand.classifier.mode = c.mode;
    cand.classifier.od_threshold = 0.72;
    cand.classifier.desc_threshold = 0.4;
    cand.classifier.od_weight = 0.7;
    if (c.theory) {
      // Title close and same year, or title close with shared children.
      cand.theory.AddRule({{{1, 0.8}, {2, 1.0}}});
      cand.theory.AddRule({{{1, 0.6}, {RuleCondition::kDescendants, 0.3}}});
    }
    SCOPED_TRACE(std::string(CombineModeName(c.mode)) +
                 (c.theory ? " + theory" : ""));

    std::vector<std::vector<size_t>> per_instance(2);
    for (auto& list : per_instance) list = {desc(rng), desc(rng)};
    CandidateInstances instances = WithDescendants(&cand, per_instance);
    OdPool pool;
    SimilarityMeasure measure(cand, instances, {&child}, &pool);

    for (int iter = 0; iter < 300; ++iter) {
      GkRow a = RandomRow(0, rng, pool);
      GkRow b = RandomRow(1, rng, pool);
      obs::PairExplain trace;
      SimilarityVerdict plain = measure.Decide(a, b);
      SimilarityVerdict traced = measure.Decide(a, b, &trace);
      const std::string pair = "\"" + a.ods[0] + "\"/\"" + a.ods[1] +
                               "\" vs \"" + b.ods[0] + "\"/\"" + b.ods[1] +
                               "\" (exact score " +
                               std::to_string(trace.score) + ")";
      ASSERT_EQ(plain.is_duplicate, traced.is_duplicate) << pair;
      ASSERT_EQ(plain.pruned, traced.pruned) << pair;
      ASSERT_EQ(plain.od_sim, traced.od_sim) << pair;
      ASSERT_EQ(plain.combined, traced.combined) << pair;
      ASSERT_EQ(plain.interned_equal, traced.interned_equal) << pair;
      ASSERT_EQ(plain.desc_evaluated, traced.desc_evaluated) << pair;

      ASSERT_EQ(traced.is_duplicate, ImpliedVerdict(cand, trace)) << pair;
      size_t bailouts = 0;
      for (const obs::ExplainOdComponent& comp : trace.components) {
        bailouts += comp.bailout ? 1 : 0;
      }
      ASSERT_EQ(bailouts, traced.pruned ? 1u : 0u) << pair;
      if (!traced.pruned) {
        ASSERT_EQ(traced.od_sim, trace.od_sim) << pair;
      } else {
        ASSERT_FALSE(traced.is_duplicate) << pair;
        // Up to the rounding of the bound's running sums.
        ASSERT_GE(traced.od_sim + 1e-12, trace.od_sim)
            << pair << ": pruned od_sim must be an upper bound";
      }
      ASSERT_EQ(trace.od_sim, measure.OdSimilarity(a, b)) << pair;
      pruned += traced.pruned ? 1 : 0;
      accepted += traced.is_duplicate ? 1 : 0;
      theory_fired += trace.theory_equal ? 1 : 0;
    }
  }
  // The corpus exercises both verdicts, the bail-out and the theory.
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(theory_fired, 0u);
}

TEST(CompareFastTest, InternedEqualScoresOneWithoutKernel) {
  // Raw values that differ only in case/whitespace intern to the same
  // pool ID; the kernel must score those components exactly 1.0 and
  // report them in interned_equal.
  CandidateConfig cand = TwoFieldCandidate();
  CandidateInstances instances = NoDescendants(&cand, 2);
  OdPool pool;
  GkRow a = Row(0, {"The  Matrix", "1999"});
  GkRow b = Row(1, {"the MATRIX", "1999"});
  for (GkRow* row : {&a, &b}) {
    for (const std::string& od : row->ods) {
      row->norm_ods.push_back(
          pool.Intern(util::ToLower(util::NormalizeWhitespace(od))));
    }
  }
  ASSERT_EQ(a.norm_ods[0].id, b.norm_ods[0].id);

  SimilarityMeasure measure(cand, instances, {}, &pool);
  SimilarityVerdict fast = measure.Decide(a, b);
  EXPECT_TRUE(fast.is_duplicate);
  EXPECT_DOUBLE_EQ(fast.od_sim, 1.0);
  // Only the first component uses the "edit" φ; the "exact" year is never
  // routed through the interned fast path.
  EXPECT_EQ(fast.interned_equal, 1u);

  // An unequal edit component runs the kernel and is not counted.
  GkRow c = Row(2, {"The Matrix Reloaded", "1999"});
  for (const std::string& od : c.ods) {
    c.norm_ods.push_back(
        pool.Intern(util::ToLower(util::NormalizeWhitespace(od))));
  }
  SimilarityVerdict mixed = measure.Decide(a, c);
  EXPECT_EQ(mixed.interned_equal, 0u);
}

TEST(CompareFastTest, FallsBackWithoutPrecomputedNormOds) {
  // Hand-built rows without norm_ods normalize on the fly, and decide
  // exactly as rows with interned normalized ODs do.
  CandidateConfig cand = TwoFieldCandidate();
  CandidateInstances instances = NoDescendants(&cand, 3);
  OdPool pool;
  SimilarityMeasure measure(cand, instances, {}, &pool);
  GkRow a = Row(0, {"The  Matrix", "x"});
  GkRow b = Row(1, {"the matrix", "x"});
  GkRow c = Row(2, {"The Matrix Reloaded", "x"});
  SimilarityVerdict raw = measure.Decide(a, b);
  EXPECT_DOUBLE_EQ(raw.od_sim, 1.0);
  EXPECT_TRUE(raw.is_duplicate) << "normalization still applies on the fly";
  EXPECT_EQ(raw.interned_equal, 0u);

  for (GkRow* row : {&a, &b, &c}) {
    for (const std::string& od : row->ods) {
      row->norm_ods.push_back(
          pool.Intern(util::ToLower(util::NormalizeWhitespace(od))));
    }
  }
  SimilarityVerdict pooled = measure.Decide(a, b);
  EXPECT_EQ(pooled.od_sim, raw.od_sim);
  EXPECT_EQ(pooled.is_duplicate, raw.is_duplicate);

  // A dissimilar pair scores the same exact values either way.
  obs::PairExplain raw_trace, pooled_trace;
  SimilarityVerdict dissimilar_raw =
      measure.Decide(Row(0, a.ods), Row(2, c.ods), &raw_trace);
  SimilarityVerdict dissimilar_pooled = measure.Decide(a, c, &pooled_trace);
  EXPECT_FALSE(dissimilar_raw.is_duplicate);
  EXPECT_FALSE(dissimilar_pooled.is_duplicate);
  EXPECT_EQ(raw_trace.od_sim, pooled_trace.od_sim);
}

TEST(CompareTest, DescendantJaccardSkippedWhenVerdictDecided) {
  // od = 1.0 with threshold 0.7 in kAverage: every descendant value
  // (including "no info") accepts, so the Jaccard is skipped and the
  // verdict reports used_descendants == false.
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kAverage;
  cand.classifier.od_threshold = 0.5;
  ClusterSet child = ClusterSet::Singletons(4);
  CandidateInstances instances = WithDescendants(&cand, {{0, 1}, {2, 3}});
  SimilarityMeasure measure(cand, instances, {&child});
  auto verdict =
      measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
  EXPECT_TRUE(verdict.is_duplicate);
  EXPECT_FALSE(verdict.used_descendants)
      << "desc cannot change an od=1.0 accept at threshold 0.5";

  // Conversely at threshold 0.9, od = 0 rejects in every branch: even a
  // perfect descendant score only reaches (0 + 1)/2 = 0.5.
  CandidateConfig strict = TwoFieldCandidate();
  strict.classifier.mode = CombineMode::kAverage;
  strict.classifier.od_threshold = 0.9;
  CandidateInstances strict_instances =
      WithDescendants(&strict, {{0, 1}, {2, 3}});
  SimilarityMeasure strict_measure(strict, strict_instances, {&child});
  auto reject = strict_measure.Decide(Row(0, {"aaaa", "x"}),
                                      Row(1, {"zzzz", "y"}));
  EXPECT_FALSE(reject.is_duplicate);
  EXPECT_FALSE(reject.used_descendants);
}

TEST(CompareTest, OdOnlyMode) {
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kOdOnly;
  ClusterSet child = ClusterSet::Singletons(2);
  CandidateInstances instances = WithDescendants(&cand, {{0}, {1}});
  SimilarityMeasure measure(cand, instances, {&child});
  auto verdict =
      measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
  EXPECT_FALSE(verdict.used_descendants);
  EXPECT_TRUE(verdict.is_duplicate);
  EXPECT_DOUBLE_EQ(verdict.combined, 1.0);
}

TEST(CompareTest, AverageMode) {
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kAverage;
  cand.classifier.od_threshold = 0.7;
  ClusterSet child = ClusterSet::FromClusters({{0, 1}}, 2);
  CandidateInstances instances = WithDescendants(&cand, {{0}, {1}});
  SimilarityMeasure measure(cand, instances, {&child});
  // od = 1.0, desc = 1.0 -> combined 1.0.
  auto verdict =
      measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
  EXPECT_TRUE(verdict.used_descendants);
  EXPECT_DOUBLE_EQ(verdict.desc_sim, 1.0);
  EXPECT_DOUBLE_EQ(verdict.combined, 1.0);
  EXPECT_TRUE(verdict.is_duplicate);
}

TEST(CompareTest, WeightedMode) {
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kWeighted;
  cand.classifier.od_weight = 0.75;
  cand.classifier.od_threshold = 0.9;
  ClusterSet child = ClusterSet::Singletons(2);
  CandidateInstances instances = WithDescendants(&cand, {{0}, {1}});
  SimilarityMeasure measure(cand, instances, {&child});
  // od = 1.0, desc = 0 -> 0.75*1 + 0.25*0 = 0.75 < 0.9.
  auto verdict =
      measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
  EXPECT_NEAR(verdict.combined, 0.75, 1e-12);
  EXPECT_FALSE(verdict.is_duplicate);
}

TEST(CompareTest, DescBoostMode) {
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kDescBoost;
  cand.classifier.od_threshold = 0.7;
  cand.classifier.desc_threshold = 0.3;
  // desc jaccard = 1/3 >= 0.3 -> boosted to 1.0.
  ClusterSet child = ClusterSet::FromClusters({{0, 1}}, 4);
  CandidateInstances instances = WithDescendants(&cand, {{0, 2}, {1, 3}});
  SimilarityMeasure measure(cand, instances, {&child});
  // od = 0.8*edit("aaaa","aaxx")+0.2*0 = 0.8*0.5 = 0.4; boosted desc -> 1;
  // combined = (0.4 + 1)/2 = 0.7 -> duplicate at threshold 0.7.
  auto verdict =
      measure.Decide(Row(0, {"aaaa", "p"}), Row(1, {"aaxx", "q"}));
  EXPECT_TRUE(verdict.used_descendants);
  EXPECT_NEAR(verdict.combined, 0.7, 1e-12);
  EXPECT_TRUE(verdict.is_duplicate);
}

TEST(CompareTest, DescGateVetoesDisjointChildren) {
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kDescGate;
  cand.classifier.od_threshold = 0.7;
  cand.classifier.desc_threshold = 0.3;
  ClusterSet child = ClusterSet::Singletons(4);
  CandidateInstances instances = WithDescendants(&cand, {{0, 1}, {2, 3}});
  SimilarityMeasure measure(cand, instances, {&child});
  // od passes (1.0) but children disjoint -> vetoed.
  auto verdict =
      measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
  EXPECT_FALSE(verdict.is_duplicate);
}

TEST(CompareTest, DescGatePassesWithOverlap) {
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kDescGate;
  cand.classifier.od_threshold = 0.7;
  cand.classifier.desc_threshold = 0.3;
  ClusterSet child = ClusterSet::FromClusters({{0, 2}, {1, 3}}, 4);
  CandidateInstances instances = WithDescendants(&cand, {{0, 1}, {2, 3}});
  SimilarityMeasure measure(cand, instances, {&child});
  auto verdict =
      measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
  EXPECT_TRUE(verdict.is_duplicate) << "full cluster overlap passes gate";
}

TEST(CompareTest, LeafFallsBackToOdInEveryMode) {
  for (CombineMode mode :
       {CombineMode::kAverage, CombineMode::kWeighted, CombineMode::kDescBoost,
        CombineMode::kDescGate}) {
    CandidateConfig cand = TwoFieldCandidate();
    cand.classifier.mode = mode;
    CandidateInstances instances = NoDescendants(&cand, 2);
    SimilarityMeasure measure(cand, instances, {});
    auto verdict =
        measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
    EXPECT_FALSE(verdict.used_descendants);
    EXPECT_TRUE(verdict.is_duplicate)
        << "mode " << CombineModeName(mode);
  }
}

TEST(CompareTest, UseDescendantsFalseIgnoresChildren) {
  CandidateConfig cand = TwoFieldCandidate();
  cand.classifier.mode = CombineMode::kDescGate;
  cand.use_descendants = false;
  ClusterSet child = ClusterSet::Singletons(4);
  CandidateInstances instances = WithDescendants(&cand, {{0, 1}, {2, 3}});
  SimilarityMeasure measure(cand, instances, {&child});
  auto verdict =
      measure.Decide(Row(0, {"same", "x"}), Row(1, {"same", "x"}));
  EXPECT_FALSE(verdict.used_descendants);
  EXPECT_TRUE(verdict.is_duplicate)
      << "gate disabled because descendants are disabled";
}

}  // namespace
}  // namespace sxnm::core
