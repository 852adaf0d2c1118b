#include "reason/dependency_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "rdf/dictionary.h"

namespace slider {
namespace {

class DependencyGraphTest : public ::testing::Test {
 protected:
  DependencyGraphTest()
      : vocab_(Vocabulary::Register(&dict_)),
        rhodf_(Fragment::RhoDf(vocab_)),
        graph_(DependencyGraph::Build(rhodf_)) {}

  bool Edge(const std::string& from, const std::string& to) const {
    const int i = rhodf_.IndexOf(from);
    const int j = rhodf_.IndexOf(to);
    EXPECT_GE(i, 0) << from;
    EXPECT_GE(j, 0) << to;
    return graph_.HasEdge(i, j);
  }

  Dictionary dict_;
  Vocabulary vocab_;
  Fragment rhodf_;
  DependencyGraph graph_;
};

TEST_F(DependencyGraphTest, RhoDfHasEightRules) {
  EXPECT_EQ(rhodf_.size(), 8u);
  EXPECT_EQ(graph_.num_rules(), 8u);
}

TEST_F(DependencyGraphTest, UniversalInputRulesMatchFigure2) {
  // Figure 2: PRP-SPO1, PRP-RNG and PRP-DOM accept all kinds of triples.
  std::vector<std::string> universal;
  for (int idx : graph_.UniversalRules()) {
    universal.push_back(rhodf_.rules()[static_cast<size_t>(idx)]->name());
  }
  std::sort(universal.begin(), universal.end());
  EXPECT_EQ(universal,
            (std::vector<std::string>{"PRP-DOM", "PRP-RNG", "PRP-SPO1"}));
}

TEST_F(DependencyGraphTest, ScmScoFeedsCaxSco) {
  // The example called out in §2.3: SCM-SCO outputs subClassOf relations
  // that CAX-SCO consumes.
  EXPECT_TRUE(Edge("SCM-SCO", "CAX-SCO"));
}

TEST_F(DependencyGraphTest, TransitivityRulesFeedThemselves) {
  EXPECT_TRUE(Edge("SCM-SCO", "SCM-SCO"));
  EXPECT_TRUE(Edge("SCM-SPO", "SCM-SPO"));
}

TEST_F(DependencyGraphTest, ScmSpoFeedsThePropertyRules) {
  EXPECT_TRUE(Edge("SCM-SPO", "PRP-SPO1"));
  EXPECT_TRUE(Edge("SCM-SPO", "SCM-DOM2"));
  EXPECT_TRUE(Edge("SCM-SPO", "SCM-RNG2"));
}

TEST_F(DependencyGraphTest, SchemaPropagationFeedsInstanceRules) {
  EXPECT_TRUE(Edge("SCM-DOM2", "PRP-DOM"));
  EXPECT_TRUE(Edge("SCM-RNG2", "PRP-RNG"));
}

TEST_F(DependencyGraphTest, EveryRuleFeedsTheUniversalRules) {
  for (const RulePtr& rule : rhodf_.rules()) {
    EXPECT_TRUE(Edge(rule->name(), "PRP-SPO1")) << rule->name();
    EXPECT_TRUE(Edge(rule->name(), "PRP-DOM")) << rule->name();
    EXPECT_TRUE(Edge(rule->name(), "PRP-RNG")) << rule->name();
  }
}

TEST_F(DependencyGraphTest, PrpSpo1FeedsEverything) {
  // PRP-SPO1 can emit any predicate, so its distributor must route to all
  // buffers.
  for (const RulePtr& rule : rhodf_.rules()) {
    EXPECT_TRUE(Edge("PRP-SPO1", rule->name())) << rule->name();
  }
}

TEST_F(DependencyGraphTest, TypeProducersDoNotFeedPureSchemaRules) {
  // CAX-SCO emits only rdf:type triples; SCM-SCO consumes only subClassOf.
  EXPECT_FALSE(Edge("CAX-SCO", "SCM-SCO"));
  EXPECT_FALSE(Edge("CAX-SCO", "SCM-DOM2"));
  EXPECT_FALSE(Edge("PRP-DOM", "SCM-SPO"));
}

TEST_F(DependencyGraphTest, CaxScoFeedsItselfThroughTypeTriples) {
  EXPECT_TRUE(Edge("CAX-SCO", "CAX-SCO"));
}

TEST_F(DependencyGraphTest, DotOutputContainsAllRulesAndFigure2Edge) {
  const std::string dot = graph_.ToDot(rhodf_);
  for (const RulePtr& rule : rhodf_.rules()) {
    EXPECT_NE(dot.find(rule->name()), std::string::npos) << rule->name();
  }
  EXPECT_NE(dot.find("\"SCM-SCO\" -> \"CAX-SCO\""), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST_F(DependencyGraphTest, TextOutputListsEdges) {
  const std::string text = graph_.ToText(rhodf_);
  EXPECT_NE(text.find("SCM-SCO -> CAX-SCO"), std::string::npos);
  // Edge count in the text matches num_edges().
  const size_t lines = static_cast<size_t>(
      std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, graph_.num_edges());
}

TEST_F(DependencyGraphTest, RdfsGraphRoutesAxiomRulesIntoHierarchyRules) {
  Fragment rdfs = Fragment::Rdfs(vocab_);
  DependencyGraph g = DependencyGraph::Build(rdfs);
  const int rdfs10 = rdfs.IndexOf("RDFS10");
  const int scm_sco = rdfs.IndexOf("SCM-SCO");
  const int cax_sco = rdfs.IndexOf("CAX-SCO");
  const int rdfs6 = rdfs.IndexOf("RDFS6");
  const int scm_spo = rdfs.IndexOf("SCM-SPO");
  ASSERT_GE(rdfs10, 0);
  // RDFS10 emits subClassOf triples -> SCM-SCO and CAX-SCO consume them.
  EXPECT_TRUE(g.HasEdge(rdfs10, scm_sco));
  EXPECT_TRUE(g.HasEdge(rdfs10, cax_sco));
  // RDFS6 emits subPropertyOf -> SCM-SPO consumes.
  EXPECT_TRUE(g.HasEdge(rdfs6, scm_spo));
  // CAX-SCO emits type -> RDFS10 consumes type.
  EXPECT_TRUE(g.HasEdge(cax_sco, rdfs10));
}

TEST_F(DependencyGraphTest, CustomFragmentGetsDerivedGraph) {
  // A custom fragment with a single transitivity rule over a user property
  // must yield exactly the self-edge.
  Fragment f("custom");
  const TermId part_of = dict_.Encode("<http://example.org/partOf>");
  const GoalTerm p = GoalTerm::Const(part_of);
  const GoalTerm a = GoalTerm::Var(0), b = GoalTerm::Var(1),
                 c = GoalTerm::Var(2);
  f.AddRule(MakeRule("PART-OF-TRANS",
                     "<a partOf b> ^ <b partOf c> -> <a partOf c>",
                     {{{a, p, c}, {{a, p, b}, {b, p, c}}}}));
  DependencyGraph g = DependencyGraph::Build(f);
  EXPECT_EQ(g.num_rules(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

}  // namespace
}  // namespace slider
