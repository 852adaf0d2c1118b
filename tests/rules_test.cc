#include <gtest/gtest.h>

#include <algorithm>

#include "reason/fragment.h"

namespace slider {
namespace {

/// Shared fixture: a dictionary with registered vocabulary, the full RDFS
/// rule set (RDFS4a/4b included), a store, and term shorthands.
class RulesTest : public ::testing::Test {
 protected:
  RulesTest()
      : vocab_(Vocabulary::Register(&dict_)),
        rdfs_(Fragment::Rdfs(vocab_, /*include_rdfs4=*/true)) {}

  /// The shipped rule named `name`, as built from its clause table.
  const Rule& RuleNamed(const std::string& name) {
    const int index = rdfs_.IndexOf(name);
    EXPECT_GE(index, 0) << name;
    return *rdfs_.rules()[static_cast<size_t>(index)];
  }

  TermId T(const std::string& local) {
    return dict_.Encode("<http://example.org/" + local + ">");
  }

  /// Applies `rule` to `delta` after inserting both `store_contents` and
  /// `delta` into the store (the engine invariant: store ⊇ delta).
  TripleVec Run(const Rule& rule, TripleVec store_contents, TripleVec delta) {
    store_.AddAll(store_contents, nullptr);
    store_.AddAll(delta, nullptr);
    TripleVec out;
    rule.Apply(delta, store_.GetView(), &out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  Dictionary dict_;
  Vocabulary vocab_ = Vocabulary{};
  Fragment rdfs_;
  TripleStore store_;
};

// ---------------------------------------------------------------------------
// CAX-SCO
// ---------------------------------------------------------------------------

TEST_F(RulesTest, CaxScoSchemaInStoreInstanceInDelta) {
  const Rule& rule = RuleNamed("CAX-SCO");
  const TermId c1 = T("C1"), c2 = T("C2"), x = T("x");
  auto out = Run(rule, {{c1, vocab_.sub_class_of, c2}}, {{x, vocab_.type, c1}});
  EXPECT_EQ(out, (TripleVec{{x, vocab_.type, c2}}));
}

TEST_F(RulesTest, CaxScoInstanceInStoreSchemaInDelta) {
  const Rule& rule = RuleNamed("CAX-SCO");
  const TermId c1 = T("C1"), c2 = T("C2"), x = T("x");
  auto out = Run(rule, {{x, vocab_.type, c1}}, {{c1, vocab_.sub_class_of, c2}});
  EXPECT_EQ(out, (TripleVec{{x, vocab_.type, c2}}));
}

TEST_F(RulesTest, CaxScoBothInDelta) {
  const Rule& rule = RuleNamed("CAX-SCO");
  const TermId c1 = T("C1"), c2 = T("C2"), x = T("x");
  // Both antecedents arrive in the same batch: the store-side join covers
  // delta×delta because the engine stores the delta before applying.
  auto out = Run(rule, {}, {{c1, vocab_.sub_class_of, c2}, {x, vocab_.type, c1}});
  EXPECT_EQ(out, (TripleVec{{x, vocab_.type, c2}}));
}

TEST_F(RulesTest, CaxScoIgnoresUnrelatedPredicates) {
  const Rule& rule = RuleNamed("CAX-SCO");
  const TermId a = T("a"), b = T("b"), p = T("p");
  auto out = Run(rule, {{a, p, b}}, {{b, p, a}});
  EXPECT_TRUE(out.empty());
}

TEST_F(RulesTest, CaxScoMultipleInstancesFanOut) {
  const Rule& rule = RuleNamed("CAX-SCO");
  const TermId c1 = T("C1"), c2 = T("C2");
  const TermId x = T("x"), y = T("y"), z = T("z");
  auto out = Run(rule,
                 {{x, vocab_.type, c1}, {y, vocab_.type, c1}, {z, vocab_.type, c2}},
                 {{c1, vocab_.sub_class_of, c2}});
  EXPECT_EQ(out, (TripleVec{{x, vocab_.type, c2}, {y, vocab_.type, c2}}));
}

TEST_F(RulesTest, CaxScoAcceptsOnlyItsInputPredicates) {
  const Rule& rule = RuleNamed("CAX-SCO");
  EXPECT_TRUE(rule.AcceptsPredicate(vocab_.type));
  EXPECT_TRUE(rule.AcceptsPredicate(vocab_.sub_class_of));
  EXPECT_FALSE(rule.AcceptsPredicate(vocab_.domain));
  EXPECT_FALSE(rule.HasUniversalInput());
  EXPECT_FALSE(rule.OutputsAnyPredicate());
}

// ---------------------------------------------------------------------------
// SCM-SCO / SCM-SPO
// ---------------------------------------------------------------------------

TEST_F(RulesTest, ScmScoExtendsRight) {
  const Rule& rule = RuleNamed("SCM-SCO");
  const TermId a = T("A"), b = T("B"), c = T("C");
  auto out = Run(rule, {{b, vocab_.sub_class_of, c}}, {{a, vocab_.sub_class_of, b}});
  EXPECT_EQ(out, (TripleVec{{a, vocab_.sub_class_of, c}}));
}

TEST_F(RulesTest, ScmScoExtendsLeft) {
  const Rule& rule = RuleNamed("SCM-SCO");
  const TermId a = T("A"), b = T("B"), c = T("C");
  auto out = Run(rule, {{a, vocab_.sub_class_of, b}}, {{b, vocab_.sub_class_of, c}});
  EXPECT_EQ(out, (TripleVec{{a, vocab_.sub_class_of, c}}));
}

TEST_F(RulesTest, ScmScoSelfLoopDoesNotExplode) {
  const Rule& rule = RuleNamed("SCM-SCO");
  const TermId a = T("A");
  auto out = Run(rule, {}, {{a, vocab_.sub_class_of, a}});
  // Only the (idempotent) self loop can be derived.
  EXPECT_EQ(out, (TripleVec{{a, vocab_.sub_class_of, a}}));
}

TEST_F(RulesTest, ScmSpoTransitivity) {
  const Rule& rule = RuleNamed("SCM-SPO");
  const TermId p = T("p"), q = T("q"), r = T("r");
  auto out = Run(rule, {{p, vocab_.sub_property_of, q}},
                 {{q, vocab_.sub_property_of, r}});
  EXPECT_EQ(out, (TripleVec{{p, vocab_.sub_property_of, r}}));
}

// ---------------------------------------------------------------------------
// PRP-SPO1
// ---------------------------------------------------------------------------

TEST_F(RulesTest, PrpSpo1RewritesStoredInstances) {
  const Rule& rule = RuleNamed("PRP-SPO1");
  const TermId p1 = T("p1"), p2 = T("p2"), x = T("x"), y = T("y");
  auto out = Run(rule, {{x, p1, y}}, {{p1, vocab_.sub_property_of, p2}});
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(std::find(out.begin(), out.end(), Triple(x, p2, y)) != out.end());
}

TEST_F(RulesTest, PrpSpo1RewritesDeltaInstances) {
  const Rule& rule = RuleNamed("PRP-SPO1");
  const TermId p1 = T("p1"), p2 = T("p2"), x = T("x"), y = T("y");
  auto out = Run(rule, {{p1, vocab_.sub_property_of, p2}}, {{x, p1, y}});
  EXPECT_EQ(out, (TripleVec{{x, p2, y}}));
}

TEST_F(RulesTest, PrpSpo1IsUniversalAndEmitsAnyPredicate) {
  const Rule& rule = RuleNamed("PRP-SPO1");
  EXPECT_TRUE(rule.HasUniversalInput());
  EXPECT_TRUE(rule.OutputsAnyPredicate());
  EXPECT_TRUE(rule.AcceptsPredicate(T("anything")));
}

TEST_F(RulesTest, PrpSpo1SubPropertyOfItselfIsAnInstanceToo) {
  const Rule& rule = RuleNamed("PRP-SPO1");
  // <subPropertyOf subPropertyOf relatesTo> makes every subPropertyOf
  // statement also a relatesTo statement — subPropertyOf used as plain
  // property.
  const TermId rel = T("relatesTo"), p = T("p"), q = T("q");
  auto out = Run(rule, {{vocab_.sub_property_of, vocab_.sub_property_of, rel}},
                 {{p, vocab_.sub_property_of, q}});
  EXPECT_TRUE(std::find(out.begin(), out.end(), Triple(p, rel, q)) != out.end());
}

// ---------------------------------------------------------------------------
// PRP-DOM / PRP-RNG
// ---------------------------------------------------------------------------

TEST_F(RulesTest, PrpDomTypesSubjects) {
  const Rule& rule = RuleNamed("PRP-DOM");
  const TermId p = T("p"), c = T("C"), x = T("x"), y = T("y");
  // Schema in delta, instance in store.
  auto out1 = Run(rule, {{x, p, y}}, {{p, vocab_.domain, c}});
  EXPECT_EQ(out1, (TripleVec{{x, vocab_.type, c}}));
}

TEST_F(RulesTest, PrpDomInstanceInDelta) {
  const Rule& rule = RuleNamed("PRP-DOM");
  const TermId p = T("p"), c = T("C"), x = T("x"), y = T("y");
  auto out = Run(rule, {{p, vocab_.domain, c}}, {{x, p, y}});
  EXPECT_EQ(out, (TripleVec{{x, vocab_.type, c}}));
}

TEST_F(RulesTest, PrpRngTypesObjects) {
  const Rule& rule = RuleNamed("PRP-RNG");
  const TermId p = T("p"), c = T("C"), x = T("x"), y = T("y");
  auto out = Run(rule, {{p, vocab_.range, c}}, {{x, p, y}});
  EXPECT_EQ(out, (TripleVec{{y, vocab_.type, c}}));
}

TEST_F(RulesTest, PrpRngSchemaInDelta) {
  const Rule& rule = RuleNamed("PRP-RNG");
  const TermId p = T("p"), c = T("C"), x = T("x"), y = T("y");
  auto out = Run(rule, {{x, p, y}}, {{p, vocab_.range, c}});
  EXPECT_EQ(out, (TripleVec{{y, vocab_.type, c}}));
}

TEST_F(RulesTest, PrpDomAndRngAreUniversalInput) {
  const Rule& dom = RuleNamed("PRP-DOM");
  const Rule& rng = RuleNamed("PRP-RNG");
  EXPECT_TRUE(dom.HasUniversalInput());
  EXPECT_TRUE(rng.HasUniversalInput());
}

// ---------------------------------------------------------------------------
// SCM-DOM2 / SCM-RNG2
// ---------------------------------------------------------------------------

TEST_F(RulesTest, ScmDom2InheritsDomain) {
  const Rule& rule = RuleNamed("SCM-DOM2");
  const TermId p1 = T("p1"), p2 = T("p2"), c = T("C");
  auto out1 = Run(rule, {{p2, vocab_.domain, c}},
                  {{p1, vocab_.sub_property_of, p2}});
  EXPECT_EQ(out1, (TripleVec{{p1, vocab_.domain, c}}));
}

TEST_F(RulesTest, ScmDom2DomainInDelta) {
  const Rule& rule = RuleNamed("SCM-DOM2");
  const TermId p1 = T("p1"), p2 = T("p2"), c = T("C");
  auto out = Run(rule, {{p1, vocab_.sub_property_of, p2}},
                 {{p2, vocab_.domain, c}});
  EXPECT_EQ(out, (TripleVec{{p1, vocab_.domain, c}}));
}

TEST_F(RulesTest, ScmRng2InheritsRange) {
  const Rule& rule = RuleNamed("SCM-RNG2");
  const TermId p1 = T("p1"), p2 = T("p2"), c = T("C");
  auto out = Run(rule, {{p2, vocab_.range, c}},
                 {{p1, vocab_.sub_property_of, p2}});
  EXPECT_EQ(out, (TripleVec{{p1, vocab_.range, c}}));
}

TEST_F(RulesTest, ScmRng2DoesNotMixUpDirection) {
  const Rule& rule = RuleNamed("SCM-RNG2");
  const TermId p1 = T("p1"), p2 = T("p2"), c = T("C");
  // Range on the SUB-property must not propagate to the super-property.
  auto out = Run(rule, {{p1, vocab_.range, c}},
                 {{p1, vocab_.sub_property_of, p2}});
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// RDFS axiom rules
// ---------------------------------------------------------------------------

TEST_F(RulesTest, Rdfs6PropertyIsSubPropertyOfItself) {
  const Rule& rule = RuleNamed("RDFS6");
  const TermId p = T("p");
  auto out = Run(rule, {}, {{p, vocab_.type, vocab_.property}});
  EXPECT_EQ(out, (TripleVec{{p, vocab_.sub_property_of, p}}));
}

TEST_F(RulesTest, Rdfs8ClassIsSubClassOfResource) {
  const Rule& rule = RuleNamed("RDFS8");
  const TermId c = T("C");
  auto out = Run(rule, {}, {{c, vocab_.type, vocab_.rdfs_class}});
  EXPECT_EQ(out, (TripleVec{{c, vocab_.sub_class_of, vocab_.resource}}));
}

TEST_F(RulesTest, Rdfs10ClassIsSubClassOfItself) {
  const Rule& rule = RuleNamed("RDFS10");
  const TermId c = T("C");
  auto out = Run(rule, {}, {{c, vocab_.type, vocab_.rdfs_class}});
  EXPECT_EQ(out, (TripleVec{{c, vocab_.sub_class_of, c}}));
}

TEST_F(RulesTest, Rdfs12ContainerMembershipProperty) {
  const Rule& rule = RuleNamed("RDFS12");
  const TermId p = T("member1");
  auto out = Run(rule, {}, {{p, vocab_.type, vocab_.container_membership}});
  EXPECT_EQ(out, (TripleVec{{p, vocab_.sub_property_of, vocab_.member}}));
}

TEST_F(RulesTest, Rdfs13DatatypeIsSubClassOfLiteral) {
  const Rule& rule = RuleNamed("RDFS13");
  const TermId d = T("MyDatatype");
  auto out = Run(rule, {}, {{d, vocab_.type, vocab_.datatype}});
  EXPECT_EQ(out, (TripleVec{{d, vocab_.sub_class_of, vocab_.literal}}));
}

TEST_F(RulesTest, TypeAxiomRulesIgnoreOtherTypes) {
  const Rule& rule = RuleNamed("RDFS10");
  const TermId x = T("x"), c = T("C");
  auto out = Run(rule, {}, {{x, vocab_.type, c}});
  EXPECT_TRUE(out.empty());
}

TEST_F(RulesTest, Rdfs4aTypesSubjectAsResource) {
  const Rule& rule = RuleNamed("RDFS4A");
  const TermId x = T("x"), y = T("y"), p = T("p");
  auto out = Run(rule, {}, {{x, p, y}});
  EXPECT_EQ(out, (TripleVec{{x, vocab_.type, vocab_.resource}}));
  EXPECT_TRUE(rule.HasUniversalInput());
}

TEST_F(RulesTest, Rdfs4bTypesObjectAsResource) {
  const Rule& rule = RuleNamed("RDFS4B");
  const TermId x = T("x"), y = T("y"), p = T("p");
  auto out = Run(rule, {}, {{x, p, y}});
  EXPECT_EQ(out, (TripleVec{{y, vocab_.type, vocab_.resource}}));
}

// ---------------------------------------------------------------------------
// Clause shapes no shipped rule has: a variable repeated within one atom,
// and a join step whose predicate is still unbound.
// ---------------------------------------------------------------------------

TEST_F(RulesTest, VariableRepeatedWithinAnAtomJoinsOnEquality) {
  // <p type Marker> ^ <x p x> -> <x type Loop>
  const TermId marker = T("Marker"), loop = T("Loop"), p = T("p");
  const TermId a = T("a"), b = T("b"), c = T("c");
  const GoalTerm x = GoalTerm::Var(0), pv = GoalTerm::Var(1);
  const GoalTerm type = GoalTerm::Const(vocab_.type);
  const RulePtr rule = MakeRule(
      "LOOP", "<p type Marker> ^ <x p x> -> <x type Loop>",
      {{{x, type, GoalTerm::Const(loop)},
        {{pv, type, GoalTerm::Const(marker)}, {x, pv, x}}}});
  // Declaration in the delta: the store-side step keeps <a p a> only.
  EXPECT_EQ(Run(*rule, {{a, p, a}, {a, p, b}}, {{p, vocab_.type, marker}}),
            (TripleVec{{a, vocab_.type, loop}}));
  // Instances in the delta: the entry atom itself requires x == x.
  EXPECT_EQ(Run(*rule, {}, {{b, p, b}, {b, p, c}}),
            (TripleVec{{b, vocab_.type, loop}}));
  EXPECT_TRUE(rule->CanDerive({a, vocab_.type, loop}, store_.GetView()));
  EXPECT_FALSE(rule->CanDerive({c, vocab_.type, loop}, store_.GetView()));
}

TEST_F(RulesTest, JoinStepWithUnboundPredicateScansEveryPartition) {
  // <x type Tagged> ^ <x q y> -> <x linksTo y>, for any predicate q.
  const TermId tagged = T("Tagged"), links = T("linksTo");
  const TermId p = T("p"), q = T("q"), a = T("a"), b = T("b"), c = T("c"),
               d = T("d"), e = T("e");
  const GoalTerm x = GoalTerm::Var(0), qv = GoalTerm::Var(1),
                 y = GoalTerm::Var(2);
  const RulePtr rule = MakeRule(
      "LINKS", "<x type Tagged> ^ <x q y> -> <x linksTo y>",
      {{{x, GoalTerm::Const(links), y},
        {{x, GoalTerm::Const(vocab_.type), GoalTerm::Const(tagged)},
         {x, qv, y}}}});
  EXPECT_TRUE(rule->HasUniversalInput());
  EXPECT_FALSE(rule->OutputsAnyPredicate());
  // <a type Tagged> is itself an <x q y> statement of x = a.
  EXPECT_EQ(Run(*rule, {{a, p, b}, {a, q, c}, {d, p, e}},
                {{a, vocab_.type, tagged}}),
            (TripleVec{{a, links, tagged}, {a, links, b}, {a, links, c}}));
  EXPECT_TRUE(rule->CanDerive({a, links, c}, store_.GetView()));
  EXPECT_FALSE(rule->CanDerive({d, links, e}, store_.GetView()));
}

TEST_F(RulesTest, RuleNamesAndDefinitionsAreExposed) {
  const Rule& cax = RuleNamed("CAX-SCO");
  EXPECT_EQ(cax.name(), "CAX-SCO");
  EXPECT_FALSE(cax.Definition().empty());
  EXPECT_EQ(RuleNamed("RDFS6").name(), "RDFS6");
}

}  // namespace
}  // namespace slider
