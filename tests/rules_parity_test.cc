// Pins the forward join of every shipped rule. For one fixed store and one
// mixed delta, each rule of the ρdf, RDFS (RDFS4a/4b included) and OWL
// fragments must emit exactly the sorted multiset below, duplicates
// included: a pair whose antecedents both sit in the delta is found from
// both sides, once per direction. The fixture holds late schema
// declarations over stored data and such same-delta pairs. The expected
// multisets and predicate sets are those of the hand-written per-rule join
// bodies that the clause-compiled join replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "reason/fragment.h"
#include "reason/rules_owl.h"

namespace slider {
namespace {

// The fixture, by local names: "type", "sco", "spo", "domain", "range",
// "inverseOf", "TransitiveProperty", "SymmetricProperty", "Property",
// "Class", "CMP" (ContainerMembershipProperty) and "Datatype" name the
// vocabulary; every other name is a fresh IRI.
struct NamedTriple {
  const char* s;
  const char* p;
  const char* o;
};

const NamedTriple kParityStore[] = {
    {"C1", "sco", "C2"},       {"C2", "sco", "C3"},
    {"x", "type", "C1"},       {"y", "type", "C2"},
    {"p0", "spo", "p1"},       {"p1", "spo", "p2"},
    {"p2", "spo", "p3"},       {"x", "p1", "y"},
    {"y", "p2", "z"},          {"p2", "domain", "D"},
    {"p3", "range", "R"},      {"p4", "domain", "D4"},
    {"D", "sco", "C3"},        {"R2", "sco", "R3"},
    {"a", "tp", "b"},          {"b", "tp", "c"},
    {"a", "sym", "b"},         {"h", "inverseOf", "hInv"},
    {"a", "h", "b"},           {"t2", "type", "TransitiveProperty"},
    {"m", "t2", "n"},          {"P", "type", "Property"},
    {"K", "type", "Class"},    {"spo", "spo", "rel"},
};

const NamedTriple kParityDelta[] = {
    // Late schema declarations over data already stored.
    {"tp", "type", "TransitiveProperty"},
    {"sym", "type", "SymmetricProperty"},
    {"p1", "inverseOf", "q1"},
    {"C3", "sco", "C4"},
    {"p3", "spo", "p4"},
    {"p1", "domain", "D2"},
    {"p2", "range", "R2"},
    // Both antecedents of a pair in this same delta.
    {"E1", "sco", "E2"},       {"u", "type", "E1"},
    {"r1", "spo", "r2"},       {"u", "r1", "v"},
    {"r2", "domain", "E1"},    {"D2", "sco", "C5"},
    {"c", "tp", "d"},          {"b", "sym", "e"},
    // Instances joining stored schema.
    {"z", "p1", "w"},          {"x", "type", "C2"},
    {"n", "t2", "o"},          {"b", "hInv", "a2"},
    // RDFS axiom triggers.
    {"N", "type", "Class"},    {"Q", "type", "Property"},
    {"M", "type", "CMP"},      {"Dt", "type", "Datatype"},
};

struct ExpectedRule {
  const char* name;
  std::vector<std::string> inputs;   ///< sorted; empty = universal input
  std::vector<std::string> outputs;  ///< sorted
  bool outputs_any;
  std::vector<std::string> derived;  ///< sorted multiset of Apply's output
};

const ExpectedRule kExpected[] = {
    {"SCM-SCO",
     {"sco"},
     {"sco"},
     false,
     {"C2 sco C4",
      "D sco C4"}},
    {"SCM-SPO",
     {"spo"},
     {"spo"},
     false,
     {"p2 spo p4"}},
    {"CAX-SCO",
     {"sco", "type"},
     {"type"},
     false,
     {"u type E2",
      "u type E2",
      "x type C3"}},
    {"PRP-SPO1",
     {},
     {},
     true,
     {"p3 rel p4",
      "r1 rel r2",
      "u r2 v",
      "u r2 v",
      "z p2 w"}},
    {"PRP-DOM",
     {},
     {"type"},
     false,
     {"x type D2",
      "z type D2",
      "z type D2"}},
    {"PRP-RNG",
     {},
     {"type"},
     false,
     {"z type R2"}},
    {"SCM-DOM2",
     {"domain", "spo"},
     {"domain"},
     false,
     {"p0 domain D2",
      "p3 domain D4",
      "r1 domain E1",
      "r1 domain E1"}},
    {"SCM-RNG2",
     {"range", "spo"},
     {"range"},
     false,
     {"p1 range R2"}},
    {"RDFS6",
     {"type"},
     {"spo"},
     false,
     {"Q spo Q"}},
    {"RDFS8",
     {"type"},
     {"sco"},
     false,
     {"N sco Resource"}},
    {"RDFS10",
     {"type"},
     {"sco"},
     false,
     {"N sco N"}},
    {"RDFS12",
     {"type"},
     {"spo"},
     false,
     {"M spo member"}},
    {"RDFS13",
     {"type"},
     {"sco"},
     false,
     {"Dt sco Literal"}},
    {"RDFS4A",
     {},
     {"type"},
     false,
     {"C3 type Resource",
      "D2 type Resource",
      "Dt type Resource",
      "E1 type Resource",
      "M type Resource",
      "N type Resource",
      "Q type Resource",
      "b type Resource",
      "b type Resource",
      "c type Resource",
      "n type Resource",
      "p1 type Resource",
      "p1 type Resource",
      "p2 type Resource",
      "p3 type Resource",
      "r1 type Resource",
      "r2 type Resource",
      "sym type Resource",
      "tp type Resource",
      "u type Resource",
      "u type Resource",
      "x type Resource",
      "z type Resource"}},
    {"RDFS4B",
     {},
     {"type"},
     false,
     {"C2 type Resource",
      "C4 type Resource",
      "C5 type Resource",
      "CMP type Resource",
      "Class type Resource",
      "D2 type Resource",
      "Datatype type Resource",
      "E1 type Resource",
      "E1 type Resource",
      "E2 type Resource",
      "Property type Resource",
      "R2 type Resource",
      "SymmetricProperty type Resource",
      "TransitiveProperty type Resource",
      "a2 type Resource",
      "d type Resource",
      "e type Resource",
      "o type Resource",
      "p4 type Resource",
      "q1 type Resource",
      "r2 type Resource",
      "v type Resource",
      "w type Resource"}},
    {"PRP-INV",
     {},
     {},
     true,
     {"a2 h b",
      "w q1 z",
      "w q1 z",
      "y q1 x"}},
    {"PRP-TRP",
     {},
     {},
     true,
     {"a tp c",
      "b tp d",
      "b tp d",
      "m t2 o"}},
    {"PRP-SYMP",
     {},
     {},
     true,
     {"b sym a",
      "e sym b",
      "e sym b"}},
    {"SCM-DOM1",
     {"domain", "sco"},
     {"domain"},
     false,
     {"p1 domain C5",
      "p1 domain C5",
      "r2 domain E2",
      "r2 domain E2"}},
    {"SCM-RNG1",
     {"range", "sco"},
     {"range"},
     false,
     {"p2 range R3"}},
};

class RuleParityTest : public ::testing::Test {
 protected:
  RuleParityTest() : vocab_(Vocabulary::Register(&dict_)) {
    const OwlTerms owl = OwlTerms::Register(&dict_);
    names_ = {{"type", vocab_.type},
              {"sco", vocab_.sub_class_of},
              {"spo", vocab_.sub_property_of},
              {"domain", vocab_.domain},
              {"range", vocab_.range},
              {"Property", vocab_.property},
              {"Class", vocab_.rdfs_class},
              {"CMP", vocab_.container_membership},
              {"Datatype", vocab_.datatype},
              {"Resource", vocab_.resource},
              {"Literal", vocab_.literal},
              {"member", vocab_.member},
              {"inverseOf", owl.inverse_of},
              {"TransitiveProperty", owl.transitive_property},
              {"SymmetricProperty", owl.symmetric_property}};
    for (const auto& [name, id] : names_) labels_[id] = name;
    TripleVec contents;
    for (const NamedTriple& t : kParityStore) contents.push_back(Encode(t));
    for (const NamedTriple& t : kParityDelta) delta_.push_back(Encode(t));
    // The engine's invariant: the store already holds the delta.
    store_.AddAll(contents, nullptr);
    store_.AddAll(delta_, nullptr);
    // Every shipped rule once: full RDFS, then the OWL-only rules.
    const Fragment rdfs = Fragment::Rdfs(vocab_, /*include_rdfs4=*/true);
    const Fragment owl_lite = OwlLiteFragment(vocab_, &dict_);
    rules_ = rdfs.rules();
    for (const RulePtr& rule : owl_lite.rules()) {
      if (rdfs.IndexOf(rule->name()) < 0) rules_.push_back(rule);
    }
  }

  TermId Id(const std::string& name) {
    const auto it = names_.find(name);
    if (it != names_.end()) return it->second;
    const TermId id = dict_.Encode("<http://parity/" + name + ">");
    names_[name] = id;
    labels_[id] = name;
    return id;
  }

  Triple Encode(const NamedTriple& t) {
    return Triple(Id(t.s), Id(t.p), Id(t.o));
  }

  std::vector<std::string> Labels(const std::vector<TermId>& ids) {
    std::vector<std::string> out;
    for (const TermId id : ids) out.push_back(labels_.at(id));
    std::sort(out.begin(), out.end());
    return out;
  }

  const Rule* Find(const std::string& name) const {
    for (const RulePtr& rule : rules_) {
      if (rule->name() == name) return rule.get();
    }
    return nullptr;
  }

  Dictionary dict_;
  Vocabulary vocab_;
  std::map<std::string, TermId> names_;
  std::map<TermId, std::string> labels_;
  TripleVec delta_;
  TripleStore store_;
  std::vector<RulePtr> rules_;
};

TEST_F(RuleParityTest, EveryShippedRuleEmitsThePinnedMultiset) {
  ASSERT_EQ(rules_.size(), std::size(kExpected));
  for (const ExpectedRule& expected : kExpected) {
    const Rule* rule = Find(expected.name);
    ASSERT_NE(rule, nullptr) << expected.name;
    TripleVec out;
    rule->Apply(delta_, store_.GetView(), &out);
    std::vector<std::string> derived;
    for (const Triple& t : out) {
      derived.push_back(labels_.at(t.s) + " " + labels_.at(t.p) + " " +
                        labels_.at(t.o));
    }
    std::sort(derived.begin(), derived.end());
    EXPECT_EQ(derived, expected.derived) << expected.name;
  }
}

TEST_F(RuleParityTest, DerivedPredicateSetsMatchTheHandListedOnes) {
  for (const ExpectedRule& expected : kExpected) {
    const Rule* rule = Find(expected.name);
    ASSERT_NE(rule, nullptr) << expected.name;
    EXPECT_EQ(Labels(rule->InputPredicates()), expected.inputs)
        << expected.name;
    EXPECT_EQ(Labels(rule->OutputPredicates()), expected.outputs)
        << expected.name;
    EXPECT_EQ(rule->OutputsAnyPredicate(), expected.outputs_any)
        << expected.name;
    EXPECT_EQ(rule->HasUniversalInput(), expected.inputs.empty())
        << expected.name;
  }
}

}  // namespace
}  // namespace slider
