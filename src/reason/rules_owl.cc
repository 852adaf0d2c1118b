// The extension fragment's clause table: RDFS plus five OWL 2 RL rules.

#include "reason/rules_owl.h"

namespace slider {

namespace {
GoalTerm C(TermId t) { return GoalTerm::Const(t); }
GoalTerm V(int v) { return GoalTerm::Var(v); }
}  // namespace

OwlTerms OwlTerms::Register(Dictionary* dict) {
  OwlTerms owl;
  owl.inverse_of = dict->Encode(iri::kOwlInverseOf);
  owl.transitive_property = dict->Encode(iri::kOwlTransitiveProperty);
  owl.symmetric_property = dict->Encode(iri::kOwlSymmetricProperty);
  return owl;
}

Fragment OwlLiteFragment(const Vocabulary& v, Dictionary* dict) {
  const OwlTerms owl = OwlTerms::Register(dict);
  const Fragment rdfs = Fragment::Rdfs(v);
  Fragment f("owl-lite");
  for (const RulePtr& rule : rdfs.rules()) {
    f.AddRule(rule);
  }
  // head <y p2 x>  ⇐  <p1 inverseOf p2> ∧ <x p1 y>, once per declaration
  // direction (inverseOf is symmetric in effect). The head predicate is a
  // variable bound through the inverseOf meta-edge.
  f.AddRule(MakeRule(
      "PRP-INV", "<p1 inverseOf p2> ^ <x p1 y> -> <y p2 x> (and vice versa)",
      {{{V(0), V(1), V(2)},
        {{V(3), C(owl.inverse_of), V(1)}, {V(2), V(3), V(0)}}},
       {{V(0), V(1), V(2)},
        {{V(1), C(owl.inverse_of), V(3)}, {V(2), V(3), V(0)}}}}));
  // head <x p z>  ⇐  <p type TransitiveProperty> ∧ <x p y> ∧ <y p z>. A
  // late declaration re-joins the whole partition of p, so declaration
  // order does not matter. Once a goal pins p, the guard atom is ground
  // and the rest is the self-transitive shape the chainer answers by
  // reachability.
  f.AddRule(MakeRule(
      "PRP-TRP", "<p type TransitiveProperty> ^ <x p y> ^ <y p z> -> <x p z>",
      {{{V(0), V(1), V(2)},
        {{V(1), C(v.type), C(owl.transitive_property)},
         {V(0), V(1), V(3)},
         {V(3), V(1), V(2)}}}}));
  // head <y p x>  ⇐  <p type SymmetricProperty> ∧ <x p y>.
  f.AddRule(MakeRule(
      "PRP-SYMP", "<p type SymmetricProperty> ^ <x p y> -> <y p x>",
      {{{V(0), V(1), V(2)},
        {{V(1), C(v.type), C(owl.symmetric_property)}, {V(2), V(1), V(0)}}}}));
  // head <p domain c2>  ⇐  <p domain c1> ∧ <c1 sco c2>
  f.AddRule(MakeRule(
      "SCM-DOM1", "<p domain c1> ^ <c1 subClassOf c2> -> <p domain c2>",
      {{{V(0), C(v.domain), V(1)},
        {{V(0), C(v.domain), V(2)}, {V(2), C(v.sub_class_of), V(1)}}}}));
  f.AddRule(MakeRule(
      "SCM-RNG1", "<p range c1> ^ <c1 subClassOf c2> -> <p range c2>",
      {{{V(0), C(v.range), V(1)},
        {{V(0), C(v.range), V(2)}, {V(2), C(v.sub_class_of), V(1)}}}}));
  return f;
}

FragmentFactory OwlLiteFactory() {
  return [](const Vocabulary& v, Dictionary* dict) {
    return OwlLiteFragment(v, dict);
  };
}

}  // namespace slider
