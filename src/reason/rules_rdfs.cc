// The RDFS fragment's clause table: ρdf plus the single-antecedent RDFS
// axiom rules (W3C RDF Semantics entailment rule names). Having a one-atom
// body, these rules never join with the store: each matching delta triple
// grounds the head directly.

#include "reason/fragment.h"

namespace slider {

namespace {
GoalTerm C(TermId t) { return GoalTerm::Const(t); }
GoalTerm V(int v) { return GoalTerm::Var(v); }

/// <x type K> → <x P obj>. The reflexive instances (RDFS6/RDFS10) pass
/// V(0) as `obj`, so the head repeats the subject in the object position.
RulePtr TypeAxiom(std::string name, std::string definition, const Vocabulary& v,
                  TermId trigger_class, TermId out_predicate, GoalTerm obj) {
  return MakeRule(std::move(name), std::move(definition),
                  {{{V(0), C(out_predicate), obj},
                    {{V(0), C(v.type), C(trigger_class)}}}});
}
}  // namespace

Fragment Fragment::Rdfs(const Vocabulary& v, bool include_rdfs4) {
  // Rebadge: the same ρdf rule objects, larger fragment.
  const Fragment rhodf = RhoDf(v);
  Fragment rdfs(include_rdfs4 ? "rdfs-full" : "rdfs");
  for (const RulePtr& rule : rhodf.rules()) {
    rdfs.AddRule(rule);
  }
  rdfs.AddRule(TypeAxiom("RDFS6", "<p type Property> -> <p subPropertyOf p>",
                         v, v.property, v.sub_property_of, V(0)));
  rdfs.AddRule(TypeAxiom("RDFS8", "<c type Class> -> <c subClassOf Resource>",
                         v, v.rdfs_class, v.sub_class_of, C(v.resource)));
  rdfs.AddRule(TypeAxiom("RDFS10", "<c type Class> -> <c subClassOf c>", v,
                         v.rdfs_class, v.sub_class_of, V(0)));
  rdfs.AddRule(TypeAxiom(
      "RDFS12",
      "<p type ContainerMembershipProperty> -> <p subPropertyOf member>", v,
      v.container_membership, v.sub_property_of, C(v.member)));
  rdfs.AddRule(TypeAxiom("RDFS13",
                         "<d type Datatype> -> <d subClassOf Literal>", v,
                         v.datatype, v.sub_class_of, C(v.literal)));
  if (include_rdfs4) {
    // The "everything is a Resource" rules: part of full RDFS entailment
    // but suppressed by default, as optimised rulesets (incl. OWLIM's) do.
    // The head variable sits in the subject (4a) or object (4b) of a
    // universal evidence atom; the other positions are don't-cares.
    rdfs.AddRule(MakeRule("RDFS4A", "<x p y> -> <x type Resource>",
                          {{{V(0), C(v.type), C(v.resource)},
                            {{V(0), V(1), V(2)}}}}));
    rdfs.AddRule(MakeRule("RDFS4B", "<x p y> -> <y type Resource>",
                          {{{V(0), C(v.type), C(v.resource)},
                            {{V(1), V(2), V(0)}}}}));
  }
  return rdfs;
}

}  // namespace slider
