// The ρdf fragment's clause table: the eight rules of the paper's Figure 2
// (names follow the OWL 2 RL rule tables of Motik et al. that the paper
// cites).
//
// NOTE on join duplicates: when both antecedents of a pair arrive in the
// same delta batch, the two directions of the Algorithm 1 join derive the
// pair twice (the store already holds the whole batch when Apply runs).
// Suppressing the second derivation with a batch-membership probe was
// evaluated and measured SLOWER than letting the store's duplicate filter
// reject the extra triples: the per-match hash probe costs more than the
// duplicate it saves (see EXPERIMENTS.md, chain discussion). The generic
// join (Rule::Apply) therefore stays the plain two-direction join.
//
// NOTE on clause layout: the clause head's variables come first, join
// variables after. Body order is the join order of every evaluator, so the
// selective schema/declaration atom is listed first.

#include "reason/fragment.h"

namespace slider {

namespace {
GoalTerm C(TermId t) { return GoalTerm::Const(t); }
GoalTerm V(int v) { return GoalTerm::Var(v); }
}  // namespace

Fragment Fragment::RhoDf(const Vocabulary& v) {
  Fragment f("rhodf");
  // head <c1 sco c3>  ⇐  <c1 sco c2> ∧ <c2 sco c3>. The chainer recognizes
  // this self-transitive shape and answers it by reachability instead of
  // clause recursion.
  f.AddRule(MakeRule(
      "SCM-SCO",
      "<c1 subClassOf c2> ^ <c2 subClassOf c3> -> <c1 subClassOf c3>",
      {{{V(0), C(v.sub_class_of), V(1)},
        {{V(0), C(v.sub_class_of), V(2)},
         {V(2), C(v.sub_class_of), V(1)}}}}));
  f.AddRule(MakeRule("SCM-SPO",
                     "<p1 subPropertyOf p2> ^ <p2 subPropertyOf p3> -> "
                     "<p1 subPropertyOf p3>",
                     {{{V(0), C(v.sub_property_of), V(1)},
                       {{V(0), C(v.sub_property_of), V(2)},
                        {V(2), C(v.sub_property_of), V(1)}}}}));
  // The paper's Algorithm 1: head <x type c2>  ⇐  <c1 sco c2> ∧ <x type c1>.
  f.AddRule(MakeRule("CAX-SCO",
                     "<c1 subClassOf c2> ^ <x type c1> -> <x type c2>",
                     {{{V(0), C(v.type), V(1)},
                       {{V(2), C(v.sub_class_of), V(1)},
                        {V(0), C(v.type), V(2)}}}}));
  // head <x p2 y>  ⇐  <p1 spo p2> ∧ <x p1 y>. The variable predicate makes
  // the input universal and the output any predicate; subPropertyOf itself
  // is a property like any other.
  f.AddRule(MakeRule("PRP-SPO1",
                     "<p1 subPropertyOf p2> ^ <x p1 y> -> <x p2 y>",
                     {{{V(0), V(1), V(2)},
                       {{V(3), C(v.sub_property_of), V(1)},
                        {V(0), V(3), V(2)}}}}));
  // head <x type c>  ⇐  <p domain c> ∧ <x p y>; y is a don't-care.
  f.AddRule(MakeRule("PRP-DOM", "<p domain c> ^ <x p y> -> <x type c>",
                     {{{V(0), C(v.type), V(1)},
                       {{V(2), C(v.domain), V(1)}, {V(0), V(2), V(3)}}}}));
  // head <y type c>  ⇐  <p range c> ∧ <x p y>; x is a don't-care.
  f.AddRule(MakeRule("PRP-RNG", "<p range c> ^ <x p y> -> <y type c>",
                     {{{V(0), C(v.type), V(1)},
                       {{V(2), C(v.range), V(1)}, {V(3), V(2), V(0)}}}}));
  // head <p1 domain c>  ⇐  <p1 spo p2> ∧ <p2 domain c>
  f.AddRule(MakeRule(
      "SCM-DOM2", "<p2 domain c> ^ <p1 subPropertyOf p2> -> <p1 domain c>",
      {{{V(0), C(v.domain), V(1)},
        {{V(0), C(v.sub_property_of), V(2)}, {V(2), C(v.domain), V(1)}}}}));
  f.AddRule(MakeRule(
      "SCM-RNG2", "<p2 range c> ^ <p1 subPropertyOf p2> -> <p1 range c>",
      {{{V(0), C(v.range), V(1)},
        {{V(0), C(v.sub_property_of), V(2)}, {V(2), C(v.range), V(1)}}}}));
  return f;
}

}  // namespace slider
