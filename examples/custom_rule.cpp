// Fragment customization: registering application-specific inference rules.
//
// Slider "natively supports ρdf and RDFS, and its architecture allows to
// extend it to more complex fragments with a minimal effort" (§1). This
// example builds a custom fragment = ρdf + two user rules:
//
//   PART-OF-TRANS: <a partOf b> ∧ <b partOf c> → <a partOf c>
//   INV-CONTAINS:  <a partOf b> → <b contains a>
//
// A rule is data: its Horn clauses. The engine compiles them into the
// forward delta join, the buffer filters, the rules dependency graph and
// the retraction checks, so a custom rule needs no C++ beyond its clause.
// A FragmentFactory receives the engine's vocabulary *and dictionary*, so
// custom rules encode their own terms — note in the printed graph how
// PART-OF-TRANS feeds both itself and INV-CONTAINS.
//
// Run: ./examples/custom_rule (exits 1 if a printed fact is missing)

#include <cstdio>

#include "reason/reasoner.h"

using namespace slider;

namespace {

/// The custom fragment: stock ρdf plus the two mereology rules.
Fragment Mereology(const Vocabulary& v, Dictionary* dict) {
  Fragment f = Fragment::RhoDf(v);
  const GoalTerm part_of =
      GoalTerm::Const(dict->Encode("<http://mereo/partOf>"));
  const GoalTerm contains =
      GoalTerm::Const(dict->Encode("<http://mereo/contains>"));
  const GoalTerm a = GoalTerm::Var(0), b = GoalTerm::Var(1),
                 c = GoalTerm::Var(2);
  // Transitivity over a user property, the same clause shape as SCM-SCO.
  f.AddRule(MakeRule("PART-OF-TRANS",
                     "<a partOf b> ^ <b partOf c> -> <a partOf c>",
                     {{{a, part_of, c}, {{a, part_of, b}, {b, part_of, c}}}}));
  // Inverse materialisation: a one-atom body, no store join needed.
  f.AddRule(MakeRule("INV-CONTAINS", "<a partOf b> -> <b contains a>",
                     {{{b, contains, a}, {{a, part_of, b}}}}));
  return f;
}

}  // namespace

int main() {
  Reasoner reasoner(Mereology);

  std::printf("fragment '%s' with %zu rules\n",
              reasoner.fragment().name().c_str(), reasoner.fragment().size());
  std::printf("\nrules dependency graph (custom rules included):\n%s\n",
              reasoner.dependency_graph().ToText(reasoner.fragment()).c_str());

  // Feed a parthood chain: wheel ⊑ axle ⊑ chassis ⊑ car.
  Dictionary* dict = reasoner.dictionary();
  const TermId part_of = dict->Encode("<http://mereo/partOf>");
  const TermId contains = dict->Encode("<http://mereo/contains>");
  const TermId wheel = dict->Encode("<http://mereo/wheel>");
  const TermId axle = dict->Encode("<http://mereo/axle>");
  const TermId chassis = dict->Encode("<http://mereo/chassis>");
  const TermId car = dict->Encode("<http://mereo/car>");
  reasoner.AddTriples({{wheel, part_of, axle},
                       {axle, part_of, chassis},
                       {chassis, part_of, car}});
  reasoner.Flush();

  const bool transitive = reasoner.store().Contains({wheel, part_of, car});
  const bool inverse = reasoner.store().Contains({car, contains, wheel});
  std::printf("wheel partOf car (transitive): %s\n", transitive ? "yes" : "no");
  std::printf("car contains wheel (inverse):  %s\n", inverse ? "yes" : "no");
  std::printf("inferred: %zu triples from 3 explicit ones\n",
              reasoner.inferred_count());

  // The custom rules also compose with the stock ρdf rules: declare
  // partOf's domain and every part is typed automatically.
  const TermId component = dict->Encode("<http://mereo/Component>");
  reasoner.AddTriple({part_of, reasoner.vocabulary().domain, component});
  reasoner.Flush();
  const bool typed = reasoner.store().Contains(
      {wheel, reasoner.vocabulary().type, component});
  std::printf("wheel typed as Component via PRP-DOM: %s\n",
              typed ? "yes" : "no");
  return transitive && inverse && typed ? 0 : 1;
}
