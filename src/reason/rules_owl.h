#ifndef SLIDER_REASON_RULES_OWL_H_
#define SLIDER_REASON_RULES_OWL_H_

#include <string_view>

#include "reason/fragment.h"

namespace slider {

/// OWL vocabulary interpreted by the extension rules.
namespace iri {
inline constexpr std::string_view kOwlInverseOf =
    "<http://www.w3.org/2002/07/owl#inverseOf>";
inline constexpr std::string_view kOwlTransitiveProperty =
    "<http://www.w3.org/2002/07/owl#TransitiveProperty>";
inline constexpr std::string_view kOwlSymmetricProperty =
    "<http://www.w3.org/2002/07/owl#SymmetricProperty>";
}  // namespace iri

/// \brief TermIds of the OWL terms used by the extension fragment.
struct OwlTerms {
  TermId inverse_of = kAnyTerm;
  TermId transitive_property = kAnyTerm;
  TermId symmetric_property = kAnyTerm;

  static OwlTerms Register(Dictionary* dict);
};

/// Builds the extension fragment: RDFS plus five OWL 2 RL rules — the
/// "more complex fragment" of the paper's future-work section, showing
/// that Slider's architecture extends without engine changes:
///  - PRP-INV (prp-inv1/2): <p1 inverseOf p2> ∧ <x p1 y> → <y p2 x>, and
///    the reverse direction (two clauses);
///  - PRP-TRP: <p type TransitiveProperty> ∧ <x p y> ∧ <y p z> → <x p z>,
///    the first three-antecedent rule of the library;
///  - PRP-SYMP: <p type SymmetricProperty> ∧ <x p y> → <y p x>;
///  - SCM-DOM1 / SCM-RNG1: <p domain c1> ∧ <c1 subClassOf c2> →
///    <p domain c2>, and the same for range, which complete the schema
///    closure.
Fragment OwlLiteFragment(const Vocabulary& v, Dictionary* dict);

/// FragmentFactory for OwlLiteFragment.
FragmentFactory OwlLiteFactory();

}  // namespace slider

#endif  // SLIDER_REASON_RULES_OWL_H_
