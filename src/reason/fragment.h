#ifndef SLIDER_REASON_FRAGMENT_H_
#define SLIDER_REASON_FRAGMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "reason/rule.h"

namespace slider {

/// \brief A reasoning fragment: a named set of inference rules.
///
/// Slider is fragment agnostic (§1, "Fragment's Customization"): ρdf and
/// RDFS ship as factories, and applications can assemble their own fragment
/// by adding rules built from their Horn clauses (MakeRule) — the
/// dependency graph, buffers and distributors are derived automatically at
/// reasoner initialisation.
class Fragment {
 public:
  explicit Fragment(std::string name) : name_(std::move(name)) {}

  /// The ρdf fragment of Muñoz et al. — exactly the eight rules of the
  /// paper's Figure 2 (clause table: rules_rhodf.cc).
  static Fragment RhoDf(const Vocabulary& v);

  /// The RDFS fragment: ρdf plus the RDFS-only axiom rules (RDFS6, RDFS8,
  /// RDFS10, RDFS12, RDFS13). `include_rdfs4` additionally enables the
  /// RDFS4a/4b "everything is a Resource" rules, which optimised rulesets
  /// (incl. OWLIM's) suppress by default (clause table: rules_rdfs.cc).
  static Fragment Rdfs(const Vocabulary& v, bool include_rdfs4 = false);

  /// Appends a rule; order defines rule/module indices everywhere.
  void AddRule(RulePtr rule) { rules_.push_back(std::move(rule)); }

  const std::string& name() const { return name_; }
  const std::vector<RulePtr>& rules() const { return rules_; }
  size_t size() const { return rules_.size(); }

  /// Index of the rule named `rule_name`, or -1.
  int IndexOf(const std::string& rule_name) const;

 private:
  std::string name_;
  std::vector<RulePtr> rules_;
};

/// \brief Builds a Fragment once the engine has registered its vocabulary.
///
/// Engines (Reasoner, Repository) own their Dictionary, and rules need term
/// ids from that dictionary, so fragments are passed to engines as factories
/// rather than as values. The factory receives the registered RDF/RDFS
/// vocabulary and the engine's dictionary; custom fragments encode their own
/// vocabulary through the dictionary (see examples/custom_rule.cpp).
using FragmentFactory = std::function<Fragment(const Vocabulary&, Dictionary*)>;

/// Factory for Fragment::RhoDf.
FragmentFactory RhoDfFactory();

/// Factory for Fragment::Rdfs.
FragmentFactory RdfsFactory(bool include_rdfs4 = false);

}  // namespace slider

#endif  // SLIDER_REASON_FRAGMENT_H_
