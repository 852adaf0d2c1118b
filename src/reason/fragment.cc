#include "reason/fragment.h"

namespace slider {

FragmentFactory RhoDfFactory() {
  return [](const Vocabulary& v, Dictionary*) { return Fragment::RhoDf(v); };
}

FragmentFactory RdfsFactory(bool include_rdfs4) {
  return [include_rdfs4](const Vocabulary& v, Dictionary*) {
    return Fragment::Rdfs(v, include_rdfs4);
  };
}

int Fragment::IndexOf(const std::string& rule_name) const {
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i]->name() == rule_name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace slider
