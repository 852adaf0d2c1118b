#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Correctness oracles: closure digests that compare repositories across
// dictionaries, a from-scratch materialization of a surviving explicit set,
// and the exact JSON document the server streams for a SELECT.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/endpoint.h"
#include "reason/fragment.h"
#include "reason/repository.h"

namespace perfbench {

/// Sorted hashes of every stored statement, computed from the terms'
/// lexical forms, so repositories with different id assignments compare
/// equal when they hold the same closure. `supported` also hashes each
/// statement's explicit flag. The repository must be quiesced.
struct StoreDigest {
  std::vector<uint64_t> closure;
  std::vector<uint64_t> supported;
};
StoreDigest DigestStore(slider::Repository* repo);

/// Explicit statements of a quiesced repository.
slider::TripleVec ExplicitTriples(const slider::Repository& repo);

/// A fresh in-memory kIncremental repository holding the closure of
/// `explicit_triples` (ids of `from`'s dictionary).
slider::Result<std::unique_ptr<slider::Repository>> MaterializeFromScratch(
    slider::Repository* from, const slider::TripleVec& explicit_triples,
    const slider::FragmentFactory& factory);

/// The SPARQL JSON results document the HTTP server would stream for
/// `text` (same endpoint call, same serializer).
slider::Result<std::string> SelectJson(const slider::SparqlEndpoint& endpoint,
                                       std::string_view text);

/// "" when equal, else a one-line description of the difference.
std::string CompareDigests(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
