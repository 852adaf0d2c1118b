#include "checks.h"

#include <algorithm>

#include "common.h"
#include "net/result_serializer.h"
#include "store/lockfree_index.h"

namespace perfbench {

using slider::Repository;
using slider::Triple;
using slider::TripleStore;
using slider::TripleVec;

namespace {

/// Visits (triple, explicit) for every stored statement.
template <typename Fn>
void ForEachStored(const TripleStore& store, Fn&& fn) {
  store.ExportForSnapshot(
      [&](slider::TermId p, const std::vector<TripleStore::SnapshotRow>& rows) {
        for (const TripleStore::SnapshotRow& row : rows) {
          for (const auto& [o, flags] : row.objects) {
            fn(Triple(row.subject, p, o),
               (flags & slider::LfRow::kExplicitBit) != 0);
          }
        }
      });
}

}  // namespace

StoreDigest DigestStore(Repository* repo) {
  const slider::Dictionary& dict = *repo->dictionary();
  std::vector<uint64_t> term_hash(dict.size() + 2, 0);
  auto hash_of = [&](slider::TermId id) {
    if (id >= term_hash.size()) term_hash.resize(id + 1, 0);
    uint64_t& h = term_hash[id];
    if (h == 0) h = Fnv1a(dict.DecodeUnchecked(id)) | 1;
    return h;
  };
  StoreDigest out;
  out.closure.reserve(repo->store().size());
  out.supported.reserve(repo->store().size());
  ForEachStored(repo->store(), [&](const Triple& t, bool is_explicit) {
    const uint64_t h = MixSeed(
        MixSeed(MixSeed(hash_of(t.s), 1) ^ hash_of(t.p), 2) ^ hash_of(t.o), 3);
    out.closure.push_back(h);
    out.supported.push_back(MixSeed(h, is_explicit ? 4 : 5));
  });
  std::sort(out.closure.begin(), out.closure.end());
  std::sort(out.supported.begin(), out.supported.end());
  return out;
}

TripleVec ExplicitTriples(const Repository& repo) {
  TripleVec out;
  ForEachStored(repo.store(), [&](const Triple& t, bool is_explicit) {
    if (is_explicit) out.push_back(t);
  });
  return out;
}

slider::Result<std::unique_ptr<Repository>> MaterializeFromScratch(
    Repository* from, const TripleVec& explicit_triples,
    const slider::FragmentFactory& factory) {
  Repository::Options options;
  options.inference = Repository::InferenceMode::kIncremental;
  SLIDER_ASSIGN_OR_RETURN(std::unique_ptr<Repository> reference,
                          Repository::Open(factory, options));
  const slider::Dictionary& source = *from->dictionary();
  slider::Dictionary* target = reference->dictionary();
  TripleVec encoded;
  encoded.reserve(explicit_triples.size());
  for (const Triple& t : explicit_triples) {
    encoded.push_back(target->EncodeTriple(source.DecodeUnchecked(t.s),
                                           source.DecodeUnchecked(t.p),
                                           source.DecodeUnchecked(t.o)));
  }
  SLIDER_RETURN_NOT_OK(reference->AddTriples(encoded).status());
  return reference;
}

slider::Result<std::string> SelectJson(const slider::SparqlEndpoint& endpoint,
                                       std::string_view text) {
  std::string body;
  slider::net::JsonSerializer serializer(
      endpoint.repository()->dictionary(), [&](std::string_view data) {
        body.append(data);
        return true;
      });
  SLIDER_RETURN_NOT_OK(endpoint.SelectStreaming(text, &serializer));
  serializer.Finish();
  return body;
}

std::string CompareDigests(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b) {
  if (a == b) return "";
  std::vector<uint64_t> only_a;
  std::vector<uint64_t> only_b;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(only_a));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(only_b));
  return std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
         " statements; " + std::to_string(only_a.size()) + " only left, " +
         std::to_string(only_b.size()) + " only right";
}

}  // namespace perfbench
