#include "requests.h"

#include <algorithm>
#include <set>

#include "common.h"

namespace perfbench {

namespace {

constexpr const char* kNs = "http://slider.repro/bsbm/";
constexpr const char* kRdfType =
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";

std::string Iri(const std::string& local) {
  return std::string("<") + kNs + local + ">";
}

/// The IRI without its angle brackets, as a JSON result carries it.
std::string Bare(const std::string& iri) {
  return iri.substr(1, iri.size() - 2);
}

std::string IntLiteral(uint64_t value) {
  std::string out = "\"";
  out.append(std::to_string(value));
  out.append("\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  return out;
}

/// Spreads Zipf ranks over the id space, so the hot products are not the
/// lowest-numbered ones (which the generator happens to emit first).
size_t Permute(size_t rank, size_t n) {
  return static_cast<size_t>((static_cast<uint64_t>(rank) * 7919 + 13) % n);
}

constexpr size_t kDeepTypeDepth = 5;      // retypes move products deep
constexpr int kProbeEvery = 4;            // write_heavy read-your-writes
constexpr uint64_t kReviewPool = 64;      // > live reviews per writer

std::string ReviewIri(int writer, uint64_t k) {
  return Iri("live/w" + std::to_string(writer) + "r" +
             std::to_string(k % kReviewPool));
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "read_mostly") {
    *out = Workload::kReadMostly;
  } else if (name == "write_heavy") {
    *out = Workload::kWriteHeavy;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kReadMostly: return "read_mostly";
    case Workload::kWriteHeavy: return "write_heavy";
  }
  return "?";
}

TrafficShape TrafficFor(Workload w) {
  if (w == Workload::kWriteHeavy) return {0, 4, 0.0};
  return {3, 1, 20.0};
}

Shape Shape::For(size_t target_triples) {
  // Mirrors BsbmGenerator::Generate's entity counts; main() verifies them
  // against the loaded dictionary.
  Shape s;
  s.products = std::max<size_t>(8, target_triples / 34);
  s.types = std::max<size_t>(9, s.products / 16);
  s.reader_products = s.products - std::max<size_t>(4, s.products / 20);
  return s;
}

size_t Shape::Depth(size_t type) const {
  size_t depth = 0;
  while (type > 0) {
    type = (type - 1) / 3;
    ++depth;
  }
  return depth;
}

std::vector<size_t> Shape::Ancestors(size_t type) const {
  std::vector<size_t> out{type};
  while (type > 0) {
    type = (type - 1) / 3;
    out.push_back(type);
  }
  return out;
}

std::vector<size_t> Shape::TypesFromDepth(size_t min_depth) const {
  min_depth = std::min(min_depth, Depth(types - 1));  // small trees
  std::vector<size_t> out;
  for (size_t t = 0; t < types; ++t) {
    if (Depth(t) >= min_depth) out.push_back(t);
  }
  return out;
}

std::string ProductIri(size_t i) { return Iri("Product" + std::to_string(i)); }

std::string TypeIri(size_t t) { return Iri("ProductType" + std::to_string(t)); }

std::vector<std::string> WriterTerms(Workload workload) {
  std::vector<std::string> out;
  for (int w = 0; w < TrafficFor(workload).writers; ++w) {
    for (uint64_t k = 0; k < kReviewPool; ++k) out.push_back(ReviewIri(w, k));
  }
  return out;
}

std::string RequestHead(const Request& request) {
  return std::string("POST /sparql HTTP/1.1\r\nHost: 127.0.0.1\r\n") +
         (request.is_update
              ? "Content-Type: application/sparql-update\r\n"
              : "Content-Type: application/sparql-query\r\n"
                "Accept: application/sparql-results+json\r\n") +
         "Content-Length: " + std::to_string(request.text.size()) +
         "\r\n\r\n";
}

bool ProbeHolds(const Request& probe, std::string_view body) {
  if (!DigestJsonResults(body).parsed) return false;
  const std::vector<std::string> values = JsonValues(body);
  const std::set<std::string> got(values.begin(), values.end());
  const std::set<std::string> want(probe.expect.begin(), probe.expect.end());
  if (!probe.contains) return got == want;
  return std::includes(got.begin(), got.end(), want.begin(), want.end());
}

// --- Readers ---------------------------------------------------------------

ReaderStream::ReaderStream(const Shape& shape, uint64_t seed, int connection)
    : shape_(shape),
      rng_(MixSeed(seed, 100 + static_cast<uint64_t>(connection))),
      product_zipf_(shape.reader_products, 0.99),
      type_zipf_(shape.types, 0.99) {}

size_t ReaderStream::ZipfProduct() {
  return Permute(product_zipf_.Sample(&rng_), shape_.reader_products);
}

size_t ReaderStream::ZipfType() {
  return Permute(type_zipf_.Sample(&rng_), shape_.types);
}

Request ReaderStream::Next() {
  Request r;
  switch (rng_.Uniform(5)) {
    case 0:  // point lookup
      r.text = "SELECT ?label WHERE { " + ProductIri(ZipfProduct()) + " " +
               Iri("label") + " ?label }";
      break;
    case 1:  // type scan on a (super)type, LIMITed
      r.text = "SELECT ?x WHERE { ?x a " + TypeIri(ZipfType()) + " } LIMIT 10";
      break;
    case 2:  // review -> product join
      r.text = "SELECT ?r ?rating WHERE { ?r " + Iri("reviewFor") + " " +
               ProductIri(ZipfProduct()) + " . ?r " + Iri("rating1") +
               " ?rating }";
      break;
    case 3:  // offer / vendor / product join
      r.text = "SELECT ?o ?v ?c WHERE { ?o " + Iri("offerProduct") + " " +
               ProductIri(ZipfProduct()) + " . ?o " + Iri("offerVendor") +
               " ?v . ?v " + Iri("country") + " ?c }";
      break;
    default:  // predicate-unbound probe
      r.text = "SELECT ?s ?p WHERE { ?s ?p " + ProductIri(ZipfProduct()) + " }";
      break;
  }
  return r;
}

// --- Writers ---------------------------------------------------------------

WriterStream::WriterStream(Workload workload, const Shape& shape,
                           uint64_t seed, int writer, int writers)
    : workload_(workload),
      shape_(shape),
      rng_(MixSeed(seed, 200 + static_cast<uint64_t>(writer))),
      writer_(writer),
      deep_types_(shape.TypesFromDepth(kDeepTypeDepth)) {
  for (size_t p = shape.reader_products; p < shape.products; ++p) {
    if ((p - shape.reader_products) % static_cast<size_t>(writers) ==
        static_cast<size_t>(writer)) {
      products_.push_back(p);
    }
  }
}

size_t WriterStream::PickProduct() {
  return products_[rng_.Uniform(products_.size())];
}

Request WriterStream::ReviewProbe(const Review& review, bool present) {
  Request probe;
  probe.probe = true;
  probe.text = "SELECT ?p WHERE { " + review.iri + " " + Iri("reviewFor") +
               " ?p }";
  if (present) probe.expect.push_back(Bare(ProductIri(review.product)));
  return probe;
}

Request WriterStream::InsertReview() {
  Review review;
  review.iri = ReviewIri(writer_, next_review_++);
  review.product = PickProduct();
  review.rating = 1 + rng_.Uniform(10);
  Request r;
  r.is_update = true;
  r.text = "INSERT DATA { " + review.iri + " " + kRdfType + " " +
           Iri("Review") + " . " + review.iri + " " + Iri("reviewFor") + " " +
           ProductIri(review.product) + " . " + review.iri + " " +
           Iri("rating1") + " " + IntLiteral(review.rating) + " . }";
  probe_ = ReviewProbe(review, true);
  live_.push_back(std::move(review));
  return r;
}

Request WriterStream::DeleteReview(bool where) {
  Review review = std::move(live_.front());
  live_.pop_front();
  Request r;
  r.is_update = true;
  if (where) {
    r.text = "DELETE WHERE { " + review.iri + " ?p ?o }";
  } else {
    r.text = "DELETE DATA { " + review.iri + " " + kRdfType + " " +
             Iri("Review") + " . " + review.iri + " " + Iri("reviewFor") +
             " " + ProductIri(review.product) + " . " + review.iri + " " +
             Iri("rating1") + " " + IntLiteral(review.rating) + " . }";
  }
  probe_ = ReviewProbe(review, false);
  return r;
}

Request WriterStream::Retype() {
  // Moves a product to a deep ProductType: the insert's cone climbs the
  // type tree, the delete's runs DRed and the counting gate.
  const size_t product = PickProduct();
  const size_t type = deep_types_[rng_.Uniform(deep_types_.size())];
  Request r;
  r.is_update = true;
  const std::string subject = ProductIri(product);
  auto it = extra_type_.find(product);
  if (it != extra_type_.end()) {
    r.text = "DELETE DATA { " + subject + " " + kRdfType + " " +
             TypeIri(it->second) + " } ; ";
  }
  r.text += "INSERT DATA { " + subject + " " + kRdfType + " " + TypeIri(type) +
            " }";
  extra_type_[product] = type;
  probe_ = Request();
  probe_.probe = true;
  probe_.contains = true;
  probe_.text = "SELECT ?t WHERE { " + subject + " a ?t }";
  for (size_t t : shape_.Ancestors(type)) {
    probe_.expect.push_back(Bare(TypeIri(t)));
  }
  probe_.expect.push_back(Bare(Iri("Product")));
  return r;
}

Request WriterStream::Next() {
  if (probe_pending_) {
    probe_pending_ = false;
    return probe_;
  }
  ++updates_;
  if (workload_ != Workload::kWriteHeavy) {
    // Open loop: every request replaces the live review with a new one,
    // DELETE WHERE then INSERT DATA, so all requests cost the same.
    if (live_.empty()) return InsertReview();
    Request r = DeleteReview(/*where=*/true);
    r.text += " ; " + InsertReview().text;
    return r;
  }
  Request r;
  if (rng_.Bernoulli(0.15)) {
    r = Retype();
  } else if (live_.empty() || (live_.size() < 6 && rng_.Bernoulli(0.55))) {
    r = InsertReview();
  } else {
    r = DeleteReview(/*where=*/rng_.Bernoulli(0.2));
  }
  probe_pending_ = updates_ % kProbeEvery == 0;
  return r;
}

std::vector<Request> ReplayLog(Workload workload, const Shape& shape,
                               uint64_t seed, size_t size) {
  const TrafficShape traffic = TrafficFor(workload);
  std::vector<Request> log;
  std::vector<WriterStream> writers;
  for (int w = 0; w < traffic.writers; ++w) {
    writers.emplace_back(workload, shape, seed, w, traffic.writers);
  }
  if (workload == Workload::kWriteHeavy) {
    size_t updates = 0;
    for (size_t i = 0; updates < size; ++i) {
      Request r = writers[i % writers.size()].Next();
      updates += r.is_update ? 1 : 0;
      log.push_back(std::move(r));
    }
    return log;
  }
  std::vector<ReaderStream> readers;
  for (int c = 0; c < traffic.readers; ++c) {
    readers.emplace_back(shape, seed, c);
  }
  for (size_t i = 0; i < size; ++i) {
    log.push_back(readers[i % readers.size()].Next());
    if (i % 10 == 9) log.push_back(writers[0].Next());
  }
  return log;
}

}  // namespace perfbench
