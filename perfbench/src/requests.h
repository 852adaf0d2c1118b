#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

// The seeded request log: per-connection SELECT and update streams over the
// BSBM universe, and the fixed interleaving the traced replay runs.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace perfbench {

enum class Workload { kReadMostly, kWriteHeavy };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);

/// Connections of a workload: at most four in all, one generator thread
/// each, sized for a four-core host; the server pins one worker per
/// keep-alive connection.
struct TrafficShape {
  int readers = 0;          ///< closed-loop SELECT connections
  int writers = 0;          ///< update connections
  double writer_rate = 0;   ///< open-loop updates/s per writer; 0 = closed loop
};
TrafficShape TrafficFor(Workload w);

/// The entity counts BsbmGenerator derives from its triple target, and the
/// split of products between readers and writers: readers draw from
/// [0, reader_products), writers own the rest, so no concurrent write can
/// change an answer a reader checks.
struct Shape {
  size_t products = 0;
  size_t types = 0;
  size_t reader_products = 0;

  static Shape For(size_t target_triples);
  /// Depth of a ProductType in the generator's complete ternary tree.
  size_t Depth(size_t type) const;
  /// `type` and its ancestors, root last.
  std::vector<size_t> Ancestors(size_t type) const;
  /// ProductTypes at depth >= `min_depth`, or at the deepest level when
  /// the tree is shallower.
  std::vector<size_t> TypesFromDepth(size_t min_depth) const;
};

std::string ProductIri(size_t i);
std::string TypeIri(size_t t);

/// Every IRI a writer of `workload` may insert. Writers recycle a fixed
/// pool of review IRIs, and set-up registers the pool in the dictionary
/// before its checkpoint: Repository::Recover restores terms only from the
/// checkpoint's dictionary image, so a term first minted after the last
/// checkpoint has no lexical form in a recovered repository.
std::vector<std::string> WriterTerms(Workload workload);

/// One request of the log.
struct Request {
  bool is_update = false;
  std::string text;
  /// Read-your-writes probe (write_heavy): the SELECT's bound values must
  /// equal `expect` as a set, or include it when `contains` is set.
  bool probe = false;
  bool contains = false;
  std::vector<std::string> expect;
};

/// The head a client sends for `request` (shared by the load generator and
/// the replay's HTTP-head span).
std::string RequestHead(const Request& request);

/// Checks a probe's JSON results body against its expectation.
bool ProbeHolds(const Request& probe, std::string_view body);

/// Closed-loop SELECT stream of one reader connection.
class ReaderStream {
 public:
  ReaderStream(const Shape& shape, uint64_t seed, int connection);
  Request Next();

 private:
  size_t ZipfProduct();
  size_t ZipfType();

  Shape shape_;
  slider::Random rng_;
  slider::ZipfDistribution product_zipf_;
  slider::ZipfDistribution type_zipf_;
};

/// Update stream of one writer connection. Each writer owns a disjoint
/// slice of the writer products and names its reviews after itself, so
/// writers never touch each other's entities.
class WriterStream {
 public:
  WriterStream(Workload workload, const Shape& shape, uint64_t seed,
               int writer, int writers);
  Request Next();

 private:
  struct Review {
    std::string iri;
    size_t product = 0;
    uint64_t rating = 0;
  };
  Request InsertReview();
  Request DeleteReview(bool where);
  Request Retype();
  size_t PickProduct();
  static Request ReviewProbe(const Review& review, bool present);

  Workload workload_;
  Shape shape_;
  slider::Random rng_;
  int writer_;
  std::vector<size_t> products_;
  std::vector<size_t> deep_types_;
  std::deque<Review> live_;
  std::unordered_map<size_t, size_t> extra_type_;  // product -> retyped type
  uint64_t next_review_ = 0;
  uint64_t updates_ = 0;
  Request probe_;
  bool probe_pending_ = false;
};

/// The traced replay's log: the same streams merged on a fixed schedule.
/// read_mostly: `size` SELECTs round-robin over the three reader streams with one writer request after every tenth; write_heavy:
/// `size` updates round-robin over the four writer streams, plus their
/// probes.
std::vector<Request> ReplayLog(Workload workload, const Shape& shape,
                               uint64_t seed, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
