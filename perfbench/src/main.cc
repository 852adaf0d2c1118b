// perfbench: the layered SPARQL-over-HTTP benchmark.
//
// Opens a seeded BSBM repository, serves it through SparqlHttpServer, drives
// one workload from this process's load generator, checks every answer and
// the closure, and prints the metrics as one JSON line (the last line of
// stdout). With --trace 1 it instead reports the per-layer metrics: a
// single-threaded in-process replay of the seeded request log with spans
// around each layer's public calls, plus an HTTP phase whose windows
// alternate between traced and untraced clients.
//
//   perfbench --workload read_mostly|write_heavy --seed N --seconds S
//             --trace 0|1 [--work DIR]
//
// Exit codes: 0 all checks passed, 1 a correctness check failed (the
// result line says "correct": false), 2 bad arguments or set-up failure
// (no result line).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common.h"
#include "common/stopwatch.h"
#include "loadgen.h"
#include "net/server.h"
#include "query/endpoint.h"
#include "rdf/graph_io.h"
#include "reason/repository.h"
#include "replay.h"
#include "requests.h"
#include "store/statement_log.h"
#include "workload/bsbm_generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using slider::Repository;
using slider::SparqlEndpoint;
using slider::net::SparqlHttpServer;

// --- Configuration, recorded in the output --------------------------------

constexpr size_t kTriples = 500000;      // BSBM_500k, paper Table 1
constexpr int kServerWorkers = 4;        // >= connections: one pinned each
constexpr size_t kPlanCacheCapacity = 128;
constexpr int kSetups = 3;               // setup_s is their median
// recover_s is the fastest of the Recovers. Recover is the same work each
// time, and on a shared host its time alternates between a fast and a
// ~1.5x slower phase that lasts seconds; the median of a run follows the
// phases it caught, the fastest does not.
constexpr int kRecovers = 20;
constexpr int kWindows = 5;              // throughput is the windows' median
constexpr int kTracedWindows = 6;        // alternate untraced / traced

struct Args {
  Workload workload = Workload::kReadMostly;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work") {
      args->work = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && argc % 2 == 1;
}

Repository::Options RepositoryOptions(const std::string& dir) {
  Repository::Options options;
  options.storage_dir = dir;
  options.inference = Repository::InferenceMode::kIncremental;
  return options;
}

SparqlHttpServer::Options ServerOptions() {
  SparqlHttpServer::Options options;
  options.worker_threads = kServerWorkers;
  return options;
}

const slider::FragmentFactory& Factory() {
  static const slider::FragmentFactory factory = slider::RdfsFactory();
  return factory;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const slider::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Set-up ------------------------------------------------------------------

/// A repository served over HTTP. Members tear down in reverse order:
/// server, then endpoint, then repository.
struct Served {
  std::unique_ptr<Repository> repo;
  std::unique_ptr<SparqlEndpoint> endpoint;
  std::unique_ptr<SparqlHttpServer> server;
};

void TearDown(Served* s) {
  s->server.reset();
  s->endpoint.reset();
  s->repo.reset();
}

void FreshDirectory(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Registers the writers' IRI pool (see WriterTerms) before a checkpoint.
void RegisterWriterTerms(Workload workload, Repository* repo) {
  for (const std::string& iri : WriterTerms(workload)) {
    repo->dictionary()->Encode(iri);
  }
}

/// Set-up time, whole and split by layer (the split only when traced).
struct SetupTimes {
  double total_s = 0;
  double parse_s = 0;
  double materialize_s = 0;
  double checkpoint_s = 0;
  double snapshot_bytes_per_triple = 0;
};

/// Open + Load + Checkpoint + server Start: the timed set-up. With a
/// tracer, Load runs as its two public halves, LoadNTriplesStringParallel
/// and AddTriples, each under a span.
Served SetUp(const Args& args, const std::string& doc, const std::string& dir,
             SetupTimes* times, Tracer* tracer) {
  FreshDirectory(dir);
  Served s;
  slider::Stopwatch watch;
  auto opened = Repository::Open(Factory(), RepositoryOptions(dir));
  Check(opened.status(), "open");
  s.repo = std::move(*opened);
  if (tracer == nullptr) {
    Check(s.repo->Load(doc).status(), "load");
  } else {
    slider::Stopwatch split;
    auto parsed = [&] {
      ScopedSpan span(tracer, "rdf.parse", 0);
      return slider::LoadNTriplesStringParallel(doc, s.repo->dictionary());
    }();
    Check(parsed.status(), "parse");
    times->parse_s = split.ElapsedSeconds();
    split.Restart();
    ScopedSpan span(tracer, "reason.materialize", 0);
    Check(s.repo->AddTriples(*parsed).status(), "materialize");
    times->materialize_s = split.ElapsedSeconds();
  }
  RegisterWriterTerms(args.workload, s.repo.get());
  {
    slider::Stopwatch split;
    ScopedSpan span(tracer, "store.checkpoint", 0);
    Check(s.repo->Checkpoint(), "checkpoint");
    times->checkpoint_s = split.ElapsedSeconds();
  }
  s.endpoint = std::make_unique<SparqlEndpoint>(s.repo.get(),
                                                kPlanCacheCapacity);
  s.server = std::make_unique<SparqlHttpServer>(s.endpoint.get(),
                                                ServerOptions());
  Check(s.server->Start(), "server start");
  times->total_s = watch.ElapsedSeconds();
  times->snapshot_bytes_per_triple =
      Ratio(static_cast<double>(FileBytes(dir + "/snapshot.dict") +
                                FileBytes(dir + "/snapshot.triples")),
            static_cast<double>(s.repo->store().size()));
  return s;
}

/// The request generators assume BsbmGenerator's entity counts; a
/// generator change must fail loudly rather than skew the workload.
void VerifyShape(const Shape& shape, Repository* repo) {
  const slider::Dictionary& dict = *repo->dictionary();
  const bool ok = dict.Lookup(ProductIri(shape.products - 1)).has_value() &&
                  !dict.Lookup(ProductIri(shape.products)).has_value() &&
                  dict.Lookup(TypeIri(shape.types - 1)).has_value() &&
                  !dict.Lookup(TypeIri(shape.types)).has_value();
  if (!ok) Die("BSBM entity counts differ from the benchmark's Shape");
}

// --- Traffic results ---------------------------------------------------------

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Note(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Compares every reader SELECT answer against the in-process evaluation
/// of its text on `oracle`, a quiesced repository's endpoint. Writers never
/// touch what readers see, so the answer must be the same. A mismatch marks
/// the sample failed; SummarizeTraffic counts it.
void CheckAnswers(std::vector<ThreadLog>* logs, const SparqlEndpoint& oracle,
                  Counts* counts) {
  std::unordered_map<std::string, ResultDigest> expected;
  for (ThreadLog& log : *logs) {
    for (Sample& s : log.samples) {
      if (s.text < 0 || !s.ok) continue;
      const std::string& text = log.texts[static_cast<size_t>(s.text)];
      auto it = expected.find(text);
      if (it == expected.end()) {
        auto json = SelectJson(oracle, text);
        ResultDigest digest;
        if (json.ok()) digest = DigestJsonResults(*json);
        it = expected.emplace(text, digest).first;
      }
      if (!(s.digest == it->second)) {
        s.ok = false;
        if (counts->errors.size() < 8) {
          counts->errors.push_back("wrong answer over HTTP for " + text);
        }
      }
    }
  }
}

struct TrafficSummary {
  Summary select;
  Summary update;
  double select_per_s = 0;
  double update_per_s = 0;
  double select_untraced_p50 = 0;
  double select_traced_p50 = 0;
  double gen_lag_p99 = 0;
  uint64_t acked_updates = 0;  ///< warm-up included, like the stats deltas
};

/// Completions per second in one window, from the spread of its completion
/// times rather than their count, so open-loop rates keep their measured
/// digits instead of reading the schedule's round number.
double WindowRate(const std::vector<double>& ends) {
  if (ends.size() < 2) return 0;
  const auto [first, last] = std::minmax_element(ends.begin(), ends.end());
  return Ratio(static_cast<double>(ends.size() - 1), *last - *first);
}

TrafficSummary SummarizeTraffic(const std::vector<ThreadLog>& logs,
                                double measure_s, int windows,
                                Counts* counts) {
  TrafficSummary t;
  std::vector<double> select_ms, update_ms, untraced_ms, traced_ms, lag_ms;
  std::vector<std::vector<double>> select_ends(static_cast<size_t>(windows));
  std::vector<std::vector<double>> update_ends(static_cast<size_t>(windows));
  const double window_s = measure_s / windows;
  for (const ThreadLog& log : logs) {
    lag_ms.insert(lag_ms.end(), log.lag_ms.begin(), log.lag_ms.end());
    for (const std::string& e : log.errors) {
      if (counts->errors.size() < 8) counts->errors.push_back(e);
    }
    for (const Sample& s : log.samples) {
      ++counts->attempted;
      if (!s.ok) {
        ++counts->failed;
        continue;
      }
      t.acked_updates += s.is_update ? 1 : 0;
      if (!s.measured) continue;
      (s.is_update ? update_ms : select_ms).push_back(s.latency_ms);
      if (!s.is_update) {
        (s.traced ? traced_ms : untraced_ms).push_back(s.latency_ms);
      }
      const int w = static_cast<int>(s.end_s / window_s);
      if (w >= 0 && w < windows) {
        (s.is_update ? update_ends : select_ends)[static_cast<size_t>(w)]
            .push_back(s.end_s);
      }
    }
  }
  std::vector<double> select_rates, update_rates;
  for (int w = 0; w < windows; ++w) {
    select_rates.push_back(WindowRate(select_ends[static_cast<size_t>(w)]));
    update_rates.push_back(WindowRate(update_ends[static_cast<size_t>(w)]));
  }
  t.select = Summarize(select_ms);
  t.update = Summarize(update_ms);
  t.select_per_s = Median(select_rates);
  t.update_per_s = Median(update_rates);
  t.select_untraced_p50 = Median(untraced_ms);
  t.select_traced_p50 = Median(traced_ms);
  t.gen_lag_p99 = Summarize(lag_ms).tail;
  return t;
}

/// Server-side counters read before and after the timed phase.
struct ServiceStats {
  SparqlEndpoint::Stats endpoint;
  SparqlHttpServer::Stats server;
  slider::net::UpdateCoalescer::Stats coalescer;

  static ServiceStats Read(const Served& s) {
    ServiceStats out;
    out.endpoint = s.endpoint->stats();
    out.server = s.server->stats();
    out.coalescer = s.server->coalescer().stats();
    return out;
  }
};

// --- Post-traffic checks ----------------------------------------------------

struct PostRun {
  double disk_bytes_per_triple = 0;
  double recover_s = 0;  ///< the fastest of the Recovers
  double recover_median_s = 0;
  double recover_max_s = 0;
  /// Statements whose explicit flag differs between the live and the
  /// recovered store. Flag flips (promotion by a re-insert, demotion by a
  /// retraction the counting gate survives) are not journaled, so this is
  /// reported but not failed; the closure itself must match.
  size_t support_flag_diffs = 0;
};

/// Stops serving, then checks every reader answer against the quiesced
/// repository, the live closure against a from-scratch materialization of
/// the surviving explicit set, and the closure recovered from disk against
/// the live one.
PostRun CheckAndRecover(const std::string& dir,
                        std::vector<ThreadLog>* logs, Served served,
                        int recovers, Counts* counts) {
  PostRun out;
  served.server->Stop();
  Repository* live = served.repo.get();
  const StoreDigest live_digest = DigestStore(live);
  const size_t stored = live->store().size();
  {
    auto reference = MaterializeFromScratch(live, ExplicitTriples(*live),
                                            Factory());
    Check(reference.status(), "reference materialization");
    CheckAnswers(logs, *served.endpoint, counts);
    ++counts->attempted;
    const std::string diff = CompareDigests(
        live_digest.supported, DigestStore(reference->get()).supported);
    if (!diff.empty()) {
      counts->Note("live closure differs from a from-scratch "
                   "materialization: " + diff);
    }
  }
  // Tearing the repository down closes (and flushes) its statement log.
  TearDown(&served);
  out.disk_bytes_per_triple =
      Ratio(static_cast<double>(DirectoryBytes(dir)),
            static_cast<double>(stored));

  std::vector<double> times;
  for (int i = 0; i < recovers; ++i) {
    slider::Stopwatch watch;
    auto recovered = Repository::Recover(Factory(), RepositoryOptions(dir));
    times.push_back(watch.ElapsedSeconds());
    Check(recovered.status(), "recover");
    if (i == 0) {
      ++counts->attempted;
      const StoreDigest digest = DigestStore(recovered->get());
      const std::string diff =
          CompareDigests(live_digest.closure, digest.closure);
      if (!diff.empty()) {
        counts->Note("recovered closure differs from the live one: " + diff);
      }
      std::vector<uint64_t> flipped;
      std::set_symmetric_difference(
          live_digest.supported.begin(), live_digest.supported.end(),
          digest.supported.begin(), digest.supported.end(),
          std::back_inserter(flipped));
      out.support_flag_diffs = flipped.size() / 2;
    }
  }
  out.recover_s = *std::min_element(times.begin(), times.end());
  out.recover_median_s = Median(times);
  out.recover_max_s = *std::max_element(times.begin(), times.end());
  fs::remove_all(dir);
  return out;
}

// --- Output ------------------------------------------------------------------

/// Replay length: SELECTs on read_mostly, updates on write_heavy.
size_t ReplayLength(Workload workload) {
  return workload == Workload::kWriteHeavy ? 300 : 2000;
}

void PrintConfig(const Args& args, const Repository& repo, size_t triples) {
  int reasoner_threads = 0;
  if (const slider::Reasoner* core = repo.incremental_core()) {
    reasoner_threads = core->pool_stats().num_threads;
  }
  const SparqlHttpServer::Options server = ServerOptions();
  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"stored_triples\": %zu, \"nproc\": %u, \"build_type\": "
      "\"%s\", \"inference\": \"kIncremental\", \"fragment\": \"rdfs\", "
      "\"server_worker_threads\": %d, \"reasoner_num_threads\": %d, "
      "\"coalescer_linger_us\": %lld, \"coalescer_max_batch_ops\": %zu, "
      "\"log_flush_interval\": %zu, \"flush_policy\": \"log flushed every "
      "log_flush_interval statements; acknowledged updates are made durable "
      "in groups\", \"plan_cache_capacity\": %zu, \"setups\": %d, "
      "\"recovers\": %d, \"replay_engine\": \"%s\"}}\n",
      WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, triples,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      server.worker_threads, reasoner_threads,
      static_cast<long long>(server.coalescer.linger.count()),
      server.coalescer.max_batch_ops, repo.options().log_flush_interval,
      kPlanCacheCapacity, args.trace ? 1 : kSetups,
      args.trace ? 1 : kRecovers,
      args.trace ? "1 pool thread, timeout flusher off" : "none");
}

/// Figures that are not metrics: sample counts, the percentile the tail
/// metrics really are, the error rate, the generator's lateness and the
/// update latency tail. That tail follows the host's load too closely to
/// hold a 0.25 bound from run to run, so it is reported here only.
void PrintDiagnostics(const Args& args, const Counts& counts,
                      const TrafficSummary& t, const PostRun& post) {
  std::printf(
      "{\"diagnostics\": {\"workload\": \"%s\", \"select_n\": %zu, "
      "\"select_tail_percentile\": %.2f, \"update_n\": %zu, "
      "\"update_tail_percentile\": %.2f, \"update_tail_ms\": %.4f, "
      "\"attempted\": %llu, "
      "\"failed\": %llu, \"error_rate\": %.6g, \"gen_lag_p99_ms\": %.4f, "
      "\"recover_median_s\": %.4f, \"recover_max_s\": %.4f, "
      "\"support_flag_diffs_after_recover\": %zu}}\n",
      WorkloadName(args.workload), t.select.n, t.select.tail_q * 100,
      t.update.n, t.update.tail_q * 100, t.update.tail,
      static_cast<unsigned long long>(counts.attempted),
      static_cast<unsigned long long>(counts.failed),
      Ratio(static_cast<double>(counts.failed),
            static_cast<double>(counts.attempted)),
      t.gen_lag_p99, post.recover_median_s, post.recover_max_s,
      post.support_flag_diffs);
}

int Finish(const Counts& counts, const std::vector<Metric>& metrics) {
  for (const std::string& e : counts.errors) {
    std::fprintf(stderr, "perfbench: failure: %s\n", e.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-38s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  const bool correct = counts.failed == 0;
  const uint64_t attempted = std::max<uint64_t>(1, counts.attempted);
  std::printf("%s\n",
              ResultJson(correct, attempted, counts.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

TrafficPlan PlanFor(const Args& args, const Shape& shape, uint16_t port) {
  TrafficPlan plan;
  plan.workload = args.workload;
  plan.shape = shape;
  plan.seed = args.seed;
  plan.port = port;
  plan.warmup_s = std::min(1.5, std::max(0.5, args.seconds * 0.1));
  plan.measure_s = args.seconds;
  plan.windows = args.trace ? kTracedWindows : kWindows;
  plan.alternate_tracing = args.trace;
  return plan;
}

int RunEndToEnd(const Args& args, const Shape& shape, const std::string& doc) {
  const std::string dir = args.work + "/" + WorkloadName(args.workload);
  std::vector<double> setups;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    TearDown(&served);
    SetupTimes times;
    served = SetUp(args, doc, dir, &times, nullptr);
    setups.push_back(times.total_s);
  }
  VerifyShape(shape, served.repo.get());
  PrintConfig(args, *served.repo, served.repo->store().size());

  std::vector<ThreadLog> logs =
      RunTraffic(PlanFor(args, shape, served.server->port()));
  const double rss_mb = PeakRssMiB();
  Counts counts;
  const PostRun post = CheckAndRecover(dir, &logs, std::move(served),
                                       kRecovers, &counts);
  const TrafficSummary t =
      SummarizeTraffic(logs, args.seconds, kWindows, &counts);
  PrintDiagnostics(args, counts, t, post);
  return Finish(counts, {
      {"setup_s", Median(setups), "s"},
      {"select_p50_ms", t.select.p50, "ms"},
      {"select_p99_ms", t.select.tail, "ms"},
      {"select_per_s", t.select_per_s, "1/s"},
      {"update_p50_ms", t.update.p50, "ms"},
      {"update_per_s", t.update_per_s, "1/s"},
      {"recover_s", post.recover_s, "s"},
      {"rss_mb", rss_mb, "MiB"},
      {"disk_bytes_per_triple", post.disk_bytes_per_triple, "B"},
  });
}

/// Writes every recorded span as TSV: thread, span, parent, request, name,
/// start and end in microseconds from the run's origin.
void WriteSpans(const std::string& path, Clock::time_point origin,
                const std::vector<const Tracer*>& tracers) {
  std::string out = "thread\tspan\tparent\trequest\tname\tstart_us\tend_us\n";
  for (size_t i = 0; i < tracers.size(); ++i) {
    tracers[i]->AppendTsv(&out, origin, static_cast<int>(i));
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file.good()) Die("cannot write " + path);
}

int RunTraced(const Args& args, const Shape& shape, const std::string& doc) {
  const Clock::time_point origin = Clock::now();
  const std::string replay_dir =
      args.work + "/" + WorkloadName(args.workload) + "-replay";
  const std::string dir = args.work + "/" + WorkloadName(args.workload);
  Counts counts;

  // 1. The single-threaded replay of the seeded log, on a repository whose
  //    engine runs one pool thread and flushes only on demand, so its work
  //    counters repeat exactly for a seed.
  FreshDirectory(replay_dir);
  Repository::Options replay_options = RepositoryOptions(replay_dir);
  replay_options.incremental.num_threads = 1;
  replay_options.incremental.enable_timeout_flusher = false;
  auto opened = Repository::Open(Factory(), replay_options);
  Check(opened.status(), "open");
  std::unique_ptr<Repository> repo = std::move(*opened);
  Check(repo->Load(doc).status(), "load");
  VerifyShape(shape, repo.get());
  RegisterWriterTerms(args.workload, repo.get());
  Check(repo->Checkpoint(), "checkpoint");
  const std::string log_path = replay_dir + "/statements.log";
  const uint64_t log_before = FileBytes(log_path);
  ReplayOutcome replay =
      Replay(repo.get(), ReplayLog(args.workload, shape, args.seed,
                                   ReplayLength(args.workload)));
  counts.attempted += replay.requests;
  counts.failed += replay.failed;
  for (const std::string& e : replay.errors) counts.errors.push_back(e);
  repo.reset();  // closes and flushes the statement log
  const uint64_t log_bytes = FileBytes(log_path) - log_before;
  auto tail = slider::StatementLog::ReadLog(log_path);
  Check(tail.status(), "read statement log");
  const double tail_records = static_cast<double>(tail->records.size());
  fs::remove_all(replay_dir);

  // 2. HTTP phase on a fresh set-up split by layer; odd windows record
  //    client spans.
  Tracer setup;
  SetupTimes times;
  Served served = SetUp(args, doc, dir, &times, &setup);
  PrintConfig(args, *served.repo, served.repo->store().size());
  const ServiceStats before = ServiceStats::Read(served);
  std::vector<ThreadLog> logs =
      RunTraffic(PlanFor(args, shape, served.server->port()));
  const ServiceStats after = ServiceStats::Read(served);
  const PostRun post =
      CheckAndRecover(dir, &logs, std::move(served), 1, &counts);
  const TrafficSummary t =
      SummarizeTraffic(logs, args.seconds, kTracedWindows, &counts);
  PrintDiagnostics(args, counts, t, post);

  std::vector<const Tracer*> tracers{&setup, &replay.tracer};
  for (const ThreadLog& l : logs) tracers.push_back(&l.tracer);
  fs::create_directories(args.work);
  WriteSpans(args.work + "/" + WorkloadName(args.workload) + ".spans.tsv",
             origin, tracers);

  const double updates = static_cast<double>(t.acked_updates);
  const double plan_lookups =
      static_cast<double>(
          (after.endpoint.plan_hits - before.endpoint.plan_hits) +
          (after.endpoint.plan_misses - before.endpoint.plan_misses) +
          (after.endpoint.plan_replans - before.endpoint.plan_replans));
  const double batches =
      static_cast<double>(after.coalescer.batches - before.coalescer.batches);
  const double coalesced =
      static_cast<double>(after.coalescer.requests - before.coalescer.requests);
  std::map<std::string, Metric> m;
  for (const Metric& x : replay.metrics) m[x.name] = x;
  auto add = [&](const char* name, double value, const char* unit) {
    m[name] = {name, value, unit};
  };
  add("net.request_overhead_ms", t.select_untraced_p50 - replay.select_p50_ms,
      "ms");
  add("net.coalescer_ops_per_batch", Ratio(coalesced, batches), "count");
  add("net.coalescer_fused_frac",
      Ratio(static_cast<double>(after.coalescer.fused_ops -
                                before.coalescer.fused_ops),
            coalesced),
      "fraction");
  add("net.rejected",
      static_cast<double>(after.server.rejected - before.server.rejected),
      "count");
  add("net.gen_lag_p99_ms", t.gen_lag_p99, "ms");
  add("query.plan_hit_ratio",
      Ratio(static_cast<double>(after.endpoint.plan_hits -
                                before.endpoint.plan_hits),
            plan_lookups),
      "fraction");
  add("query.replans_per_update",
      Ratio(static_cast<double>(after.endpoint.plan_replans -
                                before.endpoint.plan_replans),
            updates),
      "count");
  add("reason.materialize_s", times.materialize_s, "s");
  add("store.log_bytes_per_update",
      Ratio(static_cast<double>(log_bytes),
            static_cast<double>(replay.updates)),
      "B");
  add("store.log_records_per_explicit_change",
      Ratio(tail_records, static_cast<double>(replay.explicit_changes)),
      "count");
  add("store.checkpoint_s", times.checkpoint_s, "s");
  add("store.snapshot_bytes_per_triple", times.snapshot_bytes_per_triple,
      "B");
  add("store.recover_tail_records", tail_records, "count");
  add("rdf.parse_s", times.parse_s, "s");
  add("trace.overhead_ms", t.select_traced_p50 - t.select_untraced_p50, "ms");
  add("det.derivations", static_cast<double>(replay.derivations), "count");
  add("det.match_rows", static_cast<double>(replay.match_rows), "count");
  add("det.log_bytes", static_cast<double>(log_bytes), "B");

  static const char* const kOrder[] = {
      "net.request_overhead_ms", "net.http_head_parse_us",
      "net.serialize_ms_per_select", "net.response_bytes_per_row",
      "net.coalescer_ops_per_batch", "net.coalescer_fused_frac",
      "net.rejected", "net.gen_lag_p99_ms", "query.parse_us",
      "query.plan_us", "query.plan_hit_ratio", "query.replans_per_update",
      "query.join_p50_ms", "query.join_p99_ms",
      "query.match_calls_per_select", "query.rows_touched_per_row",
      "query.delete_where_expand_ms", "reason.insert_apply_ms",
      "reason.delete_apply_ms", "reason.derivations_per_update",
      "reason.rule_executions_per_update", "reason.pool_tasks_per_update",
      "reason.materialize_s", "store.log_bytes_per_update",
      "store.log_records_per_explicit_change", "store.insert_dup_frac",
      "store.checkpoint_s", "store.snapshot_bytes_per_triple",
      "store.recover_tail_records", "rdf.parse_s", "trace.overhead_ms",
      "det.derivations", "det.match_rows", "det.log_bytes"};
  std::vector<Metric> metrics;
  for (const char* name : kOrder) {
    auto it = m.find(name);
    if (it == m.end()) {
      Die(std::string("per-layer metric not computed: ") + name);
    }
    metrics.push_back(it->second);
  }
  return Finish(counts, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload read_mostly|write_heavy "
                 "--seed N --seconds S --trace 0|1 [--work DIR]\n");
    return 2;
  }
  slider::BsbmGenerator::Options generator;
  generator.target_triples = kTriples;
  generator.seed = args.seed;
  const std::string doc = slider::BsbmGenerator::GenerateNTriples(generator);
  const Shape shape = Shape::For(kTriples);
  return args.trace ? RunTraced(args, shape, doc)
                    : RunEndToEnd(args, shape, doc);
}
