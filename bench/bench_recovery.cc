// Recovery cost: checkpointed snapshot load vs full statement-log replay.
// The workload is a BSBM repository with a multi-round
// update history — under the default batch semantics every update round
// re-materialises and re-journals the whole closure, so after R rounds the
// statement log holds ~(R+1)x the closure. Recover from the raw log is
// therefore O(history); Recover from a checkpoint (binary dictionary image
// + delta-varint sorted-triple image + short log tail) is O(state + tail).
//
// Two directories receive the *identical* update sequence:
//   full-replay  — checkpoints never truncate, and the snapshot pair is
//                  deleted afterwards, so Recover rebuilds dictionary and
//                  store from statements.log alone (its term records and
//                  its whole statement history);
//   checkpointed — a truncating Checkpoint closes the history, so Recover
//                  loads the snapshot pair and replays an empty tail (the
//                  tail-replay path itself is exercised by the per-mode
//                  phase below and by the checkpoint test suite).
// Both recoveries must produce the same closure; the headline number is
// the wall-clock ratio (target: >= 10x on the default corpus).
//
// A second phase recovers a smaller checkpointed repository — snapshot
// plus a one-round tail — in every inference mode and checks the
// recovered closure is *bit-identical* to the live one: both closures are
// serialised as sorted raw (s,p,o) words and compared byte for byte.
// Support flag/derivation-count bytes are deliberately outside the
// comparison: derivation counts are engine-internal and never journaled.
// Every mode journals each statement with its flag, so the flags round-trip
// too, except for the incremental engine's unjournaled flag flips (a DRed
// demotion of a victim that stays derivable, a promotion of an inferred
// statement); only the closure itself is required to round-trip exactly.
//
// Flags: --ontology=NAME (default BSBM_200k; BSBM_30k under --quick),
//        --rounds=R (default 10 update rounds of history),
//        --repeat=N (default 3 timed recoveries per scenario, median),
//        --quick (small corpus), --json=FILE.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "workload/corpus.h"

using namespace slider;
using namespace slider::bench;

namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// Every Nth distinct explicit triple: a small, deterministic victim slice
// both scenario directories delete and re-add each round.
TripleVec PickVictims(const TripleVec& input, size_t want) {
  TripleVec distinct;
  TripleSet seen;
  for (const Triple& t : input) {
    if (seen.insert(t).second) distinct.push_back(t);
  }
  if (want > distinct.size()) want = distinct.size();
  const size_t stride = distinct.size() / want;
  TripleVec victims;
  for (size_t i = 0; i < distinct.size() && victims.size() < want;
       i += stride) {
    victims.push_back(distinct[i]);
  }
  return victims;
}

struct History {
  TripleSet closure;
  size_t explicit_count = 0;
  uint64_t log_bytes = 0;
  uint64_t snapshot_bytes = 0;  // dict image + triple image (0 if deleted)
  double build_seconds = 0;
};

// Loads the corpus and applies `rounds` remove/re-add update rounds, then
// checkpoints. When `checkpointed`, the Checkpoint truncates the log so
// Recover takes the snapshot path; otherwise it keeps the full log and the
// snapshot pair is deleted, leaving statements.log as the only file: the
// log alone must rebuild the repository.
History BuildHistory(const std::string& dir, const OntologySpec& spec,
                     int rounds, bool checkpointed) {
  Repository::Options options;
  options.storage_dir = dir;
  options.truncate_log_on_checkpoint = checkpointed;
  Stopwatch watch;
  auto repo = Repository::Open(RdfsFactory(), options);
  repo.status().AbortIfNotOk();
  TripleVec input =
      Corpus::Generate(spec, (*repo)->dictionary(), (*repo)->vocabulary());
  (*repo)->AddTriples(input).status().AbortIfNotOk();
  const TripleVec victims = PickVictims(input, 16);
  for (int round = 0; round < rounds; ++round) {
    // Each round is one delete + one re-add update; batch semantics
    // re-materialise and re-journal the whole closure for each, so the
    // log grows by ~2x the closure per round.
    (*repo)->RemoveTriples(victims).status().AbortIfNotOk();
    (*repo)->AddTriples(victims).status().AbortIfNotOk();
  }
  (*repo)->Checkpoint().AbortIfNotOk();
  History h;
  h.build_seconds = watch.ElapsedSeconds();
  h.closure = (*repo)->store().SnapshotSet();
  h.explicit_count = (*repo)->explicit_count();
  if (!checkpointed) {
    std::filesystem::remove(dir + "/snapshot.dict");
    std::filesystem::remove(dir + "/snapshot.triples");
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().filename() != "statements.log") {
        std::fprintf(stderr, "unexpected file in the full-replay directory: %s\n",
                     entry.path().c_str());
        std::exit(1);
      }
    }
  }
  h.log_bytes = FileBytes(dir + "/statements.log");
  h.snapshot_bytes =
      FileBytes(dir + "/snapshot.dict") + FileBytes(dir + "/snapshot.triples");
  return h;
}

struct RecoveryTiming {
  double median_seconds = 0;
  TripleSet closure;
};

RecoveryTiming TimeRecovery(const std::string& dir, int repeat) {
  Repository::Options options;
  options.storage_dir = dir;
  RecoveryTiming timing;
  std::vector<double> seconds;
  for (int i = 0; i < repeat; ++i) {
    Stopwatch watch;
    auto repo = Repository::Recover(RdfsFactory(), options);
    repo.status().AbortIfNotOk();
    seconds.push_back(watch.ElapsedSeconds());
    if (i == 0) timing.closure = (*repo)->store().SnapshotSet();
  }
  std::sort(seconds.begin(), seconds.end());
  timing.median_seconds = seconds[seconds.size() / 2];
  return timing;
}

// Canonical closure serialisation: every triple as three raw 8-byte words,
// sorted — equal closures give equal bytes, and nothing else does.
std::string CanonicalClosureBytes(const TripleStore& store) {
  const TripleSet set = store.SnapshotSet();
  std::vector<Triple> sorted(set.begin(), set.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Triple& a, const Triple& b) {
              return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
            });
  std::string bytes;
  bytes.reserve(sorted.size() * 24);
  for (const Triple& t : sorted) {
    bytes.append(reinterpret_cast<const char*>(&t.s), sizeof(t.s));
    bytes.append(reinterpret_cast<const char*>(&t.p), sizeof(t.p));
    bytes.append(reinterpret_cast<const char*>(&t.o), sizeof(t.o));
  }
  return bytes;
}

struct ModeResult {
  const char* mode = nullptr;
  size_t closure = 0;
  bool closures_equal = false;
  bool bit_identical = false;
  double recover_seconds = 0;
};

ModeResult RecoverInMode(Repository::InferenceMode mode, const char* name,
                         const OntologySpec& spec, int rounds) {
  // The on-demand modes require backward coverage: rho-df only.
  const bool on_demand = mode == Repository::InferenceMode::kOnDemand ||
                         mode == Repository::InferenceMode::kHybrid;
  const FragmentFactory factory = on_demand ? RhoDfFactory() : RdfsFactory();
  const std::string dir = FreshDir(std::string("bench_recovery_mode_") + name);
  Repository::Options options;
  options.storage_dir = dir;
  options.inference = mode;
  options.incremental = BenchSliderOptions();
  ModeResult result;
  result.mode = name;
  TripleSet live;
  std::string live_bytes;
  {
    auto repo = Repository::Open(factory, options);
    repo.status().AbortIfNotOk();
    TripleVec input =
        Corpus::Generate(spec, (*repo)->dictionary(), (*repo)->vocabulary());
    (*repo)->AddTriples(input).status().AbortIfNotOk();
    const TripleVec victims = PickVictims(input, 8);
    for (int round = 0; round < rounds; ++round) {
      // Mid-history checkpoint: the last round lands in the log tail, so
      // this phase exercises snapshot load *plus* tail replay.
      if (round == rounds - 1) (*repo)->Checkpoint().AbortIfNotOk();
      (*repo)->RemoveTriples(victims).status().AbortIfNotOk();
      (*repo)->AddTriples(victims).status().AbortIfNotOk();
    }
    live = (*repo)->store().SnapshotSet();
    live_bytes = CanonicalClosureBytes((*repo)->store());
    // Drop the live handle before recovering: the "crash" closes the log,
    // so every appended record is flushed and the recovery opens the only
    // handle on the directory.
  }
  Stopwatch watch;
  auto recovered = Repository::Recover(factory, options);
  recovered.status().AbortIfNotOk();
  result.recover_seconds = watch.ElapsedSeconds();
  result.closure = (*recovered)->store().SnapshotSet().size();
  result.closures_equal = (*recovered)->store().SnapshotSet() == live;
  result.bit_identical =
      CanonicalClosureBytes((*recovered)->store()) == live_bytes;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");
  const std::string name = FlagValue(argc, argv, "--ontology",
                                     quick ? "BSBM_30k" : "BSBM_200k");
  const int rounds = std::atoi(FlagValue(argc, argv, "--rounds", "10").c_str());
  const int repeat = std::atoi(FlagValue(argc, argv, "--repeat", "3").c_str());
  const std::string json_path = FlagValue(argc, argv, "--json", "");
  OntologySpec spec;
  if (name == "BSBM_30k") {  // quick-mode size, not in the Table 1 registry
    spec = {"BSBM_30k", OntologySpec::Kind::kBsbm, 30000};
  } else {
    spec = Corpus::ByName(name);
  }

  std::printf("Recovery — %s with a %d-round update history\n\n", name.c_str(),
              rounds);

  const std::string replay_dir = FreshDir("bench_recovery_replay");
  const std::string ckpt_dir = FreshDir("bench_recovery_ckpt");
  const History replay_hist = BuildHistory(replay_dir, spec, rounds, false);
  const History ckpt_hist = BuildHistory(ckpt_dir, spec, rounds, true);
  std::printf("  closure %zu triples (%zu explicit)\n",
              replay_hist.closure.size(), replay_hist.explicit_count);
  std::printf("  full-replay log    : %8.1f MiB\n",
              static_cast<double>(replay_hist.log_bytes) / (1 << 20));
  std::printf("  checkpointed state : %8.1f MiB snapshot + %.1f MiB log "
              "tail\n\n",
              static_cast<double>(ckpt_hist.snapshot_bytes) / (1 << 20),
              static_cast<double>(ckpt_hist.log_bytes) / (1 << 20));

  const RecoveryTiming replay = TimeRecovery(replay_dir, repeat);
  const RecoveryTiming ckpt = TimeRecovery(ckpt_dir, repeat);
  const bool closures_equal = replay.closure == ckpt.closure &&
                              replay.closure == replay_hist.closure;
  const double speedup =
      ckpt.median_seconds <= 0 ? 0
                               : replay.median_seconds / ckpt.median_seconds;
  std::printf("  recover, full log replay : %8.3fs  (median of %d)\n",
              replay.median_seconds, repeat);
  std::printf("  recover, checkpointed    : %8.3fs  (median of %d)\n",
              ckpt.median_seconds, repeat);
  std::printf("  speedup                  : %8.1fx  (target >= 10x)\n",
              speedup);
  std::printf("  recovered closures equal : %s\n\n",
              closures_equal ? "yes" : "NO — BUG");

  // --- Closure bit-identity across the inference modes ----------------------
  const OntologySpec mode_spec = {"BSBM_10k", OntologySpec::Kind::kBsbm, 10000};
  std::printf("Recovered closure vs live closure, per inference mode "
              "(%s, %d rounds, sorted-closure byte comparison):\n",
              mode_spec.name.c_str(), rounds);
  std::vector<ModeResult> modes;
  modes.push_back(RecoverInMode(Repository::InferenceMode::kStatementAtATime,
                                "trree", mode_spec, rounds));
  modes.push_back(RecoverInMode(Repository::InferenceMode::kSemiNaive,
                                "seminaive", mode_spec, rounds));
  modes.push_back(RecoverInMode(Repository::InferenceMode::kIncremental,
                                "incremental", mode_spec, rounds));
  modes.push_back(RecoverInMode(Repository::InferenceMode::kHybrid, "hybrid",
                                mode_spec, rounds));
  bool all_identical = true;
  for (const ModeResult& m : modes) {
    all_identical = all_identical && m.bit_identical && m.closures_equal;
    std::printf("  %-12s: closure %7zu  equal %-3s  bit-identical %-3s  "
                "(recover %.3fs)\n",
                m.mode, m.closure, m.closures_equal ? "yes" : "NO",
                m.bit_identical ? "yes" : "NO", m.recover_seconds);
  }
  std::printf("\n");

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "[\n  " << ContextJson("recovery") << ",\n"
       << "  {\"bench\":\"recovery\",\"ontology\":\"" << spec.name
       << "\",\"rounds\":" << rounds
       << ",\"closure\":" << replay_hist.closure.size()
       << ",\"log_bytes_full\":" << replay_hist.log_bytes
       << ",\"snapshot_bytes\":" << ckpt_hist.snapshot_bytes
       << ",\"log_bytes_tail\":" << ckpt_hist.log_bytes
       << ",\"replay_s\":" << replay.median_seconds
       << ",\"checkpoint_s\":" << ckpt.median_seconds
       << ",\"speedup\":" << speedup << ",\"closures_equal\":"
       << (closures_equal ? "true" : "false") << "},\n";
    for (size_t i = 0; i < modes.size(); ++i) {
      const ModeResult& m = modes[i];
      os << "  {\"bench\":\"recovery\",\"scenario\":\"modes\",\"mode\":\""
         << m.mode << "\",\"closure\":" << m.closure
         << ",\"closures_equal\":" << (m.closures_equal ? "true" : "false")
         << ",\"bit_identical\":" << (m.bit_identical ? "true" : "false")
         << ",\"recover_s\":" << m.recover_seconds << "}"
         << (i + 1 < modes.size() ? ",\n" : "\n");
    }
    os << "]\n";
    std::ofstream out(json_path);
    out << os.str();
    out.flush();
    if (out.good()) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  const bool ok = closures_equal && all_identical;
  if (!ok) std::fprintf(stderr, "FAILURE: recovered state diverges\n");
  return ok ? 0 : 1;
}
