// Reproduction of the paper's core motivation (claim C3, §1): batch
// reasoners must "initiate the reasoning process from the start" when new
// data arrives, while an incremental reasoner handles "new data as soon as
// it arrives, without re-inferring the previously inferred knowledge".
//
// The workload streams an ontology in k batches. Three systems process it:
//   slider        — one engine, k AddTriples+Flush increments;
//   repo-batch    — the OWLIM-SE substitute with batch update semantics:
//                   every increment re-materialises from scratch;
//   repo-oneshot  — the repository loading everything once at the end
//                   (the best case for a batch system: data was complete).
//
// Expected shape: slider's total ≈ its one-shot cost; repo-batch grows
// ~quadratically with k and is far slower than its own one-shot.
//
// A second scenario measures *retraction*: after full materialisation, a
// small slice of the explicit statements is deleted. Slider maintains the
// closure with DRed (Reasoner::Retract: over-delete the cone, rederive the
// survivors) while the repository — like any batch system — recomputes the
// whole closure from the surviving explicit set. The comparison is reported
// in hardware-independent derivation counters (rule outputs before
// deduplication) next to the wall-clock, so the gap survives machine noise.
//
// The retraction scenario runs Slider twice — counting-backed fast path on
// and off — so the counting gate's saved rederivation work is measured
// against plain DRed on the identical victim set, with closure equality
// checked between the two modes. A repo-incremental cell then deletes the
// same victims through Repository::RemoveTriples in kIncremental, one
// statement per call, and reports the median milliseconds per call; the
// bench exits nonzero if that closure differs from the counting cell's.
//
// Flags: --ontology=NAME (default BSBM_200k; BSBM_30k under --quick),
//        --batches=K (default 10),
//        --retract_pct=P (default 1, percent of explicit triples deleted),
//        --quick (small corpus), --json=FILE.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "workload/corpus.h"

using namespace slider;
using namespace slider::bench;

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");
  const std::string name = FlagValue(argc, argv, "--ontology",
                                     quick ? "BSBM_30k" : "BSBM_200k");
  const int k = std::atoi(FlagValue(argc, argv, "--batches", "10").c_str());
  const std::string json_path = FlagValue(argc, argv, "--json", "");
  OntologySpec spec;
  if (name == "BSBM_30k") {  // quick-mode size, not in the Table 1 registry
    spec = {"BSBM_30k", OntologySpec::Kind::kBsbm, 30000};
  } else {
    spec = Corpus::ByName(name);
  }

  std::printf("Incremental maintenance — %s in %d update batches\n\n",
              name.c_str(), k);

  // Pre-encode per engine (identical id layout: vocabulary first).
  // --- Slider: incremental increments --------------------------------------
  double slider_total = 0;
  std::vector<double> slider_per_batch;
  {
    Reasoner reasoner(RdfsFactory(), BenchSliderOptions());
    TripleVec input =
        Corpus::Generate(spec, reasoner.dictionary(), reasoner.vocabulary());
    const size_t per = input.size() / static_cast<size_t>(k) + 1;
    for (size_t start = 0; start < input.size(); start += per) {
      const size_t end = std::min(input.size(), start + per);
      Stopwatch watch;
      reasoner.AddTriples(
          TripleVec(input.begin() + static_cast<long>(start),
                    input.begin() + static_cast<long>(end)));
      reasoner.Flush();
      slider_per_batch.push_back(watch.ElapsedSeconds());
      slider_total += watch.ElapsedSeconds();
    }
  }

  // --- Repository with batch update semantics ------------------------------
  double repo_total = 0;
  std::vector<double> repo_per_batch;
  {
    auto repo = Repository::Open(RdfsFactory(), {});
    repo.status().AbortIfNotOk();
    TripleVec input =
        Corpus::Generate(spec, (*repo)->dictionary(), (*repo)->vocabulary());
    const size_t per = input.size() / static_cast<size_t>(k) + 1;
    for (size_t start = 0; start < input.size(); start += per) {
      const size_t end = std::min(input.size(), start + per);
      Stopwatch watch;
      (*repo)
          ->AddTriples(TripleVec(input.begin() + static_cast<long>(start),
                                 input.begin() + static_cast<long>(end)))
          .status()
          .AbortIfNotOk();
      repo_per_batch.push_back(watch.ElapsedSeconds());
      repo_total += watch.ElapsedSeconds();
    }
  }

  // --- Repository one-shot (batch system's best case) ----------------------
  double oneshot = 0;
  {
    auto repo = Repository::Open(RdfsFactory(), {});
    repo.status().AbortIfNotOk();
    TripleVec input =
        Corpus::Generate(spec, (*repo)->dictionary(), (*repo)->vocabulary());
    Stopwatch watch;
    (*repo)->AddTriples(input).status().AbortIfNotOk();
    oneshot = watch.ElapsedSeconds();
  }

  std::printf("%-8s %14s %14s\n", "batch", "slider(s)", "repo-batch(s)");
  for (size_t i = 0; i < slider_per_batch.size(); ++i) {
    std::printf("%-8zu %14.3f %14.3f\n", i + 1, slider_per_batch[i],
                i < repo_per_batch.size() ? repo_per_batch[i] : 0.0);
  }
  std::printf("\ntotals over %d increments:\n", k);
  std::printf("  slider incremental : %8.3fs\n", slider_total);
  std::printf("  repo re-batching   : %8.3fs  (%.1fx slider)\n", repo_total,
              repo_total / slider_total);
  std::printf("  repo one-shot      : %8.3fs  (batch best case, data "
              "complete up-front)\n", oneshot);

  // --- Retraction: DRed maintenance vs batch full recompute ----------------
  const double pct =
      std::atof(FlagValue(argc, argv, "--retract_pct", "1").c_str());
  std::printf("\nRetraction — deleting %.1f%% of the explicit statements "
              "from the materialised store\n\n", pct);

  // Deterministic victim choice: every Nth distinct explicit triple, by
  // position in the generated stream, so both engines (whose dictionaries
  // assign identical ids to the identical generation sequence) delete the
  // same statements.
  const auto pick_victims = [pct](const TripleVec& input) {
    TripleVec distinct;
    TripleSet seen;
    for (const Triple& t : input) {
      if (seen.insert(t).second) distinct.push_back(t);
    }
    size_t want = static_cast<size_t>(
        static_cast<double>(distinct.size()) * pct / 100.0);
    if (want == 0) want = 1;
    if (want > distinct.size()) want = distinct.size();  // --retract_pct>100
    const size_t stride = distinct.size() / want;
    TripleVec victims;
    for (size_t i = 0; i < distinct.size() && victims.size() < want;
         i += stride) {
      victims.push_back(distinct[i]);
    }
    return victims;
  };

  // Slider runs the identical retraction twice: with the counting-backed
  // fast path (derivation counts gate multiply-derived facts out of the
  // over-delete cone) and as plain DRed. Identical generation sequences
  // give identical id layouts, so the two closures are directly comparable.
  struct SliderCell {
    bool counting = false;
    double seconds = 0;
    uint64_t work = 0;
    size_t closure_after = 0;
    size_t overdeleted = 0;
    size_t rederived = 0;
    size_t pruned = 0;
    uint64_t rederive_round = 0;  ///< work spent restoring survivors
    TripleSet closure;
  };
  SliderCell slider_cells[2];
  size_t victims_count = 0;
  for (const bool counting : {true, false}) {
    ReasonerOptions reasoner_options = BenchSliderOptions();
    reasoner_options.enable_counting = counting;
    Reasoner reasoner(RdfsFactory(), reasoner_options);
    TripleVec input =
        Corpus::Generate(spec, reasoner.dictionary(), reasoner.vocabulary());
    reasoner.AddTriples(input);
    reasoner.Flush();
    const TripleVec victims = pick_victims(input);
    victims_count = victims.size();
    const uint64_t before = reasoner.total_derivations();
    Stopwatch watch;
    const Reasoner::RetractStats stats = reasoner.Retract(victims);
    SliderCell& cell = slider_cells[counting ? 0 : 1];
    cell.counting = counting;
    cell.seconds = watch.ElapsedSeconds();
    // The complete maintenance work, in derivation-sized units: deletion-
    // mode rule outputs, one unit per rederive check (each check is one
    // backward join probe), one unit per counting-gate check, and any
    // ordinary rule outputs from the fallback cascade (zero for fragments
    // whose rules all implement CanDerive).
    cell.work = stats.delete_derivations + stats.rederive_checks +
                stats.count_checks +
                (reasoner.total_derivations() - before);
    cell.closure_after = reasoner.store().size();
    cell.overdeleted = stats.overdeleted;
    cell.rederived = stats.rederived;
    cell.pruned = stats.count_fast_path + stats.cone_pruned;
    // The rederivation round alone: backward probes over the over-deleted
    // cone plus fallback rule outputs plus the facts restored. This is the
    // work the counting gate shrinks — facts it prunes never enter the
    // cone, so they never need restoring.
    cell.rederive_round = stats.rederive_checks + stats.rederived +
                          (reasoner.total_derivations() - before);
    cell.closure = reasoner.store().SnapshotSet();
    std::printf("  slider %-12s: %8.3fs  %12llu derivations  "
                "(overdeleted %zu, rederived %zu, pruned %zu, %zu rounds, "
                "%llu checks)\n",
                counting ? "counting " : "DRed ", cell.seconds,
                static_cast<unsigned long long>(cell.work), stats.overdeleted,
                stats.rederived, cell.pruned, stats.delete_rounds,
                static_cast<unsigned long long>(stats.rederive_checks));
  }
  if (slider_cells[0].closure != slider_cells[1].closure) {
    std::printf("  WARNING: counting and DRed closures diverge "
                "(%zu vs %zu triples)\n",
                slider_cells[0].closure.size(), slider_cells[1].closure.size());
  }
  const uint64_t slider_delete_work = slider_cells[0].work;
  const double slider_retract_s = slider_cells[0].seconds;
  const size_t slider_closure_after = slider_cells[0].closure_after;

  uint64_t repo_delete_work = 0;
  double repo_retract_s = 0;
  size_t repo_closure_after = 0;
  {
    auto repo = Repository::Open(RdfsFactory(), {});
    repo.status().AbortIfNotOk();
    TripleVec input =
        Corpus::Generate(spec, (*repo)->dictionary(), (*repo)->vocabulary());
    (*repo)->AddTriples(input).status().AbortIfNotOk();
    const TripleVec victims = pick_victims(input);
    Stopwatch watch;
    auto stats = (*repo)->RemoveTriples(victims);
    stats.status().AbortIfNotOk();
    repo_retract_s = watch.ElapsedSeconds();
    repo_delete_work = stats->materialize.derivations;
    repo_closure_after = (*repo)->store().size();
    std::printf("  repo recompute     : %8.3fs  %12llu derivations\n",
                repo_retract_s,
                static_cast<unsigned long long>(repo_delete_work));
  }

  // The production delete path: the same victims through the repository in
  // kIncremental, one statement per RemoveTriples call — the server's
  // single-statement DELETE DATA shape — so the repository's own per-call
  // bookkeeping is timed, not just the engine's DRed.
  double repo_incremental_median_ms = 0;
  bool repo_incremental_equal = false;
  {
    Repository::Options options;
    options.inference = Repository::InferenceMode::kIncremental;
    options.incremental = BenchSliderOptions();
    auto repo = Repository::Open(RdfsFactory(), options);
    repo.status().AbortIfNotOk();
    TripleVec input =
        Corpus::Generate(spec, (*repo)->dictionary(), (*repo)->vocabulary());
    (*repo)->AddTriples(input).status().AbortIfNotOk();
    std::vector<double> call_ms;
    for (const Triple& victim : pick_victims(input)) {
      Stopwatch watch;
      (*repo)->RemoveTriples({victim}).status().AbortIfNotOk();
      call_ms.push_back(watch.ElapsedSeconds() * 1e3);
    }
    std::sort(call_ms.begin(), call_ms.end());
    repo_incremental_median_ms = call_ms[call_ms.size() / 2];
    repo_incremental_equal =
        (*repo)->store().SnapshotSet() == slider_cells[0].closure;
    std::printf("  repo incremental   : %8.3fms median per single-statement "
                "RemoveTriples (%zu calls)\n",
                repo_incremental_median_ms, call_ms.size());
  }

  if (slider_closure_after != repo_closure_after) {
    std::printf("  WARNING: closures diverge (slider %zu vs repo %zu)\n",
                slider_closure_after, repo_closure_after);
  }
  if (!repo_incremental_equal) {
    std::fprintf(stderr, "FAIL: repo-incremental closure diverges from the "
                 "slider cell's\n");
  }
  std::printf("\n  deleted %zu explicit statements; closure now %zu "
              "triples\n", victims_count, slider_closure_after);
  std::printf("  derivation gap     : %.1fx fewer derivations for DRed "
              "(%.1fx wall-clock)\n",
              slider_delete_work == 0
                  ? 0.0
                  : static_cast<double>(repo_delete_work) /
                        static_cast<double>(slider_delete_work),
              slider_retract_s <= 0 ? 0.0 : repo_retract_s / slider_retract_s);
  const double counting_gain =
      slider_cells[0].work == 0
          ? 0.0
          : static_cast<double>(slider_cells[1].work) /
                static_cast<double>(slider_cells[0].work);
  const double rederive_gain =
      slider_cells[0].rederive_round == 0
          ? 0.0
          : static_cast<double>(slider_cells[1].rederive_round) /
                static_cast<double>(slider_cells[0].rederive_round);
  std::printf("  counting gain      : %.2fx fewer derivations than plain "
              "DRed overall, %.2fx in the rederivation round "
              "(%zu facts gated out of the cone)\n",
              counting_gain, rederive_gain, slider_cells[0].pruned);

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "[\n  " << ContextJson("incremental") << ",\n"
       << "  {\"bench\":\"incremental\",\"ontology\":\"" << spec.name
       << "\",\"batches\":" << k << ",\"slider_total_s\":" << slider_total
       << ",\"repo_batch_total_s\":" << repo_total
       << ",\"repo_oneshot_s\":" << oneshot << "},\n";
    for (const SliderCell& cell : slider_cells) {
      os << "  {\"bench\":\"incremental\",\"scenario\":\"retract\","
         << "\"engine\":\"" << (cell.counting ? "slider-counting"
                                              : "slider-dred")
         << "\",\"victims\":" << victims_count
         << ",\"seconds\":" << cell.seconds << ",\"derivations\":" << cell.work
         << ",\"overdeleted\":" << cell.overdeleted
         << ",\"rederived\":" << cell.rederived
         << ",\"pruned\":" << cell.pruned
         << ",\"rederive_round\":" << cell.rederive_round
         << ",\"closure\":" << cell.closure_after << "},\n";
    }
    os << "  {\"bench\":\"incremental\",\"scenario\":\"retract\","
       << "\"engine\":\"repo-recompute\",\"victims\":" << victims_count
       << ",\"seconds\":" << repo_retract_s
       << ",\"derivations\":" << repo_delete_work
       << ",\"closure\":" << repo_closure_after << "},\n"
       << "  {\"bench\":\"incremental\",\"scenario\":\"retract\","
       << "\"engine\":\"repo-incremental\",\"victims\":" << victims_count
       << ",\"median_ms_per_call\":" << repo_incremental_median_ms
       << ",\"closure_equal\":" << (repo_incremental_equal ? "true" : "false")
       << "},\n"
       << "  {\"bench\":\"incremental\",\"scenario\":\"retract\","
       << "\"summary\":true,\"counting_gain\":" << counting_gain
       << ",\"rederive_round_gain\":" << rederive_gain
       << ",\"closures_equal\":"
       << (slider_cells[0].closure == slider_cells[1].closure ? "true"
                                                              : "false")
       << "}\n]\n";
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
  return repo_incremental_equal ? 0 : 1;
}
