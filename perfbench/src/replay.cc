#include "replay.h"

#include <functional>

#include "net/http.h"
#include "net/result_serializer.h"
#include "query/evaluator.h"
#include "query/sparql.h"
#include "query/update.h"

namespace perfbench {

using slider::MatchProvider;
using slider::Repository;
using slider::Triple;
using slider::TriplePattern;

namespace {

struct MatchCounters {
  uint64_t calls = 0;
  uint64_t rows = 0;
};

/// Decorator over the repository's provider: counts Match calls and the
/// rows they deliver. It adds no span or clock read, so the join's timing
/// stays close to the undecorated one.
class CountingProvider : public MatchProvider {
 public:
  CountingProvider(const MatchProvider* inner, MatchCounters* counters)
      : inner_(inner), counters_(counters) {}

  void Match(const TriplePattern& pattern,
             const std::function<void(const Triple&)>& sink) const override {
    ++counters_->calls;
    inner_->Match(pattern, [&](const Triple& t) {
      ++counters_->rows;
      sink(t);
    });
  }

  size_t EstimateCount(const TriplePattern& pattern) const override {
    return inner_->EstimateCount(pattern);
  }

 private:
  const MatchProvider* inner_;
  MatchCounters* counters_;
};

/// JsonSerializer with a span around every callback.
class TimedJson : public slider::RowSink {
 public:
  TimedJson(const slider::Dictionary* dict, Tracer* tracer, uint64_t request)
      : json_(dict,
              [this](std::string_view data) {
                body_.append(data);
                return true;
              }),
        tracer_(tracer),
        request_(request) {}

  bool OnHeader(const std::vector<std::string>& variables) override {
    const Clock::time_point start = Clock::now();
    ScopedSpan span(tracer_, "net.serialize", request_);
    const bool ok = json_.OnHeader(variables);
    serialize_ += Clock::now() - start;
    return ok;
  }
  bool OnRow(const std::vector<slider::TermId>& row) override {
    const Clock::time_point start = Clock::now();
    ScopedSpan span(tracer_, "net.serialize", request_);
    ++rows_;
    const bool ok = json_.OnRow(row);
    serialize_ += Clock::now() - start;
    return ok;
  }
  void Finish() {
    ScopedSpan span(tracer_, "net.serialize", request_);
    json_.Finish();
  }

  const std::string& body() const { return body_; }
  uint64_t rows() const { return rows_; }
  /// Serializer time spent inside the join's callbacks so far.
  Clock::duration serialize() const { return serialize_; }

 private:
  std::string body_;
  slider::net::JsonSerializer json_;
  Tracer* tracer_;
  uint64_t request_;
  uint64_t rows_ = 0;
  Clock::duration serialize_{};
};

/// Work counters of the engine, read before and after each update.
struct EngineCounters {
  uint64_t rule_executions = 0;
  uint64_t pool_tasks = 0;

  static EngineCounters Read(const Repository& repo) {
    EngineCounters c;
    if (const slider::Reasoner* core = repo.incremental_core()) {
      for (const auto& module : core->rule_stats()) {
        c.rule_executions += module.executions;
      }
      c.pool_tasks = core->pool_stats().tasks_executed;
    }
    return c;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

}  // namespace

ReplayOutcome Replay(Repository* repo, const std::vector<Request>& log) {
  ReplayOutcome out;
  Tracer* tracer = &out.tracer;
  MatchCounters matches;
  const slider::TripleStore::Stats store_before = repo->store().stats();
  uint64_t pool_tasks = 0;
  uint64_t result_rows = 0;
  uint64_t body_bytes = 0;
  double serialize_ms = 0;
  std::vector<double> select_ms;
  std::vector<double> join_ms;

  auto fail = [&](const std::string& what) {
    ++out.failed;
    if (out.errors.size() < 5) out.errors.push_back(what);
  };

  for (size_t i = 0; i < log.size(); ++i) {
    const Request& request = log[i];
    const std::string head = RequestHead(request);
    const Clock::time_point start = Clock::now();
    ScopedSpan root(tracer, request.is_update ? "update" : "select", i);
    ++out.requests;
    {
      ScopedSpan span(tracer, "net.http_head_parse", i);
      if (!slider::net::ParseRequestHead(head).ok()) {
        fail("request head rejected");
        continue;
      }
    }

    if (!request.is_update) {
      ++out.selects;
      slider::Result<slider::Query> query = [&] {
        ScopedSpan span(tracer, "query.parse", i);
        return slider::SparqlParser::Parse(request.text, *repo->dictionary());
      }();
      if (!query.ok()) {
        fail(query.status().ToString());
        continue;
      }
      const CountingProvider provider(repo->provider(), &matches);
      std::vector<int> order;
      {
        ScopedSpan span(tracer, "query.plan", i);
        order = slider::QueryEvaluator::PlanJoinOrder(*query, provider);
      }
      TimedJson sink(repo->dictionary(), tracer, i);
      slider::Status streamed;
      {
        const Clock::time_point stream_start = Clock::now();
        ScopedSpan span(tracer, "query.stream", i);
        streamed = slider::QueryEvaluator(&provider).Stream(*query, order,
                                                            &sink);
        join_ms.push_back(
            Millis(Clock::now() - stream_start - sink.serialize()));
      }
      sink.Finish();
      select_ms.push_back(Millis(Clock::now() - start));
      result_rows += sink.rows();
      body_bytes += sink.body().size();
      const bool ok = streamed.ok() &&
                      (request.probe ? ProbeHolds(request, sink.body())
                                     : DigestJsonResults(sink.body()).parsed);
      if (!ok) fail("wrong answer for " + request.text);
      continue;
    }

    ++out.updates;
    slider::Result<slider::UpdateRequest> update = [&] {
      ScopedSpan span(tracer, "query.parse_update", i);
      return slider::SparqlParser::ParseUpdate(request.text,
                                               repo->dictionary());
    }();
    if (!update.ok()) {
      fail(update.status().ToString());
      continue;
    }
    for (const slider::UpdateOp& parsed : update->ops) {
      // A DELETE WHERE is expanded here, under the query layer's span, and
      // applied as the DELETE DATA of its matches, which is what
      // ExecuteUpdate does with it; the reason span then holds no query
      // work.
      slider::UpdateOp op = parsed;
      if (op.kind == slider::UpdateOp::Kind::kDeleteWhere) {
        ScopedSpan span(tracer, "query.delete_where_expand", i);
        slider::Result<slider::TripleVec> victims =
            slider::ExpandDeleteWhere(op, repo->store());
        if (!victims.ok()) {
          fail("DELETE WHERE expansion failed");
          continue;
        }
        op = slider::UpdateOp();
        op.kind = slider::UpdateOp::Kind::kDeleteData;
        op.data = std::move(*victims);
      }
      const bool insert = op.kind == slider::UpdateOp::Kind::kInsertData;
      const EngineCounters before = EngineCounters::Read(*repo);
      slider::UpdateRequest single;
      single.ops.push_back(std::move(op));
      slider::Result<slider::UpdateResult> result = [&] {
        ScopedSpan span(tracer,
                        insert ? "reason.insert_apply" : "reason.delete_apply",
                        i);
        return repo->ExecuteUpdate(single);
      }();
      if (!result.ok()) {
        fail(result.status().ToString());
        continue;
      }
      const EngineCounters after = EngineCounters::Read(*repo);
      out.derivations += result->derivations;
      out.rule_executions += after.rule_executions - before.rule_executions;
      pool_tasks += after.pool_tasks - before.pool_tasks;
      out.explicit_changes += result->inserted + result->removed;
    }
  }

  for (const Tracer::Span& s : tracer->spans()) {
    if (tracer->name(s.name) == "net.serialize") {
      serialize_ms += Millis(s.end - s.start);
    }
  }
  out.match_rows = matches.rows;
  out.select_p50_ms = Summarize(select_ms).p50;
  const slider::TripleStore::Stats store_after = repo->store().stats();
  const double updates = static_cast<double>(out.updates);
  const double selects = static_cast<double>(out.selects);
  const Summary join = Summarize(join_ms);
  auto p50 = [&](const char* name) {
    return Summarize(tracer->DurationsMs(name)).p50;
  };
  out.metrics = {
      {"net.http_head_parse_us", p50("net.http_head_parse") * 1e3, "us"},
      {"net.serialize_ms_per_select", Ratio(serialize_ms, selects), "ms"},
      {"net.response_bytes_per_row",
       Ratio(static_cast<double>(body_bytes), static_cast<double>(result_rows)),
       "B"},
      {"query.parse_us", p50("query.parse") * 1e3, "us"},
      {"query.plan_us", p50("query.plan") * 1e3, "us"},
      {"query.join_p50_ms", join.p50, "ms"},
      {"query.join_p99_ms", join.tail, "ms"},
      {"query.match_calls_per_select",
       Ratio(static_cast<double>(matches.calls), selects), "count"},
      {"query.rows_touched_per_row",
       Ratio(static_cast<double>(matches.rows),
             static_cast<double>(result_rows)),
       "count"},
      {"query.delete_where_expand_ms",
       Mean(tracer->DurationsMs("query.delete_where_expand")), "ms"},
      {"reason.insert_apply_ms", p50("reason.insert_apply"), "ms"},
      {"reason.delete_apply_ms", p50("reason.delete_apply"), "ms"},
      {"reason.derivations_per_update",
       Ratio(static_cast<double>(out.derivations), updates), "count"},
      {"reason.rule_executions_per_update",
       Ratio(static_cast<double>(out.rule_executions), updates), "count"},
      {"reason.pool_tasks_per_update",
       Ratio(static_cast<double>(pool_tasks), updates), "count"},
      {"store.insert_dup_frac",
       Ratio(static_cast<double>(store_after.duplicates_rejected -
                                 store_before.duplicates_rejected),
             static_cast<double>(store_after.insert_attempts -
                                 store_before.insert_attempts)),
       "fraction"},
  };
  return out;
}

}  // namespace perfbench
