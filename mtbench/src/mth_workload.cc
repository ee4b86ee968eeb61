// mth-all and mth-own: one session replays the 22 MT-H queries in a seeded
// order, pass after pass, and every result is checked against a gold result
// computed before timing.
#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "layers.h"
#include "mth/runner.h"
#include "workloads.h"

namespace mtbench {

using namespace mtbase;  // NOLINT

namespace {

constexpr double kScale = 0.01;
constexpr int64_t kTenants = 10;
constexpr int kSetupRepeats = 9;
/// The timed run is split over freshly loaded databases. On serial mth-own
/// the speed of a pass depends on where one load's rows landed in memory
/// (the pass medians of consecutive loads in one process differ by up to
/// 40%), so it averages six loads; on mth-all the loads agree within a few
/// percent, and three keep its warm-up passes short.
constexpr int kSegmentsAll = 3;
constexpr int kSegmentsOwn = 6;
constexpr ProbeReps kProbeReps = {15, 3};

/// The loaded databases and the client session. Members are released in
/// reverse order: session, baseline, middleware, database.
struct Loaded {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<mt::Middleware> mw;
  std::unique_ptr<engine::Database> tpch;
  std::unique_ptr<mt::Session> session;
  double generate_s = 0;
  double load_s = 0;
  double load_baseline_s = 0;

  double setup_s() const { return generate_s + load_s + load_baseline_s; }
  void Reset() {
    session.reset();
    tpch.reset();
    mw.reset();
    db.reset();
  }
};

Status Load(const mth::MthConfig& cfg, bool baseline, Loaded* out) {
  out->Reset();
  const double t0 = NowSeconds();
  MTB_ASSIGN_OR_RETURN(mth::MthData data, mth::GenerateData(cfg));
  const double t1 = NowSeconds();
  out->db = std::make_unique<engine::Database>(engine::DbmsProfile::kPostgres);
  out->mw = std::make_unique<mt::Middleware>(out->db.get());
  MTB_RETURN_IF_ERROR(mth::LoadMth(out->db.get(), out->mw.get(), data, cfg));
  const double t2 = NowSeconds();
  if (baseline) {
    out->tpch =
        std::make_unique<engine::Database>(engine::DbmsProfile::kPostgres);
    MTB_RETURN_IF_ERROR(mth::LoadTpch(out->tpch.get(), data));
  }
  const double t3 = NowSeconds();
  out->generate_s = t1 - t0;
  out->load_s = t2 - t1;
  out->load_baseline_s = baseline ? t3 - t2 : 0;
  return Status::OK();
}

void SetThreads(engine::Database* db, int threads) {
  engine::PlannerOptions options = db->planner_options();
  options.max_threads = threads;
  db->set_planner_options(options);
}

struct Gold {
  const char* name;
  std::vector<engine::ResultSet> results;
};

void Check(const Result<engine::ResultSet>& got, const Gold& gold, size_t q,
           const std::vector<mth::MthQuery>& queries, Outcome* out) {
  ++out->attempted;
  if (!got.ok()) {
    out->Fail(queries[q].name + ": " + got.status().ToString());
    return;
  }
  std::string why;
  if (!mth::ResultsEqual(got.value(), gold.results[q], &why)) {
    out->Fail(queries[q].name + " differs from the " + gold.name + ": " +
              why);
  }
}

/// One pass over `order`; returns its wall time. Results are checked after
/// the pass, outside the timed region.
double RunPass(mt::Session* session, const std::vector<mth::MthQuery>& queries,
               const std::vector<size_t>& order, const Gold& gold,
               std::vector<std::vector<double>>* latencies, Outcome* out) {
  std::vector<Result<engine::ResultSet>> results;
  results.reserve(order.size());
  const double start = NowSeconds();
  for (size_t q : order) {
    const double t0 = NowSeconds();
    results.push_back(session->Execute(queries[q].sql));
    if (latencies != nullptr) (*latencies)[q].push_back(NowSeconds() - t0);
  }
  const double seconds = NowSeconds() - start;
  for (size_t k = 0; k < order.size(); ++k) {
    Check(results[k], gold, order[k], queries, out);
  }
  return seconds;
}

void Shuffle(std::vector<size_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1],
              (*v)[static_cast<size_t>(rng->Uniform(
                  0, static_cast<int64_t>(i) - 1))]);
  }
}

/// Per-layer run: spans around every layer for each query, EXPLAIN
/// (ANALYZE), the TPC-H baseline and the o4 / o3 / canonical passes.
void TraceMth(const Args& args, bool all, Loaded* env, mt::Session* session,
              const std::vector<mth::MthQuery>& queries, const Gold& gold,
              Report* report) {
  LayerFigures f;
  f.generate_s = env->generate_s;
  f.load_s = env->load_s;
  f.load_baseline_s = env->load_baseline_s;
  Outcome* out = &report->outcome;

  SpanLog log;
  std::vector<std::map<std::string, double>> ops(queries.size());
  std::vector<double> mt_ms, tpch_ms;
  for (size_t q = 0; q < queries.size(); ++q) {
    // mth-all: the TPC-H baseline plan executes in the same rounds as the MT
    // plan, so both sides of mt.overhead_ratio are medians of interleaved
    // repetitions.
    Result<engine::PreparedPlan> baseline = Status::OK();
    if (all) {
      baseline = env->tpch->Prepare(queries[q].sql);
      if (!baseline.ok()) {
        out->Fail(queries[q].name + " baseline: " +
                  baseline.status().ToString());
      }
    }
    ProbeResult p = ProbeStatement(
        session, queries[q].sql, q, kProbeReps, /*explain=*/true,
        all && baseline.ok() ? &baseline.value() : nullptr,
        [&](const Result<engine::ResultSet>& r) {
          Check(r, gold, q, queries, out);
        },
        &log);
    f.rows_returned += p.rows_returned;
    f.stats.MergeStatement(p.stats);
    ops[q] = OperatorSelfMs(p.explain);
    for (const auto& [kind, ms] : ops[q]) f.op_ms[kind] += ms;
    if (all && baseline.ok()) {
      mt_ms.push_back(log.MedianOf(q, "execute") * 1e3);
      tpch_ms.push_back(log.MedianOf(q, "baseline_execute") * 1e3);
    }
  }
  SummarizePhases(log, queries.size(), &f);
  if (all) {
    f.mt_execute_geo_ms = GeoMean(mt_ms);
    f.tpch_execute_geo_ms = GeoMean(tpch_ms);
  }

  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const RegistrySnapshot before = RegistrySnapshot::Take();
  f.o4_pass_s = RunPass(session, queries, order, gold, nullptr, out);
  f.registry = RegistrySnapshot::Take() - before;
  for (mt::OptLevel level : {mt::OptLevel::kO3, mt::OptLevel::kCanonical}) {
    session->set_optimization_level(level);
    RunPass(session, queries, order, gold, nullptr, out);  // compile
    const double s = RunPass(session, queries, order, gold, nullptr, out);
    (level == mt::OptLevel::kO3 ? f.o3_pass_s : f.canonical_pass_s) = s;
  }
  session->set_optimization_level(mt::OptLevel::kO4);

  EmitLayerMetrics(f, report);

  // The per-query phase x operator table: every MT-H cell with its
  // explanation.
  std::string header = "query\tparse_us\trewrite_us\taudit_us\tprepare_us\t"
                       "verify_us\texecute_ms\tsession_ms";
  for (const std::string& k : OperatorKinds()) header += "\t" + k + "_ms";
  header += "\tother_ms";
  std::vector<std::string> rows = {header};
  for (size_t q = 0; q < queries.size(); ++q) {
    const Phases p = StatementPhases(log, q);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.3f\t%.3f",
                  queries[q].name.c_str(), p.parse * 1e6, p.rewrite * 1e6,
                  p.audit * 1e6, p.prepare * 1e6, p.verify * 1e6,
                  log.MedianOf(q, "execute") * 1e3,
                  log.MedianOf(q, "session_execute") * 1e3);
    std::string row = buf;
    for (const std::string& k : OperatorKinds()) {
      std::snprintf(buf, sizeof(buf), "\t%.3f", ops[q][k]);
      row += buf;
    }
    std::snprintf(buf, sizeof(buf), "\t%.3f", ops[q]["other"]);
    rows.push_back(row + buf);
  }
  report->Line("phase x operator per query (us / ms, self times):");
  for (const std::string& row : rows) report->Line("  %s", row.c_str());

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  std::ofstream table(stem + "-phases.tsv");
  for (const std::string& row : rows) table << row << "\n";
  log.WriteJsonl(stem + "-spans.jsonl");
  report->Line("spans: %s-spans.jsonl, table: %s-phases.tsv", stem.c_str(),
               stem.c_str());
}

/// Load the data, then open the client session (C = 1) with the workload's
/// scope, engine thread budget and level o4.
Status Open(const mth::MthConfig& cfg, bool all, int threads, Loaded* env) {
  MTB_RETURN_IF_ERROR(Load(cfg, /*baseline=*/all, env));
  SetThreads(env->db.get(), threads);
  if (env->tpch) SetThreads(env->tpch.get(), threads);
  env->db->set_max_concurrent_statements(0);
  env->session = std::make_unique<mt::Session>(env->mw.get(),
                                               /*client_ttid=*/1);
  if (all) {
    MTB_RETURN_IF_ERROR(
        env->session->Execute("SET SCOPE = \"IN ()\"").status());
  }
  return Status::OK();
}

/// Gold results, computed before timing: the TPC-H baseline on the same data
/// (mth-all), the canonical level for the same scope (mth-own).
Status ComputeGold(bool all, const std::vector<mth::MthQuery>& queries,
                   bool corrupt, Loaded* env, Gold* gold) {
  mt::Session* session = env->session.get();
  session->set_optimization_level(mt::OptLevel::kCanonical);
  for (const mth::MthQuery& q : queries) {
    auto r = all ? env->tpch->Execute(q.sql) : session->Execute(q.sql);
    if (!r.ok()) {
      return Status::Internal(q.name + " gold: " + r.status().ToString());
    }
    gold->results.push_back(std::move(r).value());
  }
  session->set_optimization_level(mt::OptLevel::kO4);
  if (corrupt) {
    for (engine::ResultSet& rs : gold->results) {
      if (rs.rows.empty()) continue;
      rs.rows.push_back(rs.rows.front());
      break;
    }
  }
  return Status::OK();
}

}  // namespace

Status RunMth(const Args& args, bool all, Report* report) {
  mth::MthConfig cfg;
  cfg.scale_factor = kScale;
  cfg.num_tenants = kTenants;
  cfg.seed = args.seed;
  cfg.partitions = all ? 0 : kTenants;
  const int threads =
      all ? static_cast<int>(
                std::max(1u, std::min(4u, std::thread::hardware_concurrency())))
          : 1;
  const std::vector<mth::MthQuery> queries = mth::MthQueries(kScale);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  report->Line("%s: sf %g, %lld tenants, C = 1, D = %s, level o4, %s, "
               "%d engine thread(s), seed %llu",
               args.workload.c_str(), kScale,
               static_cast<long long>(kTenants), all ? "all (IN ())" : "{1}",
               all ? "unpartitioned" : "PARTITION BY HASH (ttid) 10",
               threads, static_cast<unsigned long long>(args.seed));

  // Each segment loads the data afresh (timed from outside: a set-up
  // sample), warms up and replays passes for its share of the run. The data
  // is the same on every load, so the gold results come from the first.
  Gold gold{all ? "TPC-H baseline" : "canonical gold", {}};
  Rng rng(args.seed * 7919 + 17);
  std::vector<std::vector<double>> latencies(queries.size());
  std::vector<double> passes;
  std::vector<double> setups;
  // Host speed beside the (serial) set-ups and beside the passes, on the
  // passes' thread budget.
  HostSpeed setup_speed(1);
  HostSpeed run_speed(threads);
  Loaded env;
  const int segments = args.trace ? 1 : all ? kSegmentsAll : kSegmentsOwn;
  for (int seg = 0; seg < segments; ++seg) {
    MTB_RETURN_IF_ERROR(Open(cfg, all, threads, &env));
    setups.push_back(env.setup_s());
    setup_speed.Sample();
    if (seg == 0) {
      MTB_RETURN_IF_ERROR(
          ComputeGold(all, queries, args.corrupt_expected, &env, &gold));
    }
    // Warm-up: the first compile of each statement is not timed.
    RunPass(env.session.get(), queries, order, gold, nullptr,
            &report->outcome);
    if (args.trace) {
      TraceMth(args, all, &env, env.session.get(), queries, gold, report);
      return Status::OK();
    }
    const double deadline = NowSeconds() + args.seconds / segments;
    do {
      Shuffle(&order, &rng);
      passes.push_back(RunPass(env.session.get(), queries, order, gold,
                               &latencies, &report->outcome));
      run_speed.Sample();
    } while (NowSeconds() < deadline);
  }
  // The remaining set-up samples, after the timed segments.
  while (setups.size() < static_cast<size_t>(kSetupRepeats)) {
    MTB_RETURN_IF_ERROR(Load(cfg, /*baseline=*/all, &env));
    setups.push_back(env.setup_s());
    setup_speed.Sample();
  }

  std::vector<double> query_medians;
  for (const auto& l : latencies) query_medians.push_back(Median(l));
  double measured = 0;
  for (double p : passes) measured += p;
  const double throughput =
      static_cast<double>(passes.size() * queries.size()) / measured;
  report->Line("pass s: %s", Distribution(passes, 1).c_str());
  report->Line("set-up s: %s", Distribution(setups, 1).c_str());
  report->Line("set-up %s", setup_speed.Describe().c_str());
  report->Line("pass %s", run_speed.Describe().c_str());
  EmitEndToEnd({Median(setups), Median(passes), GeoMean(query_medians) * 1e3,
                throughput, setup_speed.TimeScale(), run_speed.TimeScale()},
               "median of " + std::to_string(passes.size()) + " passes on " +
                   std::to_string(segments) + " loads",
               "22 queries, " + std::to_string(passes.size()) +
                   " samples each",
               report);
  for (const char* m : {"analytic_p50_ms", "analytic_p99_ms", "lookup_p50_ms",
                        "lookup_p99_ms", "write_p50_ms", "write_p99_ms"}) {
    report->Line("  %-20s %12s        (serving only)", m, "n/a");
  }
  return Status::OK();
}

}  // namespace mtbench
