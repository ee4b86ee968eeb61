// serving: the many-tenant mix. 200 sessions of 12 Zipf-skewed tenants,
// driven closed-loop by up to 4 threads that each keep one statement
// outstanding. Every third session is an "IN ()" analytic reader; the others
// mix own-scope lookups with 25% single-row UPDATEs of their own customers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/obs/trace.h"
#include "layers.h"
#include "mth/runner.h"
#include "workloads.h"

namespace mtbench {

using namespace mtbase;  // NOLINT

namespace {

constexpr double kScale = 0.002;
constexpr int64_t kTenants = 12;
constexpr double kZipf = 1.0;
constexpr size_t kSessions = 200;
constexpr int kAdmissionCap = 2;
constexpr int kWritePct = 25;
constexpr int kSetupRepeats = 9;
/// The timed run is split over this many freshly loaded databases, so that
/// no single load's memory placement sets the run's speed (see
/// mth_workload.cc).
constexpr int kSegments = 3;
constexpr uint64_t kProbeStatements = 150;
/// The traced run's closed loop is capped so it stays well inside the
/// per-run time limit whatever --seconds is.
constexpr double kTracedLoopSeconds = 10;
/// obs.trace_overhead_frac: pairs of short closed-loop rounds, one with the
/// in-program tracer installed and one without.
constexpr int kTracePairs = 12;
constexpr double kTraceRoundSeconds = 0.5;
constexpr ProbeReps kProbeReps = {15, 5};

const std::vector<std::string>& AnalyticSql() {
  static const std::vector<std::string> sql = {
      "SELECT COUNT(*), SUM(o_totalprice) FROM orders",
      "SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag",
      "SELECT c_mktsegment, COUNT(*) FROM customer "
      "GROUP BY c_mktsegment ORDER BY c_mktsegment",
  };
  return sql;
}
const char* kLookupSql = "SELECT COUNT(*), SUM(c_acctbal) FROM customer";
const char* kBalanceSql = "SELECT SUM(c_acctbal) FROM customer";

enum Kind { kAnalytic = 0, kLookup = 1, kWrite = 2 };
const char* const kKindNames[] = {"analytic", "lookup", "write"};

struct Connection {
  std::unique_ptr<mt::Session> session;
  int64_t tenant = 1;
  bool analytic = false;
};

struct Statement {
  Kind kind;
  size_t analytic_query = 0;
  std::string sql;
};

/// The loaded database, the session population and the gold values.
struct Serving {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<mt::Middleware> mw;
  double generate_s = 0;
  double load_s = 0;
  std::vector<std::vector<int64_t>> customers;  // custkeys by tenant
  std::vector<Connection> conns;
  /// Canonical-level result of each analytic query, by client tenant.
  std::vector<std::vector<engine::ResultSet>> analytic_gold;
  /// Rows each tenant's UPDATEs changed, and its SUM(c_acctbal) before.
  std::unique_ptr<std::atomic<uint64_t>[]> updated;
  std::vector<Result<engine::ResultSet>> balance_before;

  void Reset() {
    conns.clear();
    mw.reset();
    db.reset();
  }
};

Status Load(uint64_t seed, Serving* s) {
  s->Reset();
  mth::MthConfig cfg;
  cfg.scale_factor = kScale;
  cfg.num_tenants = kTenants;
  cfg.distribution = mth::MthConfig::Distribution::kZipf;
  cfg.seed = seed;
  const double t0 = NowSeconds();
  MTB_ASSIGN_OR_RETURN(mth::MthData data, mth::GenerateData(cfg));
  const double t1 = NowSeconds();
  s->db = std::make_unique<engine::Database>(engine::DbmsProfile::kPostgres);
  s->mw = std::make_unique<mt::Middleware>(s->db.get());
  MTB_RETURN_IF_ERROR(mth::LoadMth(s->db.get(), s->mw.get(), data, cfg));
  const double t2 = NowSeconds();
  s->generate_s = t1 - t0;
  s->load_s = t2 - t1;
  s->customers.assign(static_cast<size_t>(kTenants) + 1, {});
  for (size_t c = 0; c < data.customer_tenant.size(); ++c) {
    s->customers[static_cast<size_t>(data.customer_tenant[c])].push_back(
        static_cast<int64_t>(c) + 1);
  }
  return Status::OK();
}

Statement Draw(const Serving& s, const Connection& conn, Rng* rng) {
  if (conn.analytic) {
    const size_t q = static_cast<size_t>(rng->Uniform(0, 2));
    return {kAnalytic, q, AnalyticSql()[q]};
  }
  const std::vector<int64_t>& own = s.customers[static_cast<size_t>(conn.tenant)];
  if (!own.empty() && rng->Uniform(1, 100) <= kWritePct) {
    return {kWrite, 0,
            "UPDATE customer SET c_acctbal = c_acctbal + 1.00 "
            "WHERE c_custkey = " + std::to_string(rng->Pick(own))};
  }
  return {kLookup, 0, kLookupSql};
}

/// The per-statement correctness gates: analytic results equal the
/// canonical gold, lookups count exactly the tenant's customers, and every
/// UPDATE changes exactly one row (recorded for the SUM(c_acctbal) gate).
void Check(Serving* s, const Connection& conn, const Statement& st,
           const Result<engine::ResultSet>& r, Outcome* out) {
  ++out->attempted;
  if (!r.ok()) {
    out->Fail(std::string(kKindNames[st.kind]) + ": " + r.status().ToString());
    return;
  }
  const engine::ResultSet& rs = r.value();
  const size_t tenant = static_cast<size_t>(conn.tenant);
  std::string why;
  switch (st.kind) {
    case kAnalytic:
      if (!mth::ResultsEqual(rs, s->analytic_gold[tenant][st.analytic_query],
                             &why)) {
        out->Fail("analytic differs from the canonical gold: " + why);
      }
      break;
    case kLookup:
      if (rs.rows.size() != 1 || rs.rows[0].empty() ||
          rs.rows[0][0].AsDouble() !=
              static_cast<double>(s->customers[tenant].size())) {
        out->Fail("lookup count differs for tenant " +
                  std::to_string(tenant));
      }
      break;
    case kWrite: {
      const int64_t n = rs.rows.size() == 1 && !rs.rows[0].empty()
                            ? rs.rows[0][0].int_value()
                            : -1;
      if (n > 0) s->updated[tenant] += static_cast<uint64_t>(n);
      if (n != 1) out->Fail(st.sql + " changed " + std::to_string(n) + " rows");
      break;
    }
  }
}

std::vector<Result<engine::ResultSet>> Balances(Serving* s) {
  std::vector<Result<engine::ResultSet>> out;
  for (int64_t t = 0; t <= kTenants; ++t) {
    mt::Session own(s->mw.get(), t);
    out.push_back(t == 0 ? Result<engine::ResultSet>(engine::ResultSet{})
                         : own.Execute(kBalanceSql));
  }
  return out;
}

/// Open the session population and compute the gold values (untimed).
Status Prepare(const Args& args, Serving* s, Outcome* out) {
  s->db->set_max_concurrent_statements(kAdmissionCap);
  engine::PlannerOptions options = s->db->planner_options();
  options.max_threads = 1;
  s->db->set_planner_options(options);

  ZipfGenerator tenant_pick(kTenants, kZipf, args.seed * 31 + 7);
  s->conns.resize(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    Connection& c = s->conns[i];
    c.tenant = tenant_pick.Next();
    c.session = std::make_unique<mt::Session>(s->mw.get(), c.tenant);
    c.analytic = i % 3 == 0;
    if (c.analytic) {
      MTB_RETURN_IF_ERROR(c.session->Execute("SET SCOPE = \"IN ()\"").status());
    }
  }

  s->analytic_gold.assign(static_cast<size_t>(kTenants) + 1, {});
  for (int64_t t = 1; t <= kTenants; ++t) {
    mt::Session gold(s->mw.get(), t);
    gold.set_optimization_level(mt::OptLevel::kCanonical);
    MTB_RETURN_IF_ERROR(gold.Execute("SET SCOPE = \"IN ()\"").status());
    for (const std::string& sql : AnalyticSql()) {
      auto r = gold.Execute(sql);
      if (!r.ok()) return Status::Internal("gold: " + r.status().ToString());
      s->analytic_gold[static_cast<size_t>(t)].push_back(std::move(r).value());
    }
  }

  // Warm-up: compile every read text once per client tenant and scope; the
  // shared plan cache serves it to the tenant's other sessions. UPDATE texts
  // compile in the loop: ~300 of them overflow the cache.
  std::vector<bool> warm[2] = {
      std::vector<bool>(static_cast<size_t>(kTenants) + 1, false),
      std::vector<bool>(static_cast<size_t>(kTenants) + 1, false)};
  for (Connection& c : s->conns) {
    std::vector<bool>::reference done =
        warm[c.analytic][static_cast<size_t>(c.tenant)];
    if (done) continue;
    done = true;
    if (c.analytic) {
      for (size_t q = 0; q < AnalyticSql().size(); ++q) {
        Statement st{kAnalytic, q, AnalyticSql()[q]};
        Check(s, c, st, c.session->Execute(st.sql), out);
      }
    } else {
      Statement st{kLookup, 0, kLookupSql};
      Check(s, c, st, c.session->Execute(st.sql), out);
    }
  }

  s->updated.reset(new std::atomic<uint64_t>[kTenants + 1]);
  for (int64_t t = 0; t <= kTenants; ++t) s->updated[t] = 0;
  s->balance_before = Balances(s);
  for (int64_t t = 1; t <= kTenants; ++t) {
    if (!s->balance_before[static_cast<size_t>(t)].ok()) {
      return s->balance_before[static_cast<size_t>(t)].status();
    }
  }
  return Status::OK();
}

/// The SUM(c_acctbal) gate: each tenant's own-scope balance moved by
/// exactly 1.00 per row its UPDATEs changed.
void CheckBalances(Serving* s, bool corrupt, Outcome* out) {
  std::vector<Result<engine::ResultSet>> after = Balances(s);
  for (int64_t t = 1; t <= kTenants; ++t) {
    const size_t i = static_cast<size_t>(t);
    ++out->attempted;
    uint64_t expected_updates = s->updated[i].load();
    if (corrupt && t == 1) ++expected_updates;
    const std::string who = "tenant " + std::to_string(t) + " balance";
    if (!after[i].ok()) {
      out->Fail(who + ": " + after[i].status().ToString());
      continue;
    }
    const Value& v0 = s->balance_before[i].value().rows.at(0).at(0);
    const Value& v1 = after[i].value().rows.at(0).at(0);
    if (v0.is_null() || v1.is_null()) {  // a tenant without customers
      if (expected_updates != 0 || !v0.is_null() || !v1.is_null()) {
        out->Fail(who + ": NULL balance");
      }
      continue;
    }
    const Decimal delta = v1.decimal_value().Sub(v0.decimal_value());
    const Decimal want(static_cast<int64_t>(expected_updates) * 100, 2);
    if (!(delta == want)) {
      out->Fail(who + " moved by " + delta.ToString() + ", expected " +
                want.ToString());
    }
  }
}

struct LoopResult {
  std::vector<double> latency[3];  // seconds, by Kind
  std::vector<double> rounds;      // seconds per kSessions completions
  uint64_t statements = 0;
  uint64_t rows_returned = 0;
  double wall_s = 0;
};

/// The closed loop: each driver thread owns the sessions t, t + n, ... and
/// keeps one statement outstanding until `seconds` have passed. Per-thread
/// sample vectors merge at the end.
void RunLoop(Serving* s, uint64_t seed, double seconds, LoopResult* res,
             Outcome* out) {
  const int threads = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  struct PerThread {
    std::vector<double> latency[3];
    Outcome outcome;
    uint64_t rows = 0;
  };
  std::vector<PerThread> per(static_cast<size_t>(threads));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0};
  std::mutex marks_mu;
  std::vector<double> marks;
  std::vector<std::thread> workers;
  const double start = NowSeconds();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(seed * 1000 + static_cast<uint64_t>(t) + 1);
      PerThread& mine = per[static_cast<size_t>(t)];
      size_t cursor = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        Connection& conn = s->conns[cursor];
        cursor += static_cast<size_t>(threads);
        if (cursor >= s->conns.size()) cursor = static_cast<size_t>(t);
        const Statement st = Draw(*s, conn, &rng);
        const double t0 = NowSeconds();
        auto r = conn.session->Execute(st.sql);
        const double t1 = NowSeconds();
        mine.latency[st.kind].push_back(t1 - t0);
        if (r.ok()) mine.rows += r.value().rows.size();
        if ((done.fetch_add(1) + 1) % kSessions == 0) {
          std::lock_guard<std::mutex> lock(marks_mu);
          marks.push_back(t1);
        }
        Check(s, conn, st, r, &mine.outcome);
      }
    });
  }
  while (NowSeconds() - start < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& w : workers) w.join();
  res->wall_s = NowSeconds() - start;
  for (PerThread& p : per) {
    for (int k = 0; k < 3; ++k) {
      res->latency[k].insert(res->latency[k].end(), p.latency[k].begin(),
                             p.latency[k].end());
      res->statements += p.latency[k].size();
    }
    res->rows_returned += p.rows;
    out->Merge(p.outcome);
  }
  std::sort(marks.begin(), marks.end());
  double prev = start;
  for (double m : marks) {
    res->rounds.push_back(m - prev);
    prev = m;
  }
}

uint64_t CountLines(const std::string& path) {
  std::ifstream in(path);
  uint64_t n = 0;
  for (std::string line; std::getline(in, line);) ++n;
  return n;
}

/// obs.trace_overhead_frac, measured in this process on the loaded
/// database: alternated short closed-loop rounds with an obs::Tracer writing
/// JSONL to a scratch file installed as the global tracer, and with none.
/// Each pair replays the same statement draws and swaps which side runs
/// first; the tracer changes only while no worker thread runs.
void MeasureTraceOverhead(const Args& args, Serving* s, LayerFigures* f,
                          Outcome* out) {
  const std::string path = args.out_dir + "/serving-seed" +
                           std::to_string(args.seed) + "-trace.jsonl";
  std::vector<double> on, off, ratios;
  for (int i = 0; i < kTracePairs; ++i) {
    double rate[2] = {0, 0};  // stmt/s untraced, traced
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 1) != (i % 2 == 1);
      std::remove(path.c_str());
      std::unique_ptr<obs::Tracer> tracer;
      if (traced) tracer = std::make_unique<obs::Tracer>(path);
      obs::Tracer::SetGlobalForTesting(tracer.get());
      LoopResult loop;
      RunLoop(s, args.seed * 1000 + static_cast<uint64_t>(i),
              kTraceRoundSeconds, &loop, out);
      obs::Tracer::SetGlobalForTesting(nullptr);
      tracer.reset();
      rate[traced] = static_cast<double>(loop.statements) / loop.wall_s;
      if (traced) f->trace_records += CountLines(path);
    }
    off.push_back(rate[0]);
    on.push_back(rate[1]);
    ratios.push_back(rate[1] / rate[0]);
  }
  std::remove(path.c_str());
  f->traced_throughput = Median(on);
  f->untraced_throughput = Median(off);
  f->traced_ratio = Median(ratios);
  f->trace_pairs = ratios.size();
}

void TraceServing(const Args& args, Serving* s, Report* report) {
  LayerFigures f;
  f.generate_s = s->generate_s;
  f.load_s = s->load_s;
  Outcome* out = &report->outcome;

  // The closed loop, with registry counters and ExecStats read around it.
  const RegistrySnapshot before = RegistrySnapshot::Take();
  engine::StatsScope scope(s->db->stats());
  LoopResult loop;
  RunLoop(s, args.seed, std::min(args.seconds, kTracedLoopSeconds), &loop,
          out);
  f.registry = RegistrySnapshot::Take() - before;
  f.stats = scope.Delta();
  f.rows_returned = loop.rows_returned;
  f.passes = static_cast<double>(loop.statements) / kSessions;

  // Spans around every layer for a sample of the same statement mix.
  SpanLog log;
  Rng rng(args.seed * 13 + 5);
  for (uint64_t i = 0; i < kProbeStatements; ++i) {
    Connection& conn = s->conns[i % s->conns.size()];
    const Statement st = Draw(*s, conn, &rng);
    ProbeStatement(
        conn.session.get(), st.sql, i, kProbeReps, /*explain=*/false,
        /*baseline=*/nullptr,
        [&](const Result<engine::ResultSet>& r) { Check(s, conn, st, r, out); },
        &log);
  }
  SummarizePhases(log, kProbeStatements, &f);
  MeasureTraceOverhead(args, s, &f, out);
  CheckBalances(s, args.corrupt_expected, out);
  EmitLayerMetrics(f, report);

  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-spans.jsonl";
  log.WriteJsonl(path);
  report->Line("spans: %s", path.c_str());
}

}  // namespace

Status RunServing(const Args& args, Report* report) {
  report->Line("serving: sf %g, %lld tenants (zipf %.1f), %zu sessions "
               "(every third IN () analytic), %d%% writes, admission cap %d, "
               "1 engine thread, seed %llu",
               kScale, static_cast<long long>(kTenants), kZipf, kSessions,
               kWritePct, kAdmissionCap,
               static_cast<unsigned long long>(args.seed));
  // Each segment loads the data afresh (a set-up sample), opens the session
  // population and runs the closed loop for its share of the run; the
  // SUM(c_acctbal) gate is checked at the end of each.
  Serving s;
  std::vector<double> setups;
  // Host speed beside the (serial) set-ups. The closed loop's figures stay
  // raw: the loop mostly waits in the admission queue, and scaling it by
  // CPU speed widened its spread.
  HostSpeed setup_speed(1);
  LoopResult loop;
  for (int seg = 0; seg < (args.trace ? 1 : kSegments); ++seg) {
    MTB_RETURN_IF_ERROR(Load(args.seed, &s));
    setups.push_back(s.generate_s + s.load_s);
    setup_speed.Sample();
    MTB_RETURN_IF_ERROR(Prepare(args, &s, &report->outcome));
    if (args.trace) {
      TraceServing(args, &s, report);
      return Status::OK();
    }
    LoopResult part;
    RunLoop(&s, args.seed * kSegments + static_cast<uint64_t>(seg),
            args.seconds / kSegments, &part, &report->outcome);
    CheckBalances(&s, args.corrupt_expected && seg == 0, &report->outcome);
    for (int k = 0; k < 3; ++k) {
      loop.latency[k].insert(loop.latency[k].end(), part.latency[k].begin(),
                             part.latency[k].end());
    }
    loop.rounds.insert(loop.rounds.end(), part.rounds.begin(),
                       part.rounds.end());
    loop.statements += part.statements;
    loop.wall_s += part.wall_s;
  }
  // The remaining set-up samples, after the timed segments.
  while (setups.size() < static_cast<size_t>(kSetupRepeats)) {
    MTB_RETURN_IF_ERROR(Load(args.seed, &s));
    setups.push_back(s.generate_s + s.load_s);
    setup_speed.Sample();
  }
  const double throughput = static_cast<double>(loop.statements) / loop.wall_s;

  // A run too short to finish a round extrapolates one from the rate.
  const double stream_s = loop.rounds.empty()
                              ? static_cast<double>(kSessions) / throughput
                              : Median(loop.rounds);
  // Per-kind means, not medians: behind the admission cap a statement is
  // either admitted at once or waits for an analytic scan to free a slot,
  // so its latency is bimodal and the median jumps between the modes when
  // their shares shift by a few percent; the mean moves smoothly.
  std::vector<double> means;
  for (const std::vector<double>& lat : loop.latency) {
    double sum = 0;
    for (double x : lat) sum += x;
    means.push_back(lat.empty() ? 0 : sum / static_cast<double>(lat.size()));
  }
  report->Line("set-up %s", setup_speed.Describe().c_str());
  EmitEndToEnd({Median(setups), stream_s, GeoMean(means) * 1e3, throughput,
                setup_speed.TimeScale(), 1},
               "median of " + std::to_string(loop.rounds.size()) +
                   " rounds of " + std::to_string(kSessions) +
                   " statements on " + std::to_string(kSegments) + " loads",
               "means of analytic, lookup, write", report);
  for (int k = 0; k < 3; ++k) {
    const std::vector<double>& lat = loop.latency[k];
    const std::string kind = kKindNames[k];
    report->Line("  %-20s %12.6f ms     (%zu samples; mean %.6f ms)",
                 (kind + "_p50_ms").c_str(), Median(lat) * 1e3, lat.size(),
                 means[static_cast<size_t>(k)] * 1e3);
    double v = 0;
    double q = 0;
    if (Percentile(lat, 0.99, &v)) {
      report->Line("  %-20s %12.6f ms     (%zu samples)",
                   (kind + "_p99_ms").c_str(), v * 1e3, lat.size());
    } else if (TailPercentile(lat, &q, &v)) {
      report->Line("  %-20s %12s        (%zu samples: fewer than 10 beyond; "
                   "p%g = %.6f ms)",
                   (kind + "_p99_ms").c_str(), "n/a", lat.size(), q * 100,
                   v * 1e3);
    } else {
      report->Line("  %-20s %12s        (%zu samples)",
                   (kind + "_p99_ms").c_str(), "n/a", lat.size());
    }
  }
  return Status::OK();
}

}  // namespace mtbench
