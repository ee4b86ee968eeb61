#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/obs/metrics.h"
#include "sql/parser.h"

namespace mtbench {

using namespace mtbase;  // NOLINT

namespace {

/// The registry exposes a histogram's sum only through its JSON rendering.
double HistogramSum(const std::string& json, const std::string& name) {
  const size_t at = json.find("\"" + name + "\": {");
  if (at == std::string::npos) return 0;
  const size_t sum = json.find("\"sum\": ", at);
  return sum == std::string::npos ? 0 : std::strtod(json.c_str() + sum + 7,
                                                    nullptr);
}

/// The verifier assumptions mt::Session installs before compiling a
/// statement for its dataset D', so Database::Prepare on the rewritten SQL
/// proves the same tenant-isolation invariants a session compile does.
engine::verify::VerifyContext SessionVerifyContext(mt::Session* session,
                                                   const sql::Stmt& stmt) {
  mt::Middleware* mw = session->middleware();
  engine::verify::VerifyContext ctx;
  ctx.check_tenant = true;
  ctx.ttid_column = mt::kTtidColumn;
  ctx.tenant_tables = mw->schema()->TenantSpecificTables();
  auto dataset = session->ResolveDataset(stmt);
  if (dataset.ok()) ctx.expected_tenants = dataset.value();
  std::sort(ctx.expected_tenants.begin(), ctx.expected_tenants.end());
  ctx.allow_unfiltered =
      session->optimization_level() != mt::OptLevel::kCanonical &&
      mw->IsAllTenants(ctx.expected_tenants);
  return ctx;
}

/// Both gates are read on every call (verify/verifier.h, audit/audit.h);
/// the probe alternates which setting runs first, so neither pays for a
/// colder cache.
void SetGate(const char* name, bool on) { setenv(name, on ? "1" : "0", 1); }

std::string Us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f us", seconds * 1e6);
  return buf;
}

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  obs::MetricsRegistry* m = obs::MetricsRegistry::Global();
  RegistrySnapshot s;
  s.plan_cache_hits = m->CounterValue("mtbase_mt_plan_cache_hits_total");
  s.plan_cache_misses = m->CounterValue("mtbase_mt_plan_cache_misses_total");
  s.plan_cache_evictions =
      m->CounterValue("mtbase_mt_plan_cache_evictions_total");
  s.admitted = m->CounterValue("mtbase_engine_statements_admitted_total");
  s.queued = m->CounterValue("mtbase_engine_statements_queued_total");
  const char* wait = "mtbase_engine_admission_wait_seconds";
  s.wait_count = m->HistogramCount(wait);
  s.wait_sum_s = HistogramSum(m->RenderJson(), wait);
  return s;
}

RegistrySnapshot RegistrySnapshot::operator-(const RegistrySnapshot& o) const {
  RegistrySnapshot d;
  d.plan_cache_hits = plan_cache_hits - o.plan_cache_hits;
  d.plan_cache_misses = plan_cache_misses - o.plan_cache_misses;
  d.plan_cache_evictions = plan_cache_evictions - o.plan_cache_evictions;
  d.admitted = admitted - o.admitted;
  d.queued = queued - o.queued;
  d.wait_count = wait_count - o.wait_count;
  d.wait_sum_s = wait_sum_s - o.wait_sum_s;
  return d;
}

ProbeResult ProbeStatement(mt::Session* session, const std::string& mtsql,
                           uint64_t stmt, ProbeReps reps, bool explain,
                           engine::PreparedPlan* baseline,
                           const ResultCheck& check, SpanLog* log) {
  engine::Database* db = session->middleware()->db();
  ProbeResult out;
  const uint64_t root = log->Begin(stmt, 0, "statement");
  Result<std::string> sql = Status::OK();
  for (int i = 0; i < reps.micro; ++i) {
    log->Time(stmt, root, "parse", [&] { return sql::ParseStatement(mtsql); });
    for (bool audit : {i % 2 == 0, i % 2 != 0}) {
      SetGate("MTBASE_AUDIT_REWRITES", audit);
      sql = log->Time(stmt, root, audit ? "rewrite" : "rewrite_noaudit",
                      [&] { return session->Rewrite(mtsql); });
    }
  }
  SetGate("MTBASE_AUDIT_REWRITES", true);
  if (!sql.ok()) {
    log->End(root);
    check(sql.status());
    return out;
  }
  {
    auto parsed = sql::ParseStatement(mtsql);
    if (parsed.ok()) {
      mt::Middleware::MetaGuard meta(session->middleware(), false);
      db->set_verify_context(SessionVerifyContext(session, parsed.value()));
    }
  }
  Result<engine::PreparedPlan> plan = Status::OK();
  for (int i = 0; i < reps.micro; ++i) {
    log->Time(stmt, root, "parse_sql",
              [&] { return sql::ParseStatement(sql.value()); });
    for (bool verify : {i % 2 == 0, i % 2 != 0}) {
      SetGate("MTBASE_VERIFY_PLANS", verify);
      plan = log->Time(stmt, root, verify ? "prepare" : "prepare_noverify",
                       [&] { return db->Prepare(sql.value()); });
    }
  }
  SetGate("MTBASE_VERIFY_PLANS", true);
  for (int i = 0; i < reps.exec; ++i) {
    if (plan.ok()) {
      check(log->Time(stmt, root, "execute",
                      [&] { return plan.value().Execute(); }));
    } else {
      check(plan.status());
    }
    if (baseline != nullptr) {
      check(log->Time(stmt, root, "baseline_execute",
                      [&] { return baseline->Execute(); }));
    }
    engine::StatsScope scope(db->stats());
    auto r = log->Time(stmt, root, "session_execute",
                       [&] { return session->Execute(mtsql); });
    if (i == 0) {
      out.stats = scope.Delta();
      if (r.ok()) out.rows_returned = r.value().rows.size();
    }
    check(r);
  }
  if (explain) {
    mt::ExplainOptions options;
    options.analyze = true;
    engine::ResultSet rows;
    auto text = log->Time(stmt, root, "explain_analyze", [&] {
      return session->Explain(mtsql, options, &rows);
    });
    if (text.ok()) {
      out.explain = text.value();
      check(std::move(rows));
    } else {
      check(text.status());
    }
  }
  log->End(root);
  return out;
}

Phases StatementPhases(const SpanLog& log, uint64_t stmt) {
  Phases p;
  p.parse = log.MinOf(stmt, "parse");
  const double rewrite_off = log.MinOf(stmt, "rewrite_noaudit");
  const double prepare_off = log.MinOf(stmt, "prepare_noverify");
  p.rewrite = rewrite_off - p.parse;
  p.audit = log.MinOf(stmt, "rewrite") - rewrite_off;
  p.prepare = prepare_off - log.MinOf(stmt, "parse_sql");
  p.verify = log.MinOf(stmt, "prepare") - prepare_off;
  p.session_overhead = log.MinOf(stmt, "session_execute") -
                       log.MinOf(stmt, "execute") - p.parse;
  return p;
}

void SummarizePhases(const SpanLog& log, uint64_t n, LayerFigures* f) {
  std::vector<double> parse, rewrite, audit, prepare, verify, overhead;
  for (uint64_t s = 0; s < n; ++s) {
    const Phases p = StatementPhases(log, s);
    parse.push_back(p.parse);
    rewrite.push_back(p.rewrite);
    audit.push_back(p.audit);
    prepare.push_back(p.prepare);
    verify.push_back(p.verify);
    overhead.push_back(p.session_overhead);
  }
  f->parse_s = Median(parse);
  f->rewrite_s = Median(rewrite);
  f->audit_s = Median(audit);
  f->prepare_s = Median(prepare);
  f->verify_s = Median(verify);
  f->session_overhead_s = Median(overhead);
  f->execute_sum_s = log.SumOf("execute");
  f->session_execute_sum_s = log.SumOf("session_execute");
}

void EmitLayerMetrics(const LayerFigures& f, Report* r) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto emit = [r](const std::string& name, double value,
                  const std::string& unit, const std::string& basis) {
    r->Add(name, value, unit);
    r->Line("  %-36s %14.6g %-6s %s", name.c_str(), value, unit.c_str(),
            basis.c_str());
  };
  auto of = [](double num, double den, const char* what) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "= %.6g / %.6g (%s)", num, den, what);
    return std::string(buf);
  };
  const engine::ExecStats& st = f.stats;
  const RegistrySnapshot& reg = f.registry;
  r->Line("per-layer metrics (phase costs: fastest of the interleaved "
          "repetitions per statement, median over statements):");

  emit("sql.parse_us", f.parse_s * 1e6, "us",
       "sql::ParseStatement of the client MTSQL");

  emit("mt.rewrite_us", f.rewrite_s * 1e6, "us",
       "Session::Rewrite (audit off) - parse");
  emit("mt.audit_us", f.audit_s * 1e6, "us",
       "Session::Rewrite audit on - off");
  const uint64_t lookups = reg.plan_cache_hits + reg.plan_cache_misses;
  emit("mt.plan_cache_hit_ratio", ratio(reg.plan_cache_hits, lookups),
       "ratio", of(reg.plan_cache_hits, lookups, "hits / lookups"));
  emit("mt.plan_cache_evictions", reg.plan_cache_evictions, "count",
       "evictions during the run");
  emit("mt.session_overhead_us", f.session_overhead_s * 1e6, "us",
       "Session::Execute - PreparedPlan::Execute - parse");
  emit("mt.overhead_ratio", ratio(f.mt_execute_geo_ms, f.tpch_execute_geo_ms),
       "ratio",
       of(f.mt_execute_geo_ms, f.tpch_execute_geo_ms,
          "geomean ms MT execute / TPC-H execute; n/a unless mth-all"));
  emit("mt.o4_over_o3", ratio(f.o4_pass_s, f.o3_pass_s), "ratio",
       of(f.o4_pass_s, f.o3_pass_s, "pass s o4 / o3; n/a on serving"));
  emit("mt.o4_over_canonical", ratio(f.o4_pass_s, f.canonical_pass_s),
       "ratio",
       of(f.o4_pass_s, f.canonical_pass_s,
          "pass s o4 / canonical; n/a on serving"));

  emit("engine.prepare_us", f.prepare_s * 1e6, "us",
       "Database::Prepare (verify off) - parse of the rewritten SQL");
  emit("engine.verify_us", f.verify_s * 1e6, "us",
       "Database::Prepare verify on - off");
  emit("engine.execute_share", ratio(f.execute_sum_s, f.session_execute_sum_s),
       "ratio",
       of(f.execute_sum_s, f.session_execute_sum_s,
          "sum s PreparedPlan::Execute / Session::Execute"));
  emit("engine.rows_scanned_per_row_returned",
       ratio(static_cast<double>(st.rows_scanned),
             static_cast<double>(f.rows_returned)),
       "ratio",
       of(static_cast<double>(st.rows_scanned),
          static_cast<double>(f.rows_returned), "rows scanned / returned"));
  emit("engine.partitions_pruned", st.partitions_pruned / f.passes, "count",
       "per pass");
  emit("engine.udf_calls", st.udf_calls / f.passes, "count",
       "body executions per pass");
  const uint64_t udf_lookups = st.udf_cache_hits + st.udf_cache_misses;
  emit("engine.udf_cache_hit_ratio",
       ratio(static_cast<double>(st.udf_cache_hits),
             static_cast<double>(udf_lookups)),
       "ratio",
       of(static_cast<double>(st.udf_cache_hits),
          static_cast<double>(udf_lookups),
          "per-worker + shared hits / lookups"));
  emit("engine.parallel_morsels", st.parallel_morsels / f.passes, "count",
       "per pass");
  emit("engine.threads_used", static_cast<double>(st.threads_used), "count",
       "high-water mark");
  emit("engine.admission_queued_frac",
       ratio(static_cast<double>(reg.queued),
             static_cast<double>(reg.admitted)),
       "ratio",
       of(static_cast<double>(reg.queued), static_cast<double>(reg.admitted),
          "queued / admitted"));
  emit("engine.admission_wait_ms",
       ratio(reg.wait_sum_s * 1e3, static_cast<double>(reg.wait_count)), "ms",
       of(reg.wait_sum_s * 1e3, static_cast<double>(reg.wait_count),
          "histogram sum ms / count"));
  for (const std::string& kind : OperatorKinds()) {
    auto it = f.op_ms.find(kind);
    emit("engine.op." + kind + "_ms", it == f.op_ms.end() ? 0 : it->second,
         "ms", "EXPLAIN (ANALYZE) self time per pass; n/a on serving");
  }

  emit("mth.generate_s", f.generate_s, "s", "mth::GenerateData");
  emit("mth.load_s", f.load_s, "s", "mth::LoadMth incl. partition DDL");
  emit("mth.load_baseline_s", f.load_baseline_s, "s",
       "mth::LoadTpch; n/a unless mth-all");

  char trace_basis[256];
  std::snprintf(trace_basis, sizeof(trace_basis),
                "= 1 - median of %zu paired round ratios traced / untraced; "
                "medians %.6g / %.6g stmt/s, %llu records traced; n/a unless "
                "serving",
                f.trace_pairs, f.traced_throughput, f.untraced_throughput,
                static_cast<unsigned long long>(f.trace_records));
  emit("obs.trace_overhead_frac", f.trace_pairs > 0 ? 1 - f.traced_ratio : 0,
       "ratio", trace_basis);
  r->Line("  phase medians: parse %s, rewrite %s, audit %s, prepare %s, "
          "verify %s, session overhead %s",
          Us(f.parse_s).c_str(), Us(f.rewrite_s).c_str(),
          Us(f.audit_s).c_str(), Us(f.prepare_s).c_str(),
          Us(f.verify_s).c_str(), Us(f.session_overhead_s).c_str());
}

}  // namespace mtbench
