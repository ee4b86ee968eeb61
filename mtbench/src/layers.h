// The traced run's per-layer instrumentation: spans around each module's
// public entry points for one statement, registry snapshots read around a
// run, and the per-layer metric set every workload reports.
#ifndef MTBENCH_LAYERS_H_
#define MTBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common.h"
#include "common/result.h"
#include "engine/database.h"
#include "mt/session.h"

namespace mtbench {

/// Process-wide metrics registry counters the report reads around a run.
struct RegistrySnapshot {
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_evictions = 0;
  uint64_t admitted = 0;
  uint64_t queued = 0;
  uint64_t wait_count = 0;
  double wait_sum_s = 0;

  static RegistrySnapshot Take();
  RegistrySnapshot operator-(const RegistrySnapshot& o) const;
};

/// Called with every result a probed statement produced.
using ResultCheck =
    std::function<void(const mtbase::Result<mtbase::engine::ResultSet>&)>;

/// How often ProbeStatement repeats each call: the µs-scale compile layers
/// `micro` times, the executions `exec` times (medians are taken).
struct ProbeReps {
  int micro;
  int exec;
};

/// What a probed statement yielded beyond its checked results.
struct ProbeResult {
  /// EXPLAIN (ANALYZE) rendering (with `explain` only).
  std::string explain;
  /// ExecStats delta and row count of the first warm Session::Execute.
  mtbase::engine::ExecStats stats;
  uint64_t rows_returned = 0;
};

/// Trace one statement through every layer as spans under a root span
/// "statement" (stmt id `stmt`). Interleaved, `reps.micro` times each:
/// parse; Session::Rewrite with the audit gate on ("rewrite") and off
/// ("rewrite_noaudit"); parse of the rewritten SQL ("parse_sql");
/// Database::Prepare on it with the verify gate on ("prepare") and off
/// ("prepare_noverify"). Then, interleaved `reps.exec` times, that plan's
/// PreparedPlan::Execute ("execute") and a warm Session::Execute
/// ("session_execute"), plus, given a `baseline` plan, that plan's Execute
/// ("baseline_execute") in the same rounds; and with `explain`,
/// Session::Explain with analyze on ("explain_analyze"). Every execution's
/// result goes to `check` (DML therefore runs 2 * reps.exec times).
ProbeResult ProbeStatement(mtbase::mt::Session* session,
                           const std::string& mtsql, uint64_t stmt,
                           ProbeReps reps, bool explain,
                           mtbase::engine::PreparedPlan* baseline,
                           const ResultCheck& check, SpanLog* log);

/// Inputs of the per-layer metric set; fields a workload does not exercise
/// stay 0 and print as n/a.
struct LayerFigures {
  // sql / mt / engine phase costs, medians over statements (seconds).
  double parse_s = 0;
  double rewrite_s = 0;
  double audit_s = 0;
  double prepare_s = 0;
  double verify_s = 0;
  double session_overhead_s = 0;
  double execute_sum_s = 0;          // sum of PreparedPlan::Execute spans
  double session_execute_sum_s = 0;  // sum of Session::Execute spans
  // Registry counters read around the run.
  RegistrySnapshot registry;
  // ExecStats over `passes` passes of the workload.
  mtbase::engine::ExecStats stats;
  uint64_t rows_returned = 0;
  double passes = 1;
  // mth-all: geometric means of MT vs TPC-H baseline execute time (ms).
  double mt_execute_geo_ms = 0;
  double tpch_execute_geo_ms = 0;
  // Pass times at o4 / o3 / canonical (seconds).
  double o4_pass_s = 0;
  double o3_pass_s = 0;
  double canonical_pass_s = 0;
  // EXPLAIN (ANALYZE) self time per operator kind, per pass (ms).
  std::map<std::string, double> op_ms;
  // Set-up phases (seconds).
  double generate_s = 0;
  double load_s = 0;
  double load_baseline_s = 0;
  // serving: closed-loop throughput (stmt/s) of alternated rounds with the
  // in-program tracer installed / removed, medians over the rounds, and the
  // median of each pair's traced / untraced ratio.
  double traced_throughput = 0;
  double untraced_throughput = 0;
  double traced_ratio = 0;
  size_t trace_pairs = 0;
  uint64_t trace_records = 0;  // JSONL records the traced rounds wrote
};

/// One statement's phase costs (seconds), each from the fastest of its
/// interleaved repetitions: the derived ones subtract the enclosed calls.
struct Phases {
  double parse, rewrite, audit, prepare, verify, session_overhead;
};
Phases StatementPhases(const SpanLog& log, uint64_t stmt);

/// Fill the phase fields of `f` (medians over statements [0, n)) from the
/// spans.
void SummarizePhases(const SpanLog& log, uint64_t n, LayerFigures* f);

/// Emit the per-layer metric set (same names on every workload) into
/// `report`, with a summary line per metric giving every ratio's numerator
/// and denominator.
void EmitLayerMetrics(const LayerFigures& f, Report* report);

}  // namespace mtbench

#endif  // MTBENCH_LAYERS_H_
