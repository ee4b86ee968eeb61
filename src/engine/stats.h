// Execution statistics.
//
// Besides profiling, the MT layer's tests use these counters for
// timing-independent assertions about the optimizations (e.g. aggregation
// distribution performs exactly T+1 conversions, paper section 4.2.2).
#ifndef MTBASE_ENGINE_STATS_H_
#define MTBASE_ENGINE_STATS_H_

#include <algorithm>
#include <cstdint>

namespace mtbase {
namespace engine {

/// How a field folds in ExecStats::MergeWorker, MergeStatement, operator-.
enum class StatMerge {
  kWorker,     // counter that may tick on morsel workers: both merges
  kStatement,  // counter that only ticks on the statement thread
  kGauge,      // high-water mark: merges and deltas take the max
};

/// The ExecStats field table, X(name, merge) per field in declaration order:
/// the only place a field is named. It generates the struct members,
/// operator-, MergeWorker, MergeStatement and the trace JSON; the trace
/// schema checker (tools/check_trace_schema.py) reads its names from here.
#define MTBASE_EXEC_STATS_FIELDS(X)                                          \
  X(rows_scanned, kWorker)                                                   \
  X(rows_joined, kWorker)                                                    \
  X(udf_calls, kWorker) /* UDF invocations that executed the body */         \
  /* Invocations answered from a result cache: the per-statement cache or    \
     the shared dictionary cache (udf_shared_cache_hits counts the subset    \
     answered by the latter). */                                             \
  X(udf_cache_hits, kWorker)                                                 \
  X(udf_shared_cache_hits, kWorker)                                          \
  /* Cacheable invocations that found neither cache populated and had to     \
     execute the body (volatile UDFs never count: they are not cacheable). */ \
  X(udf_cache_misses, kWorker)                                               \
  /* Body executions performed from a morsel worker thread (immutable UDFs   \
     only; volatile/stable UDFs keep their plans serial). */                 \
  X(udf_parallel_evals, kWorker)                                             \
  X(subquery_execs, kWorker)  /* per-row (correlated) sub-query executions */ \
  X(initplan_execs, kWorker)      /* one-off sub-query executions */         \
  X(decorrelated_execs, kWorker)  /* decorrelated sub-query joins executed */ \
  /* Prepared-statement compilation counters. Tests assert O(1) compilation  \
     timing-independently: re-executing a prepared statement under an        \
     unchanged fingerprint must leave the next four at zero and only bump    \
     the cache hits. */                                                      \
  X(statements_parsed, kStatement)     /* SQL/MTSQL texts parsed */          \
  X(statements_rewritten, kStatement)  /* MTSQL-to-SQL rewrites */           \
  /* Statement compilations (SELECT plans and prepared-DML binds). */        \
  X(statements_planned, kStatement)                                          \
  X(prepare_count, kStatement)  /* compilations via Prepare/PrepareStmt */   \
  /* Prepared executions that reused an earlier compilation (the first       \
     execution after each compile amortizes it and is not a hit). */         \
  X(plan_cache_hits, kStatement)                                             \
  X(rewrite_cache_hits, kStatement)  /* executions reusing a rewrite */      \
  /* Morsel-driven parallel execution (src/engine/parallel/). */             \
  X(parallel_morsels, kWorker)  /* morsels processed by parallel operators */ \
  X(parallel_joins, kWorker)    /* hash joins executed with > 1 worker */    \
  /* Sort/top-N regions executed with > 1 worker (run-sort + merge). */      \
  X(parallel_sorts, kWorker)                                                 \
  /* Executions of a fused Sort+Limit (top-N) operator, serial or parallel. */ \
  X(topn_pushdowns, kWorker)                                                 \
  /* Rows a top-N operator discarded via its bounded heaps instead of        \
     materializing them into a full sorted result (input - merged            \
     candidates). */                                                         \
  X(topn_rows_pruned, kWorker)                                               \
  /* Tenant-aware physical design (partition pruning + index scans); all     \
     three can tick inside UDF body plans running on worker threads. */      \
  X(partitions_pruned, kWorker)   /* partitions skipped by pruned scans */   \
  X(index_scans, kWorker)         /* kIndexScan operator executions */       \
  X(index_rows_skipped, kWorker)  /* rows an index lookup never visited */   \
  /* High-water mark of workers used by any parallel region; tracked by the  \
     region itself, not by workers. A delta reports the higher watermark of  \
     the two snapshots rather than a meaningless subtraction. */             \
  X(threads_used, kGauge)                                                    \
  /* Static plan verification (src/engine/verify/) and rewrite auditing      \
     (src/mt/audit/) run at compile time: re-executing a prepared statement  \
     under an unchanged fingerprint moves none of these. */                  \
  X(plans_verified, kStatement)     /* plans run through PlanVerifier */     \
  X(verify_violations, kStatement)  /* violations reported (0 = clean) */    \
  X(rewrites_audited, kStatement)   /* statements run through the auditor */ \
  X(audit_violations, kStatement)   /* violations reported (0 = clean) */

struct ExecStats {
#define MTBASE_STATS_MEMBER(name, merge) uint64_t name = 0;
  MTBASE_EXEC_STATS_FIELDS(MTBASE_STATS_MEMBER)
#undef MTBASE_STATS_MEMBER

  void Reset() { *this = ExecStats(); }
  uint64_t total_udf_invocations() const { return udf_calls + udf_cache_hits; }

  /// Field-wise difference (counters are monotonic; use via StatsScope).
  /// Gauges take the max of the two snapshots.
  ExecStats operator-(const ExecStats& o) const;

  /// Fold a per-statement stats frame back into the database-wide cumulative
  /// counters (all fields; gauges keep max semantics). Used by the serving
  /// layer so concurrent statements each count into a private frame and
  /// merge once, under one lock, at statement end.
  void MergeStatement(const ExecStats& s);

  /// Fold a worker's thread-local counters back into the statement's stats
  /// after a parallel region completes (kWorker fields only).
  void MergeWorker(const ExecStats& w);
};

/// One row of the field table, for code that iterates over every field.
struct ExecStatsField {
  const char* name;
  uint64_t ExecStats::*member;
  StatMerge merge;
};

inline constexpr ExecStatsField kExecStatsFields[] = {
#define MTBASE_STATS_ENTRY(name, merge) \
  {#name, &ExecStats::name, StatMerge::merge},
    MTBASE_EXEC_STATS_FIELDS(MTBASE_STATS_ENTRY)
#undef MTBASE_STATS_ENTRY
};

inline ExecStats ExecStats::operator-(const ExecStats& o) const {
  ExecStats d;
  for (const ExecStatsField& f : kExecStatsFields) {
    d.*f.member = f.merge == StatMerge::kGauge
                      ? std::max(this->*f.member, o.*f.member)
                      : this->*f.member - o.*f.member;
  }
  return d;
}

inline void ExecStats::MergeStatement(const ExecStats& s) {
  for (const ExecStatsField& f : kExecStatsFields) {
    if (f.merge == StatMerge::kGauge) {
      this->*f.member = std::max(this->*f.member, s.*f.member);
    } else {
      this->*f.member += s.*f.member;
    }
  }
}

inline void ExecStats::MergeWorker(const ExecStats& w) {
  for (const ExecStatsField& f : kExecStatsFields) {
    if (f.merge == StatMerge::kWorker) this->*f.member += w.*f.member;
  }
}

/// RAII counter snapshot: scopes ExecStats deltas to a region of code without
/// resetting the live (cumulative) counters, so independent measurements can
/// nest and interleave.
///
///   StatsScope scope(db.stats());
///   ... run statements ...
///   ExecStats d = scope.Delta();
class StatsScope {
 public:
  explicit StatsScope(const ExecStats* live) : live_(live), start_(*live) {}
  ExecStats Delta() const { return *live_ - start_; }
  /// Re-anchor the snapshot to the current counter values.
  void Restart() { start_ = *live_; }

 private:
  const ExecStats* live_;
  ExecStats start_;
};

/// Which DBMS the engine impersonates (DESIGN.md section 2).
enum class DbmsProfile {
  /// PostgreSQL-like: results of IMMUTABLE UDFs are cached per statement,
  /// keyed by argument values.
  kPostgres,
  /// "System C"-like: UDFs cannot be declared deterministic, every call
  /// executes the body (paper Appendix C).
  kSystemC,
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_STATS_H_
