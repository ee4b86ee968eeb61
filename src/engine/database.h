// Database: the SQL engine facade MTBase's middleware talks to.
//
// Accepts plain SQL text (the output of the MTSQL-to-SQL rewriter), parses,
// plans and executes it. Plays the role of "PostgreSQL" or "System C" in the
// paper's architecture (Figure 4), selected by DbmsProfile.
//
// The execution API is prepared-statement shaped: Prepare() compiles a
// SELECT or DML statement once (parse + bind + plan),
// PreparedPlan::Execute() runs it many times with $n / ? parameter
// bindings. DDL and DCL run through ExecuteStmt(); one-shot Execute()
// dispatches to one or the other. Prepared handles snapshot the
// catalog/UDF compilation version and transparently recompile after DDL.
//
// Each executing statement opens one scope (admission, counter frame,
// statement lock, trace record) at its entry point; callers already inside
// a statement pass theirs in a StatementContext (see StatementScope).
#ifndef MTBASE_ENGINE_DATABASE_H_
#define MTBASE_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/admission.h"
#include "engine/catalog.h"
#include "engine/exec.h"
#include "engine/obs/profile.h"
#include "engine/planner.h"
#include "engine/stats.h"
#include "engine/udf.h"
#include "engine/udf_cache.h"
#include "engine/verify/verifier.h"
#include "sql/ast.h"

namespace mtbase {

namespace obs {
struct StatementTrace;
}  // namespace obs

namespace engine {

class Database;

struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  std::string ToString(size_t max_rows = 25) const;
};

/// Bound form of prepared DML: UPDATE/DELETE predicates and assignments and
/// INSERT targets/VALUES expressions, bound once at compile time (defined in
/// database.cc).
struct BoundDmlPlan;

/// The explicit inputs of one engine statement. A caller already inside a
/// statement (the one-shot Execute / ExecuteScript wrappers, an MT session
/// statement) passes its own counter frame, trace record and cancel flag; a
/// null field means the statement's entry point opens its own.
struct StatementContext {
  /// What PlanVerifier proves the plan against (D'). Read by compiles
  /// (PrepareStmt, ExplainAnalyzeSelect); the PreparedPlan keeps it, so lazy
  /// recompiles after DDL verify against the same D'.
  verify::VerifyContext verify;
  /// The trace record this statement's spans land in. Null: an executing
  /// statement (PreparedPlan::Execute, ExecuteStmt) opens and emits its own
  /// engine record, and a bare compile (PrepareStmt) records no spans.
  obs::StatementTrace* trace = nullptr;
  /// The counter frame. Null: the statement counts into a private frame
  /// folded into Database::stats() when it ends.
  ExecStats* stats = nullptr;
  /// Admission-wait cancel flag (an MT session's closed flag): a statement
  /// queued at the gate aborts cleanly once it reads true. Null: never.
  const std::atomic<bool>* cancel = nullptr;
};

/// A statement compiled once and executable many times. SELECTs (and the
/// SELECT source of INSERT ... SELECT) carry the fully bound physical plan;
/// INSERT/UPDATE/DELETE carry a BoundDmlPlan (targets, predicates and
/// assignment/value expressions bound once — re-execution is bind-free).
/// Execute() revalidates the handle against the database's compilation
/// version and recompiles transparently when DDL moved it; every execution
/// after the first one per compilation counts as ExecStats::plan_cache_hits.
///
/// Concurrency: Execute() is safe to call from many threads on one handle —
/// the compiled form lives in an immutable state block swapped under a
/// handle-level mutex, so the cross-session plan cache (src/mt/plan_cache.h)
/// can share one PreparedPlan between sessions. The handle itself must not
/// be moved while another thread is executing it.
class PreparedPlan {
 public:
  PreparedPlan(PreparedPlan&&) noexcept;
  PreparedPlan& operator=(PreparedPlan&&) noexcept;
  ~PreparedPlan();

  /// Run the statement with `params` bound to $1..$n (left to right for ?).
  /// Inside a caller's statement, counts into ctx.stats, records into
  /// ctx.trace and aborts a queued admission wait on ctx.cancel. ctx.verify
  /// is not read: the handle keeps the context it was prepared under.
  Result<ResultSet> Execute(const std::vector<Value>& params = {},
                            const StatementContext& ctx = {});

  /// Number of parameter slots the statement references.
  int param_count() const { return param_count_; }
  /// The SQL text this handle was prepared from.
  const std::string& sql() const { return sql_; }
  /// Output column names of the latest successful compile (SELECT only;
  /// empty otherwise).
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

 private:
  friend class Database;
  PreparedPlan() = default;

  /// Immutable compiled form (plan / bound DML / version), defined in
  /// database.cc; re-compiles swap a fresh block in under mu_.
  struct CompiledState;

  /// (Re)compile from the stored AST into a fresh state block verified under
  /// verify_ctx_, counting into `stats` and recording plan/verify spans into
  /// `trace`; the caller holds mu_ and has cleared state_ first so a failed
  /// recompile (e.g. a dropped table) cannot leave a usable handle.
  Result<std::shared_ptr<const CompiledState>> CompileLocked(
      ExecStats* stats, obs::StatementTrace* trace);

  /// The compiled form valid at the current compilation version,
  /// recompiling first when DDL moved it. The caller holds the statement
  /// lock.
  Result<std::shared_ptr<const CompiledState>> CurrentState(
      ExecStats* stats, obs::StatementTrace* trace);

  /// The execution body, run inside the statement's scope (see
  /// Database::RunStatement).
  Result<ResultSet> ExecuteInternal(const std::vector<Value>& params,
                                    ExecStats* stats,
                                    obs::StatementTrace* trace);

  Database* db_ = nullptr;
  std::string sql_;
  sql::Stmt stmt_;
  int param_count_ = 0;
  verify::VerifyContext verify_ctx_;
  // Guards state_ swaps (shared_ptr so the handle stays movable).
  std::shared_ptr<std::mutex> mu_ = std::make_shared<std::mutex>();
  std::shared_ptr<const CompiledState> state_;
  std::vector<std::string> column_names_;
};

class Database {
 public:
  /// Reads MTBASE_MAX_CONCURRENT_STATEMENTS into the admission limit
  /// (0 / unset = unlimited).
  explicit Database(DbmsProfile profile = DbmsProfile::kPostgres);

  /// Compile one SELECT or DML statement for repeated execution under the
  /// default verify context (set_verify_context).
  Result<PreparedPlan> Prepare(const std::string& sql);
  /// Same, from an already parsed statement compiled under `ctx` (the MT
  /// middleware prepares the rewritten AST directly with its session's D'
  /// and only keeps `sql_text` for display). DDL and DCL are not
  /// preparable (InvalidArgument): run them through ExecuteStmt.
  Result<PreparedPlan> PrepareStmt(sql::Stmt stmt, std::string sql_text,
                                   StatementContext ctx);

  /// Execute one statement given as SQL text, dispatched like one statement
  /// of ExecuteScript.
  Result<ResultSet> Execute(const std::string& sql);
  /// Execute a ';'-separated script; returns the last statement's result.
  /// SELECT and DML statements run as prepare + execute, the rest through
  /// ExecuteStmt, each in one engine trace record. Errors are prefixed with
  /// the 1-based statement index.
  Result<ResultSet> ExecuteScript(const std::string& sql);
  /// Execute a parsed DDL or DCL statement under the exclusive statement
  /// lock. SELECT and DML run through PrepareStmt + PreparedPlan::Execute
  /// instead and are rejected here.
  Result<ResultSet> ExecuteStmt(const sql::Stmt& stmt,
                                const StatementContext& ctx = {});

  /// Validate primary keys, foreign keys and check constraints of `table`
  /// (all tables if empty). Deferred validation keeps bulk loads fast.
  Status ValidateConstraints(const std::string& table = "");

  /// EXPLAIN (ANALYZE) (docs/observability.md): compile `sel` as PrepareStmt
  /// does, then execute it in its own statement scope with per-operator
  /// instrumentation attached, and render the plan with `[actual: ...]`
  /// annotations plus an `[analyze: ...]` footer. `verify_footer` prepends
  /// a `[verify: ...]` footer against ctx.verify (footer order is fixed:
  /// verify, analyze, then the session layer's audit). `result_out`, if
  /// non-null, receives the instrumented run's result set (tests prove
  /// byte-identity against a plain run).
  Result<std::string> ExplainAnalyzeSelect(const sql::SelectStmt& sel,
                                           const StatementContext& ctx,
                                           bool verify_footer = false,
                                           ResultSet* result_out = nullptr);

  /// Prometheus-text snapshot of the process-wide obs::MetricsRegistry
  /// (docs/observability.md "Metrics").
  std::string DumpMetrics() const;

  /// Bench knob: attach a Database-owned PlanProfiler to every statement
  /// context so executions pay the full ANALYZE instrumentation cost
  /// without rendering anything — rewrite_bench measures
  /// analyze_overhead_pct by toggling this. Off by default; plain execution
  /// never touches the profiler.
  void set_profile_execution(bool on) {
    profile_execution_ = on;
    bench_profiler_.Clear();
  }
  bool profile_execution() const { return profile_execution_; }

  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }
  UdfRegistry* udfs() { return &udfs_; }
  /// Cumulative database-wide counters. Concurrent statements each count
  /// into a private per-statement frame (StatsFrame) and merge here once at
  /// statement end, so reading this between statements is race-free and
  /// totals reconcile exactly.
  ExecStats* stats() { return &stats_; }
  DbmsProfile profile() const { return profile_; }
  void set_profile(DbmsProfile p) { profile_ = p; }
  const PlannerOptions& planner_options() const { return planner_options_; }
  /// Replaces the planner options and eagerly replans UDF bodies under the
  /// exclusive statement lock (an options change is DDL-shaped: it moves the
  /// compilation version and must not race in-flight statements).
  void set_planner_options(const PlannerOptions& o);

  /// RAII per-statement counter frame. stats() is `outer` when the caller
  /// passed its own frame (StatementContext::stats); otherwise a private
  /// frame that folds into Database::stats() (under its mutex) at
  /// destruction.
  class StatsFrame {
   public:
    explicit StatsFrame(Database* db, ExecStats* outer = nullptr);
    ~StatsFrame();
    StatsFrame(const StatsFrame&) = delete;
    StatsFrame& operator=(const StatsFrame&) = delete;

    ExecStats* stats() const { return stats_; }

   private:
    Database* db_;
    ExecStats local_;
    ExecStats* stats_;
  };

  /// Inter-query admission gate (MTBASE_MAX_CONCURRENT_STATEMENTS); see
  /// engine/admission.h. Exposed for the serving layer and tests.
  AdmissionController* admission() { return &admission_; }
  void set_max_concurrent_statements(int n) { admission_.set_limit(n); }

  /// Monotonic compilation version: moves on any DDL (tables, views, UDFs)
  /// or planner-option change. Prepared plans compiled at an older version
  /// recompile on their next Execute.
  uint64_t compilation_version() const {
    return catalog_.version() + udfs_.version() + options_version_;
  }

  /// Opt into the cross-statement result cache for immutable UDFs
  /// (docs/ARCHITECTURE.md "Shared dictionary caches"). Off by default at
  /// the engine layer — per-statement caching stays the plain-SQL engine's
  /// documented behavior — and enabled by the MT middleware, whose
  /// conversion dictionaries only change through registration and DML (both
  /// move the cache epoch). Idempotent: only the first (enabling) call
  /// applies `capacity`; resize later via shared_udf_cache().
  void EnableSharedUdfCache(size_t capacity = SharedUdfCache::kDefaultCapacity);
  bool shared_udf_cache_enabled() const { return shared_udf_cache_enabled_; }
  SharedUdfCache* shared_udf_cache() { return &shared_udf_cache_; }

  /// External component of the shared cache's epoch, bumped by the MT layer
  /// on conversion-pair (re-)registration.
  void BumpSharedUdfEpoch() { ++shared_udf_external_epoch_; }

  /// The epoch a result cached now would be valid under: catalog/UDF DDL
  /// version + the data versions of the tables UDF bodies actually read +
  /// external bumps. Deliberately excluded: planner-option changes (they
  /// change plans, not immutable results) and DML on tables no UDF body
  /// reads (routine tenant-data inserts must not evict a warm dictionary
  /// cache).
  UdfCacheEpoch CurrentUdfCacheEpoch() const;

  /// The verify context plain-SQL Prepare/Execute/ExecuteScript compile
  /// under from now on (engine-level checks until set; the MT middleware
  /// passes its D' to PrepareStmt instead). See verify/verifier.h. Takes the
  /// exclusive statement lock, like set_planner_options.
  void set_verify_context(verify::VerifyContext ctx);

  /// Test-only: mutate each plan after planning, before verification —
  /// lets negative suites deliberately break invariants and assert the
  /// verifier refuses the plan. Pass nullptr to uninstall.
  void set_plan_mutation_hook_for_testing(std::function<void(Plan*)> hook) {
    plan_mutation_hook_ = std::move(hook);
  }

 private:
  friend class PreparedPlan;

  /// One engine statement's execution scope, opened once at its entry point
  /// (PreparedPlan::Execute, ExecuteStmt, ExplainAnalyzeSelect) and never
  /// nested: the admission ticket first (blocking while no lock is held,
  /// aborting on ctx.cancel), then the counter frame, then the statement
  /// lock over ddl_mu_ — exclusive for DDL, shared otherwise, so catalog /
  /// UDF-registry / planner-option reads never race a concurrent DDL.
  class StatementScope {
   public:
    StatementScope(Database* db, const StatementContext& ctx, bool exclusive);
    ~StatementScope();
    StatementScope(const StatementScope&) = delete;
    StatementScope& operator=(const StatementScope&) = delete;

    /// The admission outcome; nothing else is held when it is not OK.
    const Status& status() const { return status_; }
    ExecStats* stats() const { return frame_.stats(); }

   private:
    Database* db_;
    Status status_;
    StatsFrame frame_;
    std::unique_lock<std::shared_mutex> exclusive_lock_;
    std::shared_lock<std::shared_mutex> shared_lock_;
  };

  /// The shell of an executing statement: its StatementScope, its engine
  /// trace record (ctx.trace, else its own titled `text`), and the
  /// per-statement metrics around `body(stats, record)`.
  template <typename Body>
  Result<ResultSet> RunStatement(const StatementContext& ctx, bool exclusive,
                                 const std::string& text, Body body);

  /// One statement of Execute / ExecuteScript in one engine trace record
  /// (`record`, else its own): SELECT and DML prepare + execute under the
  /// default verify context, DDL and DCL run through ExecuteStmt.
  Result<ResultSet> ExecuteParsed(sql::Stmt stmt, const std::string& text,
                                  obs::StatementTrace* record,
                                  ExecStats* stats);

  /// The body of ExecuteStmt, run under the exclusive statement lock.
  Status ApplyDdl(const sql::Stmt& stmt, ExecStats* stats);

  /// The context plain-SQL statements compile under: the default verify
  /// context (read under the shared statement lock).
  StatementContext DefaultContext();
  /// Bind a DML statement's expressions once for repeated execution
  /// (PreparedPlan::Compile counts the compilation).
  Result<std::unique_ptr<BoundDmlPlan>> BindDml(const sql::Stmt& stmt);
  /// `select_plan` carries the precompiled INSERT ... SELECT source, if any.
  Status ExecuteBoundInsert(const BoundDmlPlan& dml, const Plan* select_plan,
                            ExecContext* ctx);
  Result<int64_t> ExecuteBoundUpdate(const BoundDmlPlan& dml,
                                     ExecContext* ctx);
  Result<int64_t> ExecuteBoundDelete(const BoundDmlPlan& dml,
                                     ExecContext* ctx);
  Status ExecuteCreateTable(const sql::CreateTableStmt& ct);
  Status ExecuteCreateFunction(const sql::CreateFunctionStmt& cf,
                               ExecStats* stats);
  Status ValidateTable(const Table& table);

  /// Replan every UDF body: body plans hold raw Table pointers and embed
  /// planner options, so catalog DDL or an options change would otherwise
  /// leave them dangling/stale. Every such change calls this while still
  /// holding the exclusive statement lock, so statements under the shared
  /// lock never observe a body plan mid-replan. Bodies that no longer plan
  /// (dropped objects) become null — executing them errors cleanly — until
  /// a later DDL makes them valid again.
  void RefreshUdfPlans();

  /// Recollect the set of tables any UDF body plan scans (the shared-cache
  /// epoch's data component). Called whenever body plans change.
  void RebuildUdfReadTables();

  /// Run the test mutation hook, then — when verification is enforced
  /// (debug builds / MTBASE_VERIFY_PLANS=1) — prove the plan's invariants
  /// under `ctx`, counting ExecStats::plans_verified into `stats`, recording
  /// a verify span into `trace`, and refusing violating plans
  /// (ExecStats::verify_violations).
  Status VerifyPlan(Plan* plan, const verify::VerifyContext& ctx,
                    ExecStats* stats, obs::StatementTrace* trace);

  ExecContext MakeContext(ExecStats* stats,
                          const std::vector<Value>* params = nullptr);

  Catalog catalog_;
  UdfRegistry udfs_;
  ExecStats stats_;
  /// Guards stats_ merges (StatsFrame destructors from concurrent threads).
  std::mutex stats_mu_;
  DbmsProfile profile_;
  PlannerOptions planner_options_;
  std::atomic<uint64_t> options_version_{0};
  SharedUdfCache shared_udf_cache_;
  bool shared_udf_cache_enabled_ = false;
  std::atomic<uint64_t> shared_udf_external_epoch_{0};
  /// Tables scanned by any UDF body plan (deduplicated). Raw pointers are
  /// safe for the same reason body plans' are: every catalog DDL rebuilds
  /// the set with the plans before releasing the exclusive statement lock.
  std::vector<const Table*> udf_read_tables_;
  /// set_verify_context's value; read under the shared statement lock.
  verify::VerifyContext default_verify_ctx_;
  std::function<void(Plan*)> plan_mutation_hook_;
  /// Reused profiler for set_profile_execution (bench overhead knob).
  obs::PlanProfiler bench_profiler_;
  bool profile_execution_ = false;

  /// Statement-scope reader/writer lock (see StatementScope).
  std::shared_mutex ddl_mu_;
  AdmissionController admission_;
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_DATABASE_H_
