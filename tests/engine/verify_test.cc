// PlanVerifier behavior at the engine level: structural and parallel-safety
// invariants, tenant-isolation slot-dominance analysis under a manual
// VerifyContext, the enforcement gate (MTBASE_VERIFY_PLANS), the EXPLAIN
// (VERIFY) annotation and the ExecStats counters. The negative cases break
// plans through the test mutation hook (or build broken plans by hand) and
// assert each violation class is caught with its machine-readable code.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/explain.h"
#include "engine/verify/mutators.h"
#include "engine/verify/verifier.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE acc (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
        "balance INTEGER NOT NULL)"));
    Table* t = db_.catalog()->FindTable("acc");
    for (int64_t ttid = 1; ttid <= 3; ++ttid) {
      for (int64_t i = 0; i < 4; ++i) {
        ASSERT_OK(t->Insert(
            {Value::Int(ttid), Value::Int(ttid * 10 + i), Value::Int(i * 7)}));
      }
    }
  }

  /// Tenant checking on: "acc" is tenant-specific, D' = {1, 2}.
  verify::VerifyContext TenantCtx() {
    verify::VerifyContext ctx;
    ctx.check_tenant = true;
    ctx.tenant_tables = {"acc"};
    ctx.expected_tenants = {1, 2};
    return ctx;
  }

  Database db_;
};

TEST_F(VerifyTest, CleanPlansPassAndAreCounted) {
  ScopedVerifyEnv env("1");
  StatsScope stats(db_.stats());
  ASSERT_OK_AND_ASSIGN(auto rs,
                       db_.Execute("SELECT id FROM acc WHERE balance > 0"));
  EXPECT_FALSE(rs.rows.empty());
  EXPECT_GT(stats.Delta().plans_verified, 0u);
  EXPECT_EQ(stats.Delta().verify_violations, 0u);
}

// Regression (found by ASan): verifying a statement that calls a UDF whose
// body plan was staled by DDL must replan the body first, not walk a plan
// holding dangling catalog pointers.
TEST_F(VerifyTest, StaleUdfBodyReplannedBeforeVerification) {
  ScopedVerifyEnv env("1");
  ASSERT_OK(db_.Execute("CREATE FUNCTION maxid (INTEGER) RETURNS INTEGER AS "
                        "'SELECT MAX(id) FROM acc WHERE ttid = $1' "
                        "LANGUAGE SQL IMMUTABLE")
                .status());
  ASSERT_OK(db_.Execute("SELECT maxid(1)").status());
  // DROP + CREATE relocates the table the body reads; the next compile
  // verifies (and therefore walks) the body before any execute-path refresh.
  ASSERT_OK(db_.Execute("DROP TABLE acc").status());
  ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE acc (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
      "balance INTEGER NOT NULL); INSERT INTO acc VALUES (1, 42, 0)"));
  ASSERT_OK_AND_ASSIGN(auto rs, db_.Execute("SELECT maxid(1)"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 42);
}

TEST_F(VerifyTest, DisabledByZeroEnv) {
  ScopedVerifyEnv env("0");
  StatsScope stats(db_.stats());
  ASSERT_OK(db_.Execute("SELECT id FROM acc").status());
  EXPECT_EQ(stats.Delta().plans_verified, 0u);
}

TEST_F(VerifyTest, BrokenSortKeyRefused) {
  ScopedVerifyEnv env("1");
  db_.set_plan_mutation_hook_for_testing([](Plan* p) {
    EXPECT_TRUE(verify::BreakFirstSortKey(p));
  });
  StatsScope stats(db_.stats());
  auto r = db_.Execute("SELECT id FROM acc ORDER BY balance");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("SORT_KEY_OUT_OF_RANGE"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_GT(stats.Delta().verify_violations, 0u);
}

TEST_F(VerifyTest, MislabeledSerialOperatorRefused) {
  ScopedVerifyEnv env("1");
  // A bare LIMIT (no ORDER BY, so no top-N fusion) is a serial-only
  // operator: flipping its parallel_safe flag must trip the independent
  // restatement of the safety rules.
  db_.set_plan_mutation_hook_for_testing([](Plan* p) {
    EXPECT_TRUE(verify::MislabelFirstSerialNode(p));
  });
  auto r = db_.Execute("SELECT id FROM acc LIMIT 2 OFFSET 1");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("PARALLEL_UNSAFE_SUBPLAN"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(VerifyTest, UnfilteredTenantScanRefused) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  auto r = db_.Execute("SELECT id FROM acc");
  db_.set_verify_context(verify::VerifyContext());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("TENANT_PREDICATE_MISSING"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(VerifyTest, DominatingTenantPredicateAccepted) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  // Both D-filter shapes the rewriter emits: IN list and equality.
  EXPECT_OK(db_.Execute("SELECT id FROM acc WHERE ttid IN (1, 2)").status());
  EXPECT_OK(db_.Execute("SELECT id FROM acc WHERE ttid = 1 AND balance > 0")
                .status());
  db_.set_verify_context(verify::VerifyContext());
}

TEST_F(VerifyTest, SupersetTenantPredicateRefused) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  // ttid 3 exists in the data but is outside the expected dataset {1, 2}.
  auto r = db_.Execute("SELECT id FROM acc WHERE ttid IN (1, 3)");
  db_.set_verify_context(verify::VerifyContext());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("TENANT_SET_MISMATCH"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(VerifyTest, TtidEquiJoinTransfersRestriction) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  // Only one side carries the D-filter; the ttid equi-join key propagates
  // the restriction to the other side (the rewriter's ttid-join pattern).
  EXPECT_OK(db_.Execute("SELECT a.id, b.id FROM acc a, acc b "
                        "WHERE a.ttid = b.ttid AND a.ttid IN (1, 2) "
                        "AND a.id = b.id")
                .status());
  db_.set_verify_context(verify::VerifyContext());
}

TEST_F(VerifyTest, AllowUnfilteredAdmitsBareScans) {
  ScopedVerifyEnv env("1");
  verify::VerifyContext ctx = TenantCtx();
  ctx.allow_unfiltered = true;  // o1 elided the D-filters: D' = all tenants
  db_.set_verify_context(ctx);
  StatsScope stats(db_.stats());
  EXPECT_OK(db_.Execute("SELECT id FROM acc").status());
  EXPECT_EQ(stats.Delta().verify_violations, 0u);
  db_.set_verify_context(verify::VerifyContext());
}

TEST_F(VerifyTest, StrippedTenantPredicateCaught) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  int stripped = 0;
  db_.set_plan_mutation_hook_for_testing([&stripped](Plan* p) {
    stripped += verify::StripTenantPredicates(p, "ttid");
  });
  auto r = db_.Execute("SELECT id FROM acc WHERE ttid IN (1, 2)");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  db_.set_verify_context(verify::VerifyContext());
  EXPECT_GT(stripped, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("TENANT_PREDICATE_MISSING"),
            std::string::npos)
      << r.status().ToString();
}

/// The first table scan reached through left children (the shapes below
/// have one).
const Plan* FirstScan(const Plan& p) {
  const Plan* node = &p;
  while (node != nullptr && node->kind != Plan::Kind::kScan &&
         node->kind != Plan::Kind::kIndexScan) {
    node = node->left.get();
  }
  return node;
}

// Column pruning: a D-filtered scan whose consumers read only `id` emits one
// of the three table columns; its filter still restricts ttid over the full
// row, and the restricted ttid is then projected away cleanly.
TEST_F(VerifyTest, DFilteredPrunedScanVerifiesClean) {
  verify::VerifyContext ctx = TenantCtx();
  ASSERT_OK_AND_ASSIGN(sql::Stmt stmt,
                       sql::ParseStatement(
                           "SELECT id FROM acc WHERE ttid IN (1, 2)"));
  Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, planner.PlanSelect(*stmt.select));
  const Plan* scan = FirstScan(*plan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->projected);
  EXPECT_EQ(scan->scan_columns, std::vector<int>{1});
  verify::VerifyResult r = verify::PlanVerifier(&ctx).Verify(*plan);
  EXPECT_TRUE(r.ok()) << r.Message();

  ScopedVerifyEnv env("1");
  db_.set_verify_context(ctx);
  auto rs = db_.Execute("SELECT id FROM acc WHERE ttid IN (1, 2)");
  db_.set_verify_context(verify::VerifyContext());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().rows.size(), 8u);
}

// The negative twin: with the D-filter stripped, the scan's pending ttid is
// projected away at the scan itself (nothing above reads it), so no
// ancestor could ever restrict it — reported there, with the scan subtree.
TEST_F(VerifyTest, StrippedScanWithTtidProjectedAwayCaught) {
  verify::VerifyContext ctx = TenantCtx();
  ASSERT_OK_AND_ASSIGN(sql::Stmt stmt,
                       sql::ParseStatement(
                           "SELECT id FROM acc WHERE ttid IN (1, 2)"));
  Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, planner.PlanSelect(*stmt.select));
  EXPECT_EQ(verify::StripTenantPredicates(plan.get(), "ttid"), 1);
  const Plan* scan = FirstScan(*plan);
  ASSERT_NE(scan, nullptr);
  ASSERT_TRUE(scan->projected);
  EXPECT_EQ(std::find(scan->scan_columns.begin(), scan->scan_columns.end(), 0),
            scan->scan_columns.end());
  verify::VerifyResult r = verify::PlanVerifier(&ctx).Verify(*plan);
  ASSERT_EQ(r.violations.size(), 1u) << r.Message();
  EXPECT_EQ(r.violations[0].code,
            verify::ViolationCode::kTenantPredicateMissing);
  EXPECT_NE(r.violations[0].subtree.find("Scan acc [columns: 1/3]"),
            std::string::npos)
      << r.violations[0].subtree;
}

// A projected scan whose scan_columns drifted from its output layout (and
// past the table) is refused before it could read out of bounds.
TEST_F(VerifyTest, CorruptScanColumnsRefused) {
  ScopedVerifyEnv env("1");
  bool corrupted = false;
  db_.set_plan_mutation_hook_for_testing([&corrupted](Plan* p) {
    corrupted = verify::CorruptScanColumns(p);
  });
  auto r = db_.Execute("SELECT id FROM acc WHERE balance > 0");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  EXPECT_TRUE(corrupted);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("ARITY_MISMATCH"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("SLOT_OUT_OF_RANGE"), std::string::npos)
      << r.status().ToString();
}

/// Append literal `extra` to every `slot IN (...)` list under `e`: a
/// D-filter widened past D'. Returns the number of lists widened.
int WidenInLists(BoundExpr* e, int64_t extra) {
  if (e == nullptr) return 0;
  if (e->kind == BoundExpr::Kind::kInList &&
      e->args[0]->kind == BoundExpr::Kind::kSlot) {
    e->args.push_back(std::make_unique<BoundExpr>());
    e->args.back()->literal = Value::Int(extra);
    return 1;
  }
  int n = 0;
  for (auto& a : e->args) n += WidenInLists(a.get(), extra);
  return n;
}

int WidenInLists(Plan* p, int64_t extra) {
  if (p == nullptr) return 0;
  return WidenInLists(p->scan_filter.get(), extra) +
         WidenInLists(p->predicate.get(), extra) +
         WidenInLists(p->left.get(), extra) +
         WidenInLists(p->right.get(), extra);
}

// A prepared handle keeps the verify context it was prepared under: the lazy
// recompile after DDL proves the plan against that D' = {1}, not against the
// default context current when it runs (D' = {2}), which would refuse it.
TEST_F(VerifyTest, RecompileVerifiesAgainstPreparedContext) {
  ScopedVerifyEnv env("1");
  verify::VerifyContext own = TenantCtx();
  own.expected_tenants = {1};
  db_.set_verify_context(own);
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan,
                       db_.Prepare("SELECT id FROM acc WHERE ttid IN (1)"));
  verify::VerifyContext other = TenantCtx();
  other.expected_tenants = {2};
  db_.set_verify_context(other);
  ASSERT_OK(db_.Execute("CREATE INDEX acc_balance ON acc (balance)"));
  StatsScope stats(db_.stats());
  auto r = plan.Execute();
  db_.set_verify_context(verify::VerifyContext());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows.size(), 4u);
  EXPECT_GT(stats.Delta().plans_verified, 0u);
}

// The other direction: a recompile whose plan drifted past the prepared D'
// is refused even though the current default context checks no tenants.
TEST_F(VerifyTest, RecompileRefusesWidenedPlanUnderPreparedContext) {
  ScopedVerifyEnv env("1");
  verify::VerifyContext own = TenantCtx();
  own.expected_tenants = {1};
  db_.set_verify_context(own);
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan,
                       db_.Prepare("SELECT id FROM acc WHERE ttid IN (1)"));
  int widened = 0;
  db_.set_plan_mutation_hook_for_testing(
      [&widened](Plan* p) { widened += WidenInLists(p, 3); });
  db_.set_verify_context(verify::VerifyContext());  // check_tenant = false
  ASSERT_OK(db_.Execute("CREATE INDEX acc_balance ON acc (balance)"));
  auto r = plan.Execute();
  db_.set_plan_mutation_hook_for_testing(nullptr);
  EXPECT_GT(widened, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("TENANT_SET_MISMATCH"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(VerifyTest, ExplainVerifyAnnotation) {
  verify::VerifyContext ctx = TenantCtx();
  ASSERT_OK_AND_ASSIGN(sql::Stmt ok_stmt,
                       sql::ParseStatement(
                           "SELECT id FROM acc WHERE ttid IN (1, 2)"));
  ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainSelect(db_.catalog(), db_.udfs(), *ok_stmt.select,
                    db_.planner_options(), &ctx));
  EXPECT_NE(text.find("[verify: ok]"), std::string::npos) << text;

  ASSERT_OK_AND_ASSIGN(sql::Stmt bad_stmt,
                       sql::ParseStatement("SELECT id FROM acc"));
  ASSERT_OK_AND_ASSIGN(
      text, ExplainSelect(db_.catalog(), db_.udfs(), *bad_stmt.select,
                          db_.planner_options(), &ctx));
  EXPECT_NE(text.find("[verify: FAILED TENANT_PREDICATE_MISSING]"),
            std::string::npos)
      << text;
}

// Structural checks over hand-built plans: these shapes cannot come out of
// the planner, so the verifier is driven directly.
TEST(VerifyStructuralTest, HandBuiltViolations) {
  verify::PlanVerifier verifier;

  // Projection referencing a slot past its input layout.
  {
    auto scan = std::make_unique<Plan>();
    scan->kind = Plan::Kind::kScan;  // dual scan: no table, zero columns
    Plan project;
    project.kind = Plan::Kind::kProject;
    project.columns = {{"", "x"}};
    auto e = std::make_unique<BoundExpr>();
    e->kind = BoundExpr::Kind::kSlot;
    e->slot = 5;
    project.exprs.push_back(std::move(e));
    project.left = std::move(scan);
    verify::VerifyResult r = verifier.Verify(project);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.violations[0].code, verify::ViolationCode::kSlotOutOfRange);
    EXPECT_NE(r.Summary().find("SLOT_OUT_OF_RANGE"), std::string::npos);
  }

  // Join with unpaired key lists.
  {
    Plan join;
    join.kind = Plan::Kind::kJoin;
    join.left = std::make_unique<Plan>();
    join.right = std::make_unique<Plan>();
    auto k = std::make_unique<BoundExpr>();
    k->kind = BoundExpr::Kind::kSlot;
    join.left_keys.push_back(std::move(k));
    verify::VerifyResult r = verifier.Verify(join);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const auto& v : r.violations) {
      found |= v.code == verify::ViolationCode::kJoinKeyMismatch;
    }
    EXPECT_TRUE(found) << r.Message();
  }

  // Negative LIMIT.
  {
    Plan limit;
    limit.kind = Plan::Kind::kLimit;
    limit.left = std::make_unique<Plan>();
    limit.limit = -7;
    verify::VerifyResult r = verifier.Verify(limit);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const auto& v : r.violations) {
      found |= v.code == verify::ViolationCode::kNegativeLimit;
    }
    EXPECT_TRUE(found) << r.Message();
  }

  // Aggregate output arity disagreeing with keys + aggregates.
  {
    Plan agg;
    agg.kind = Plan::Kind::kAggregate;
    agg.left = std::make_unique<Plan>();
    agg.columns = {{"", "a"}, {"", "b"}, {"", "c"}};
    agg.aggs.emplace_back();  // COUNT(*), one output — three promised
    verify::VerifyResult r = verifier.Verify(agg);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const auto& v : r.violations) {
      found |= v.code == verify::ViolationCode::kArityMismatch;
    }
    EXPECT_TRUE(found) << r.Message();
  }
}

// Violation rendering: the refusal message carries the code and the
// offending subtree in EXPLAIN grammar.
TEST_F(VerifyTest, ViolationCarriesExplainSubtree) {
  verify::VerifyContext ctx = TenantCtx();
  verify::PlanVerifier verifier(&ctx);
  ASSERT_OK_AND_ASSIGN(sql::Stmt stmt,
                       sql::ParseStatement("SELECT id FROM acc"));
  Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, planner.PlanSelect(*stmt.select));
  verify::VerifyResult r = verifier.Verify(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].code,
            verify::ViolationCode::kTenantPredicateMissing);
  EXPECT_NE(r.violations[0].subtree.find("Scan acc"), std::string::npos)
      << r.violations[0].subtree;
  EXPECT_NE(r.Message().find("TENANT_PREDICATE_MISSING"), std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
