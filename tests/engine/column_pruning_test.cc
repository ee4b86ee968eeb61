// Column pruning (planner.cc PruneColumns): every scan, join and projection
// carries only the columns its consumers read. Each case pins the exact
// result rows (so a mis-remapped slot or a wrong NULL-padding width shows as
// a wrong value, not a crash) and the pruned layout through EXPLAIN's
// `[columns: k/n]` annotation or the scan's scan_columns. Every statement
// runs under plan-verification enforcement, so the verifier's projected-scan
// proof holds on all of these shapes too.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/explain.h"
#include "engine/udf.h"
#include "engine/verify/verifier.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

/// Render a result set as "v1,v2;v1,v2;..." (NULL as "NULL") for exact
/// comparison against hand-computed expectations.
std::string Flat(const ResultSet& rs) {
  std::string out;
  for (const Row& r : rs.rows) {
    if (!out.empty()) out += ";";
    for (size_t i = 0; i < r.size(); ++i) {
      if (i > 0) out += ",";
      out += r[i].is_null() ? "NULL" : r[i].ToString();
    }
  }
  return out;
}

/// The first table scan reached through left children.
const Plan* FirstScan(const Plan& p) {
  const Plan* node = &p;
  while (node != nullptr && node->kind != Plan::Kind::kScan &&
         node->kind != Plan::Kind::kIndexScan) {
    node = node->left.get();
  }
  return node;
}

// t (id, a, b, c)        u (id, tid, w)
//   1  10    x  100        1  1   5
//   2  20    y  NULL       2  1   6
//   3  NULL  z  300        3  3   7
//   4  40    x  400        4  2   NULL
class ColumnPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE t (id INTEGER, a INTEGER, b VARCHAR(8), c INTEGER);"
        "CREATE TABLE u (id INTEGER, tid INTEGER, w INTEGER);"
        "INSERT INTO t VALUES (1, 10, 'x', 100), (2, 20, 'y', NULL), "
        "(3, NULL, 'z', 300), (4, 40, 'x', 400);"
        "INSERT INTO u VALUES (1, 1, 5), (2, 1, 6), (3, 3, 7), (4, 2, NULL)"));
  }

  std::string Run(const std::string& q) {
    auto rs = db_.Execute(q);
    EXPECT_TRUE(rs.ok()) << q << "\n" << rs.status().ToString();
    return rs.ok() ? Flat(rs.value()) : "<error>";
  }

  std::string Explain(const std::string& q) {
    auto sel = sql::ParseSelect(q);
    EXPECT_TRUE(sel.ok());
    auto r = ExplainSelect(db_.catalog(), db_.udfs(), *sel.value(),
                           db_.planner_options());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : "";
  }

  PlanPtr PlanOf(const std::string& q) {
    auto sel = sql::ParseSelect(q);
    EXPECT_TRUE(sel.ok());
    Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
    auto plan = planner.PlanSelect(*sel.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(plan).value() : nullptr;
  }

  ScopedVerifyEnv verify_env_{"1"};
  Database db_;
};

TEST_F(ColumnPruningTest, CountStarScansZeroWidthRows) {
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t"), "4");
  // The scan filter still sees the full row: c is read there, not emitted.
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t WHERE c > 150"), "2");
  EXPECT_PLAN_SHAPE(Explain("SELECT COUNT(*) FROM t WHERE c > 150"),
                    {"*Aggregate*", "*Scan t (filtered) [columns: 0/4]"});
  PlanPtr plan = PlanOf("SELECT COUNT(*) FROM t");
  ASSERT_NE(plan, nullptr);
  const Plan* scan = FirstScan(*plan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->projected);
  EXPECT_TRUE(scan->scan_columns.empty());
  EXPECT_TRUE(scan->columns.empty());
}

TEST_F(ColumnPruningTest, UnprunedScanCarriesNoAnnotation) {
  EXPECT_EQ(Run("SELECT * FROM u WHERE tid = 3"), "3,3,7");
  const std::string text = Explain("SELECT * FROM u WHERE tid = 3");
  EXPECT_EQ(text.find("[columns:"), std::string::npos) << text;
  PlanPtr plan = PlanOf("SELECT * FROM u WHERE tid = 3");
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(FirstScan(*plan)->projected);
}

TEST_F(ColumnPruningTest, LeftJoinPadsTheNarrowedRightSide) {
  // Right side narrowed to (tid, w): unmatched rows pad two NULLs, and w
  // lands in the second padded slot.
  const std::string q =
      "SELECT t.id, u.w FROM t LEFT JOIN u ON t.id = u.tid "
      "ORDER BY t.id, u.w";
  EXPECT_EQ(Run(q), "1,5;1,6;2,NULL;3,7;4,NULL");
  EXPECT_PLAN_SHAPE(Explain(q), {"*HashJoin LEFT (1 keys)*",
                                 "*Scan t [columns: 1/4]",
                                 "*Scan u [columns: 2/3]"});
}

TEST_F(ColumnPruningTest, LeftJoinWhoseRightSideIsNeverRead) {
  // The ON clause reads only the left side, so the right scan emits
  // zero-width rows and unmatched left rows pad zero columns.
  const std::string q =
      "SELECT t.id, COUNT(*) FROM t LEFT JOIN u ON t.a > 15 "
      "GROUP BY t.id ORDER BY t.id";
  EXPECT_EQ(Run(q), "1,1;2,4;3,1;4,4");
  EXPECT_PLAN_SHAPE(Explain(q), {"*HashJoin LEFT (0 keys, residual) "
                                 "[nested-loop]*",
                                 "*Scan t [columns: 2/4]",
                                 "*Scan u [columns: 0/3]"});
}

TEST_F(ColumnPruningTest, SemiAndAntiJoinResidualOverBothSides) {
  // The residual u.w * 20 > t.c reads one column from each side on top of
  // the correlation key.
  const std::string exists =
      "SELECT t.id FROM t WHERE EXISTS (SELECT * FROM u "
      "WHERE u.tid = t.id AND u.w * 20 > t.c) ORDER BY t.id";
  EXPECT_EQ(Run(exists), "1");
  EXPECT_PLAN_SHAPE(Explain(exists),
                    {"*HashJoin SEMI (1 keys, residual) "
                     "[decorrelated EXISTS]*",
                     "*Scan t [columns: 2/4]", "*Project (2 columns)*",
                     "*Scan u [columns: 2/3]"});
  const std::string not_exists =
      "SELECT t.id FROM t WHERE NOT EXISTS (SELECT * FROM u "
      "WHERE u.tid = t.id AND u.w * 20 > t.c) ORDER BY t.id";
  EXPECT_EQ(Run(not_exists), "2;3;4");
  EXPECT_PLAN_SHAPE(Explain(not_exists),
                    {"*HashJoin ANTI (1 keys, residual) "
                     "[decorrelated NOT EXISTS]*",
                     "*Scan t [columns: 2/4]", "*Scan u [columns: 2/3]"});
}

TEST_F(ColumnPruningTest, NullAwareNotIn) {
  // t2's group {NULL} and t3's NULL needle both yield NULL (row dropped);
  // t4 has an empty group (NOT IN () is TRUE).
  const std::string q =
      "SELECT t.id FROM t WHERE t.a NOT IN "
      "(SELECT u.w FROM u WHERE u.tid = t.id) ORDER BY t.id";
  EXPECT_EQ(Run(q), "1;4");
  EXPECT_PLAN_SHAPE(Explain(q),
                    {"*HashJoin ANTI (2 keys) [decorrelated NOT IN, "
                     "null-aware]*",
                     "*Scan t [columns: 2/4]", "*Scan u [columns: 2/3]"});
}

TEST_F(ColumnPruningTest, DistinctKeepsItsWholeInput) {
  // The outer query reads only b, but DISTINCT's row identity is (b, a):
  // pruning a below it would collapse the two 'x' rows into one.
  const std::string q =
      "SELECT d.b FROM (SELECT DISTINCT b, a FROM t) d ORDER BY d.b";
  EXPECT_EQ(Run(q), "x;x;y;z");
  EXPECT_PLAN_SHAPE(Explain(q), {"*Distinct*", "*Project (2 columns)*",
                                 "*Scan t [columns: 2/4]"});
  // DISTINCT above a derived table: the derived projection narrows to b.
  const std::string outer =
      "SELECT DISTINCT d.b FROM (SELECT id, b, c FROM t) d ORDER BY d.b";
  EXPECT_EQ(Run(outer), "x;y;z");
  EXPECT_PLAN_SHAPE(Explain(outer), {"*Distinct*", "*Project (1 columns)*",
                                     "*Project (1 columns)*",
                                     "*Scan t [columns: 1/4]"});
}

TEST_F(ColumnPruningTest, OrderByHiddenColumn) {
  // c rides along as a hidden sort column (NULLs first descending) and is
  // dropped after the sort.
  EXPECT_EQ(Run("SELECT b FROM t ORDER BY c DESC"), "y;x;z;x");
  EXPECT_EQ(Run("SELECT b FROM t ORDER BY c DESC LIMIT 2"), "y;x");
  EXPECT_PLAN_SHAPE(Explain("SELECT b FROM t ORDER BY c DESC"),
                    {"Project (1 columns)*", "*Sort (keys: 1 DESC)*",
                     "*Project (2 columns)*", "*Scan t [columns: 2/4]"});
}

TEST_F(ColumnPruningTest, CorrelatedFallbacksKeepTheirInputWhole) {
  // No equality key: the EXISTS stays a per-row SubPlan whose outer
  // reference indexes the filter's input row, so that input stays whole.
  const std::string exists =
      "SELECT t.id FROM t WHERE EXISTS (SELECT * FROM u WHERE u.w * 4 > t.a) "
      "ORDER BY t.id";
  EXPECT_EQ(Run(exists), "1;2");
  std::string text = Explain(exists);
  // The EXISTS sub-plan itself only reports whether a row exists: its
  // inner scan narrows to the column its filter reads.
  EXPECT_PLAN_SHAPE(text, {"*Filter*", "*SubPlan (EXISTS, per-row)*",
                           "*Scan u [columns: 1/3]", "*Scan t"});
  PlanPtr plan = PlanOf(exists);
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(FirstScan(*plan)->projected) << text;

  // A correlated COUNT scalar stays per-row in the projection: the
  // projection's input stays whole, while the sub-plan's own scan narrows.
  const std::string scalar =
      "SELECT t.id, (SELECT COUNT(*) FROM u WHERE u.tid = t.id) FROM t "
      "ORDER BY t.id";
  EXPECT_EQ(Run(scalar), "1,2;2,1;3,1;4,0");
  text = Explain(scalar);
  EXPECT_PLAN_SHAPE(text, {"*SubPlan (scalar, per-row)*",
                           "*Scan u [columns: 1/3]", "*Scan t"});
  plan = PlanOf(scalar);
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(FirstScan(*plan)->projected) << text;
}

TEST_F(ColumnPruningTest, InitPlansArePrunedInside) {
  StatsScope stats(db_.stats());
  // AVG(c) over {100, 300, 400} is 266.67.
  const std::string filter =
      "SELECT id FROM t WHERE c > (SELECT AVG(c) FROM t) ORDER BY id";
  EXPECT_EQ(Run(filter), "3;4");
  EXPECT_EQ(stats.Delta().initplan_execs, 1u);
  EXPECT_PLAN_SHAPE(Explain(filter), {"*Scan t (filtered) [columns: 1/4]",
                                      "*InitPlan (scalar, cached)*",
                                      "*Scan t [columns: 1/4]"});
  // An uncorrelated scalar in the select list reads no outer row, so the
  // projection's input still narrows.
  const std::string project =
      "SELECT id, (SELECT MAX(w) FROM u) FROM t ORDER BY id";
  EXPECT_EQ(Run(project), "1,7;2,7;3,7;4,7");
  EXPECT_PLAN_SHAPE(Explain(project), {"*InitPlan (scalar, cached)*",
                                       "*Scan u [columns: 1/3]",
                                       "*Scan t [columns: 1/4]"});
}

TEST_F(ColumnPruningTest, UdfBodyPlanIsPruned) {
  ASSERT_OK(db_.Execute("CREATE FUNCTION uw (INTEGER) RETURNS INTEGER AS "
                        "'SELECT w FROM u WHERE id = $1' LANGUAGE SQL "
                        "IMMUTABLE")
                .status());
  EXPECT_EQ(Run("SELECT id, uw(id) FROM t ORDER BY id"), "1,5;2,6;3,7;4,NULL");
  const Udf* udf = db_.udfs()->Find("uw");
  ASSERT_NE(udf, nullptr);
  ASSERT_NE(udf->body_plan, nullptr);
  const Plan* scan = FirstScan(*udf->body_plan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->projected);
  EXPECT_EQ(scan->scan_columns, std::vector<int>{2});
}

TEST_F(ColumnPruningTest, InsertSelect) {
  ASSERT_OK(db_.Execute("CREATE TABLE dst (x INTEGER, y VARCHAR(8))").status());
  ASSERT_OK(db_.Execute("INSERT INTO dst SELECT c, b FROM t WHERE a > 15")
                .status());
  EXPECT_EQ(Run("SELECT x, y FROM dst ORDER BY y"), "400,x;NULL,y");
  EXPECT_PLAN_SHAPE(Explain("SELECT c, b FROM t WHERE a > 15"),
                    {"*Scan t (filtered) [columns: 2/4]"});
}

TEST_F(ColumnPruningTest, DFilteredPartitionPrunedAndIndexScans) {
  ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE p (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
      "v INTEGER NOT NULL, note VARCHAR(8)) PARTITION BY HASH (ttid) "
      "PARTITIONS 4;"
      "CREATE TABLE q (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
      "v INTEGER NOT NULL, note VARCHAR(8));"
      "CREATE INDEX q_ttid ON q (ttid)"));
  for (int64_t ttid = 1; ttid <= 4; ++ttid) {
    for (int64_t i = 0; i < 3; ++i) {
      const std::string row = "(" + std::to_string(ttid) + ", " +
                              std::to_string(ttid * 10 + i) + ", " +
                              std::to_string(i * 7) + ", 'n')";
      ASSERT_OK(db_.Execute("INSERT INTO p VALUES " + row).status());
      ASSERT_OK(db_.Execute("INSERT INTO q VALUES " + row).status());
    }
  }
  verify::VerifyContext ctx;
  ctx.check_tenant = true;
  ctx.tenant_tables = {"p", "q"};
  ctx.expected_tenants = {2};
  db_.set_verify_context(ctx);
  StatsScope stats(db_.stats());
  EXPECT_EQ(Run("SELECT id, v FROM p WHERE ttid = 2 ORDER BY id"),
            "20,0;21,7;22,14");
  EXPECT_EQ(stats.Delta().partitions_pruned, 3u);
  EXPECT_EQ(Run("SELECT id, v FROM q WHERE ttid = 2 ORDER BY id"),
            "20,0;21,7;22,14");
  EXPECT_EQ(stats.Delta().index_scans, 1u);
  EXPECT_EQ(stats.Delta().verify_violations, 0u);
  db_.set_verify_context(verify::VerifyContext());
  EXPECT_PLAN_SHAPE(Explain("SELECT id, v FROM p WHERE ttid = 2"),
                    {"*Scan p (filtered) [partitions: 3/4 pruned] "
                     "[columns: 2/4]*"});
  EXPECT_PLAN_SHAPE(Explain("SELECT id, v FROM q WHERE ttid = 2"),
                    {"*IndexScan q (filtered) [index scan: q_ttid, ttid = 2] "
                     "[columns: 2/4]*"});
}

TEST_F(ColumnPruningTest, AnalyzeShowsRowsScannedNextToRowsReturned) {
  ASSERT_OK_AND_ASSIGN(auto sel,
                       sql::ParseSelect("SELECT id FROM t WHERE c > 150"));
  ASSERT_OK_AND_ASSIGN(std::string text,
                       db_.ExplainAnalyzeSelect(*sel, StatementContext()));
  EXPECT_PLAN_SHAPE(text, {"*Scan t (filtered) [columns: 1/4] "
                           "[actual: rows=2 scanned=4 time=*"});
  // Only table scans carry the figure.
  EXPECT_PLAN_SHAPE(text, {"Project (1 columns) [actual: rows=2 time=*"});
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
