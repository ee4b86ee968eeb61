#include "engine/explain.h"

#include <gtest/gtest.h>

#include "engine/database.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE a (x INTEGER NOT NULL, y INTEGER NOT NULL);
      CREATE TABLE b (x INTEGER NOT NULL, z INTEGER NOT NULL);
    )"));
  }

  std::string Explain(const std::string& query) {
    auto sel = sql::ParseSelect(query);
    EXPECT_TRUE(sel.ok());
    auto r = ExplainSelect(db_.catalog(), db_.udfs(), *sel.value());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : "";
  }

  Database db_;
};

TEST_F(ExplainTest, ScanWithFilter) {
  std::string plan = Explain("SELECT x FROM a WHERE y > 1");
  EXPECT_PLAN_SHAPE(plan, {"*Project*", "*Scan a (filtered)*"});
}

TEST_F(ExplainTest, HashJoinShowsKeys) {
  std::string plan =
      Explain("SELECT a.y FROM a, b WHERE a.x = b.x AND a.y < b.z");
  EXPECT_NE(plan.find("HashJoin INNER (1 keys, residual)"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, SemiJoinFromExists) {
  std::string plan = Explain(
      "SELECT y FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x)");
  EXPECT_NE(plan.find("HashJoin SEMI"), std::string::npos) << plan;
}

TEST_F(ExplainTest, AggregateAndSort) {
  std::string plan = Explain(
      "SELECT y, COUNT(*) AS c, SUM(x) FROM a GROUP BY y ORDER BY c DESC");
  // Shape-asserted top-down: the sort consumes the aggregate, which scans a.
  EXPECT_PLAN_SHAPE(plan, {"*Sort (keys: 1 DESC)*",
                           "*Aggregate (groups: 1, aggs: COUNT(*) SUM)*",
                           "*Scan a*"});
}

TEST_F(ExplainTest, SortLimitFusesIntoTopN) {
  std::string plan = Explain(
      "SELECT y, COUNT(*) AS c, SUM(x) FROM a GROUP BY y ORDER BY c DESC "
      "LIMIT 3");
  EXPECT_NE(plan.find("TopN (keys: 1 DESC) [top-n: 3]"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("Limit"), std::string::npos) << plan;
  // OFFSET rides along in the fused operator.
  plan = Explain("SELECT y FROM a ORDER BY y LIMIT 3 OFFSET 2");
  EXPECT_NE(plan.find("TopN (keys: 0) [top-n: 3, offset 2]"),
            std::string::npos)
      << plan;
}

TEST_F(ExplainTest, TopNPushdownOffKeepsSortPlusLimit) {
  auto sel = sql::ParseSelect("SELECT y FROM a ORDER BY y LIMIT 3 OFFSET 2");
  ASSERT_TRUE(sel.ok());
  PlannerOptions opts;
  opts.topn_pushdown = false;
  ASSERT_OK_AND_ASSIGN(
      std::string plan,
      ExplainSelect(db_.catalog(), db_.udfs(), *sel.value(), opts));
  EXPECT_NE(plan.find("Limit 3 OFFSET 2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Sort (keys: 0)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("TopN"), std::string::npos) << plan;
}

TEST_F(ExplainTest, LimitWithoutOrderByStaysLimit) {
  std::string plan = Explain("SELECT y FROM a LIMIT 5");
  EXPECT_NE(plan.find("Limit 5"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("TopN"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ParallelSortAnnotationGatedOnThreadsAndSize) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db_.Execute("INSERT INTO a VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i * 2) + ")")
                  .status());
  }
  auto sel = sql::ParseSelect("SELECT y FROM a ORDER BY y DESC");
  ASSERT_TRUE(sel.ok());
  PlannerOptions opts;
  opts.max_threads = 4;
  opts.min_parallel_rows = 64;
  ASSERT_OK_AND_ASSIGN(
      std::string plan,
      ExplainSelect(db_.catalog(), db_.udfs(), *sel.value(), opts));
  EXPECT_NE(plan.find("Sort (keys: 0 DESC) [parallel sort: 4 threads]"),
            std::string::npos)
      << plan;
  // The fused top-N carries the same annotation when eligible.
  auto topn = sql::ParseSelect("SELECT y FROM a ORDER BY y DESC LIMIT 5");
  ASSERT_TRUE(topn.ok());
  ASSERT_OK_AND_ASSIGN(plan, ExplainSelect(db_.catalog(), db_.udfs(),
                                           *topn.value(), opts));
  EXPECT_NE(
      plan.find("TopN (keys: 0 DESC) [top-n: 5] [parallel sort: 4 threads]"),
      std::string::npos)
      << plan;
  // Serial budget / tiny input: no sort annotation.
  opts.max_threads = 1;
  ASSERT_OK_AND_ASSIGN(plan, ExplainSelect(db_.catalog(), db_.udfs(),
                                           *sel.value(), opts));
  EXPECT_EQ(plan.find("[parallel sort:"), std::string::npos) << plan;
  opts.max_threads = 4;
  opts.min_parallel_rows = 4096;
  ASSERT_OK_AND_ASSIGN(plan, ExplainSelect(db_.catalog(), db_.udfs(),
                                           *sel.value(), opts));
  EXPECT_EQ(plan.find("[parallel sort:"), std::string::npos) << plan;
}

TEST_F(ExplainTest, UdfMarker) {
  ASSERT_OK(db_.Execute(
      "CREATE FUNCTION twice (INTEGER) RETURNS INTEGER AS 'SELECT $1 + $1' "
      "LANGUAGE SQL IMMUTABLE").status());
  std::string plan = Explain("SELECT twice(x) FROM a WHERE twice(y) > 2");
  EXPECT_NE(
      plan.find("Scan a (filtered) [columns: 1/2] [udf: immutable, cached]"),
      std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Project (1 columns) [udf: immutable, cached]"),
            std::string::npos)
      << plan;
}

TEST_F(ExplainTest, UdfAnnotationShowsVolatility) {
  ASSERT_OK(db_.Execute(
      "CREATE FUNCTION twice (INTEGER) RETURNS INTEGER AS 'SELECT $1 + $1' "
      "LANGUAGE SQL IMMUTABLE").status());
  ASSERT_OK(db_.Execute(
      "CREATE FUNCTION rnd (INTEGER) RETURNS INTEGER AS 'SELECT $1' "
      "LANGUAGE SQL").status());
  std::string plan = Explain("SELECT twice(x) FROM a");
  EXPECT_NE(plan.find("Project (1 columns) [udf: immutable, cached]"),
            std::string::npos)
      << plan;
  plan = Explain("SELECT rnd(x) FROM a");
  EXPECT_NE(plan.find("Project (1 columns) [udf: volatile]"),
            std::string::npos)
      << plan;
  // A mix renders the weakest class: one volatile call keeps the operator
  // serial.
  plan = Explain("SELECT twice(rnd(x)) FROM a");
  EXPECT_NE(plan.find("[udf: volatile]"), std::string::npos) << plan;
  // STABLE is its own class: statement-cached, not volatile.
  ASSERT_OK(db_.Execute(
      "CREATE FUNCTION stbl (INTEGER) RETURNS INTEGER AS 'SELECT $1' "
      "LANGUAGE SQL STABLE").status());
  plan = Explain("SELECT stbl(x) FROM a");
  EXPECT_NE(plan.find("Project (1 columns) [udf: stable, statement-cached]"),
            std::string::npos)
      << plan;
  plan = Explain("SELECT twice(stbl(x)) FROM a");
  EXPECT_NE(plan.find("[udf: stable, statement-cached]"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, ImmutableUdfOperatorsAnnotateParallel) {
  ASSERT_OK(db_.Execute(
      "CREATE FUNCTION twice (INTEGER) RETURNS INTEGER AS 'SELECT $1 + $1' "
      "LANGUAGE SQL IMMUTABLE").status());
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db_.Execute("INSERT INTO a VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i * 2) + ")")
                  .status());
  }
  auto sel = sql::ParseSelect("SELECT twice(x) FROM a");
  ASSERT_TRUE(sel.ok());
  PlannerOptions opts;
  opts.max_threads = 4;
  opts.min_parallel_rows = 64;
  ASSERT_OK_AND_ASSIGN(std::string plan,
                       ExplainSelect(db_.catalog(), db_.udfs(), *sel.value(),
                                     opts));
  // The conversion-shaped projection is parallel-safe now that its only UDF
  // is immutable: both annotations render, in grammar order.
  EXPECT_NE(plan.find("[udf: immutable, cached] [parallel: 4 threads]"),
            std::string::npos)
      << plan;
}

TEST_F(ExplainTest, NestedLoopMarkedExplicitly) {
  std::string plan = Explain("SELECT a.y FROM a, b WHERE a.y < b.z");
  EXPECT_NE(plan.find("[nested-loop]"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ParallelAnnotationGatedOnThreadsAndSize) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db_.Execute("INSERT INTO a VALUES (" + std::to_string(i) + ", " +
                          std::to_string(i * 2) + ")")
                  .status());
  }
  auto sel = sql::ParseSelect("SELECT x FROM a WHERE y > 1");
  ASSERT_TRUE(sel.ok());
  PlannerOptions opts;
  opts.max_threads = 4;
  opts.min_parallel_rows = 64;
  ASSERT_OK_AND_ASSIGN(std::string plan,
                       ExplainSelect(db_.catalog(), db_.udfs(), *sel.value(),
                                     opts));
  EXPECT_NE(plan.find("Scan a (filtered) [columns: 1/2] [parallel: 4 threads]"),
            std::string::npos)
      << plan;
  // Serial budget: no annotation anywhere.
  opts.max_threads = 1;
  ASSERT_OK_AND_ASSIGN(plan, ExplainSelect(db_.catalog(), db_.udfs(),
                                           *sel.value(), opts));
  EXPECT_EQ(plan.find("[parallel:"), std::string::npos) << plan;
  // Tiny input (below the gate): no annotation either.
  opts.max_threads = 4;
  opts.min_parallel_rows = 4096;
  ASSERT_OK_AND_ASSIGN(plan, ExplainSelect(db_.catalog(), db_.udfs(),
                                           *sel.value(), opts));
  EXPECT_EQ(plan.find("[parallel:"), std::string::npos) << plan;
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
