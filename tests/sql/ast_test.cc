// The SQL AST's one child enumeration (ast.h tree walkers): which nodes each
// walker hands out, in which order, and that the mutable forms hand out
// replaceable slots. MaxParamIndex, built on all four, covers every child
// position a parameter can hide in.
#include "sql/ast.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/printer.h"
#include "tests/test_util.h"

namespace mtbase {
namespace sql {
namespace {

Stmt Parse(const std::string& text) {
  auto s = ParseStatement(text);
  EXPECT_TRUE(s.ok()) << text << ": " << s.status().ToString();
  return s.ok() ? std::move(s).value() : Stmt{};
}

std::vector<std::string> ChildTexts(const Expr& e) {
  std::vector<std::string> out;
  ForEachExprChild(e, [&out](const Expr& c) { out.push_back(PrintExpr(c)); });
  return out;
}

std::vector<std::string> ClauseTexts(const SelectStmt& sel) {
  std::vector<std::string> out;
  ForEachClauseExpr(sel,
                    [&out](const Expr& e) { out.push_back(PrintExpr(e)); });
  return out;
}

std::vector<std::string> StmtTexts(const Stmt& stmt) {
  struct Collect {
    std::vector<std::string>* out;
    void operator()(const Expr& e) const { out->push_back(PrintExpr(e)); }
    void operator()(const SelectStmt& s) const {
      out->push_back("query: " + PrintSelect(s));
    }
  };
  std::vector<std::string> out;
  ForEachStmtExpr(stmt, Collect{&out});
  return out;
}

using Texts = std::vector<std::string>;

TEST(AstWalkerTest, ExprChildrenAreArgsCaseOperandAndElse) {
  Stmt s = Parse("SELECT CASE a WHEN 1 THEN b WHEN 2 THEN c ELSE d END");
  EXPECT_EQ(ChildTexts(*s.select->items[0].expr),
            (Texts{"1", "b", "2", "c", "a", "d"}));
  s = Parse("SELECT CASE WHEN x > 0 THEN y END");
  EXPECT_EQ(ChildTexts(*s.select->items[0].expr), (Texts{"x > 0", "y"}));
}

TEST(AstWalkerTest, ExprChildrenExcludeTheSubquery) {
  Stmt s = Parse("SELECT a IN (SELECT b FROM t), EXISTS (SELECT 1 FROM u)");
  EXPECT_EQ(ChildTexts(*s.select->items[0].expr), (Texts{"a"}));
  EXPECT_TRUE(ChildTexts(*s.select->items[1].expr).empty());
}

TEST(AstWalkerTest, MutableChildrenAreReplaceableSlots) {
  Stmt s = Parse("SELECT CASE a WHEN 1 THEN b ELSE c END");
  Expr& e = *s.select->items[0].expr;
  int n = 0;
  ForEachExprChild(e, [&n](ExprPtr& c) { c = IntLit(++n); });
  EXPECT_EQ(PrintExpr(e), "CASE 3 WHEN 1 THEN 2 ELSE 4 END");
}

TEST(AstWalkerTest, TableRefsArePreOrderLeftFirstAndStayAtOneLevel) {
  Stmt s = Parse(
      "SELECT 1 FROM a JOIN (SELECT x FROM inner_t) d ON a.x = d.x "
      "LEFT JOIN c ON c.y = a.y, e");
  std::vector<std::string> seen;
  ForEachTableRef(*s.select, [&seen](const TableRef& t) {
    seen.push_back(t.kind == TableRef::Kind::kJoin ? "join" : t.BindingName());
  });
  EXPECT_EQ(seen, (Texts{"join", "join", "a", "d", "c", "e"}));
  // Handed one FROM tree, only that tree.
  seen.clear();
  ForEachTableRef(*s.select->from[0]->left, [&seen](const TableRef& t) {
    if (t.kind != TableRef::Kind::kJoin) seen.push_back(t.BindingName());
  });
  EXPECT_EQ(seen, (Texts{"a", "d"}));
}

TEST(AstWalkerTest, ClauseRootsIncludeOnConditionsLast) {
  Stmt s = Parse(
      "SELECT a, CASE b WHEN 1 THEN 2 ELSE 3 END FROM t JOIN u ON t.x = u.x "
      "LEFT JOIN (SELECT z FROM w WHERE z > 9) v ON v.z = t.x "
      "WHERE p > 0 GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC");
  // ON conditions in ForEachTableRef order: the outer join's first. The
  // derived table's WHERE belongs to its own SELECT.
  EXPECT_EQ(ClauseTexts(*s.select),
            (Texts{"a", "CASE b WHEN 1 THEN 2 ELSE 3 END", "p > 0", "a",
                   "COUNT(*) > 1", "a", "v.z = t.x", "t.x = u.x"}));
}

TEST(AstWalkerTest, StatementRootsCoverEveryDmlClause) {
  EXPECT_EQ(StmtTexts(Parse("UPDATE t SET a = 1, b = (SELECT MAX(c) FROM u) "
                            "WHERE d = 2")),
            (Texts{"1", "(SELECT MAX(c) FROM u)", "d = 2"}));
  EXPECT_EQ(StmtTexts(Parse("INSERT INTO t VALUES (1, 2), (3, $1)")),
            (Texts{"1", "2", "3", "$1"}));
  EXPECT_EQ(StmtTexts(Parse("INSERT INTO t SELECT a FROM u")),
            (Texts{"query: SELECT a FROM u"}));
  EXPECT_EQ(StmtTexts(Parse("DELETE FROM t WHERE a IN (SELECT b FROM u)")),
            (Texts{"a IN (SELECT b FROM u)"}));
  EXPECT_EQ(StmtTexts(Parse("SELECT a FROM t")),
            (Texts{"query: SELECT a FROM t"}));
  EXPECT_TRUE(StmtTexts(Parse("DROP TABLE t")).empty());
}

TEST(AstWalkerTest, MaxParamIndexSeesEveryChildPosition) {
  const char* cases[] = {
      "SELECT CASE $3 WHEN 1 THEN 2 END",
      "SELECT CASE a WHEN 1 THEN 2 ELSE $3 END",
      "SELECT 1 FROM t JOIN u ON t.x = $3",
      "SELECT 1 FROM (SELECT a FROM t WHERE a = $3) d",
      "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = $3)",
      "SELECT a FROM t GROUP BY a HAVING COUNT(*) > $3 ORDER BY a",
      "UPDATE t SET a = $3",
      "UPDATE t SET a = 1 WHERE b = $3",
      "DELETE FROM t WHERE b = (SELECT MAX(c) FROM u WHERE c < $3)",
      "INSERT INTO t VALUES (1), ($3)",
      "INSERT INTO t SELECT a FROM u WHERE a = $3",
  };
  for (const char* text : cases) {
    EXPECT_EQ(MaxParamIndex(Parse(text)), 3) << text;
  }
}

}  // namespace
}  // namespace sql
}  // namespace mtbase
