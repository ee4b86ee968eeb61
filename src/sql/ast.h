// Abstract syntax tree for the SQL/MTSQL dialect understood by MTBase.
//
// The same AST is used by the parser, the SQL printer, the execution engine's
// binder and the MTSQL-to-SQL rewriter. Expressions are a single tagged
// struct (rather than a class hierarchy) because the rewriter is essentially
// structural pattern matching, which this representation keeps compact.
#ifndef MTBASE_SQL_AST_H_
#define MTBASE_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/value.h"

namespace mtbase {
namespace sql {

struct SelectStmt;

enum class ExprKind : uint8_t {
  kLiteral,
  kColumnRef,       // [qualifier.]column
  kStar,            // * or qualifier.*
  kParam,           // $1 (inside CREATE FUNCTION bodies)
  kUnary,           // op: NOT, -
  kBinary,          // op: AND OR = <> < <= > >= + - * / ||
  kFunction,        // name(args...), including aggregates and UDFs
  kCase,            // searched or simple CASE
  kInList,          // args[0] IN (args[1..])
  kInSubquery,      // (args...) IN (subquery)
  kExists,          // EXISTS (subquery)
  kScalarSubquery,  // (subquery)
  kBetween,         // args[0] BETWEEN args[1] AND args[2]
  kIsNull,          // args[0] IS [NOT] NULL
  kExtract,         // EXTRACT(field FROM args[0])
  kInterval,        // INTERVAL '<n>' <unit>
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;                   // kLiteral
  std::string qualifier;           // kColumnRef / kStar table qualifier
  std::string column;              // kColumnRef
  std::string op;                  // kUnary / kBinary (upper-case)
  std::string fname;               // kFunction
  bool distinct = false;           // aggregate DISTINCT
  bool negated = false;            // NOT IN / NOT EXISTS / NOT BETWEEN / IS NOT NULL / NOT LIKE
  std::string extract_field;       // kExtract: YEAR, MONTH, DAY
  std::string interval_unit;       // kInterval: DAY, MONTH, YEAR
  int param_index = 0;             // kParam
  std::vector<ExprPtr> args;
  // kCase: optional operand (simple CASE); args holds WHEN/THEN pairs
  // [w1, t1, w2, t2, ...]; else_expr optional.
  ExprPtr case_operand;
  ExprPtr else_expr;
  std::unique_ptr<SelectStmt> subquery;

  ExprPtr Clone() const;
};

// -- expression construction helpers -----------------------------------------

ExprPtr Lit(Value v);
ExprPtr IntLit(int64_t v);
ExprPtr StrLit(std::string s);
ExprPtr Col(std::string qualifier, std::string column);
ExprPtr Col(std::string column);
ExprPtr Unary(std::string op, ExprPtr operand);
ExprPtr Binary(std::string op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Func(std::string name, std::vector<ExprPtr> args);
ExprPtr ScalarSubquery(std::unique_ptr<SelectStmt> q);
/// Conjunction of all exprs (nullptr if empty, the expr itself if single).
ExprPtr AndAll(std::vector<ExprPtr> exprs);

// -- statements ---------------------------------------------------------------

struct OrderItem {
  ExprPtr expr;
  bool desc = false;
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty if none
};

enum class JoinType : uint8_t { kInner, kLeft };

struct TableRef {
  enum class Kind : uint8_t { kBase, kSubquery, kJoin } kind = Kind::kBase;
  std::string name;   // kBase
  std::string alias;  // optional for kBase/kSubquery
  std::unique_ptr<SelectStmt> subquery;  // kSubquery
  // kJoin
  std::unique_ptr<TableRef> left;
  std::unique_ptr<TableRef> right;
  JoinType join_type = JoinType::kInner;
  ExprPtr join_cond;

  TableRef() = default;
  std::unique_ptr<TableRef> Clone() const;
  /// The name this table is referred to by in expressions (alias or name).
  const std::string& BindingName() const { return alias.empty() ? name : alias; }
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<std::unique_ptr<TableRef>> from;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;   // -1 = no limit
  int64_t offset = 0;   // rows skipped before the limit applies

  std::unique_ptr<SelectStmt> Clone() const;
};

struct TypeDecl {
  TypeId id = TypeId::kInt;
  int precision = 0;  // DECIMAL(p,s)
  int scale = 0;
  int length = 0;  // VARCHAR(n)
  std::string ToString() const;
};

/// MTSQL attribute comparability (paper Table 1).
enum class Comparability : uint8_t {
  kDefault,         // resolved by table generality at DDL execution time
  kComparable,
  kConvertible,
  kTenantSpecific,
};

struct ColumnDef {
  std::string name;
  TypeDecl type;
  bool not_null = false;
  Comparability comparability = Comparability::kDefault;
  std::string to_universal_fn;    // @fnToUniversal (CONVERTIBLE only)
  std::string from_universal_fn;  // @fnFromUniversal
};

struct TableConstraint {
  enum class Kind : uint8_t { kPrimaryKey, kForeignKey, kCheck } kind =
      Kind::kPrimaryKey;
  std::string name;
  std::vector<std::string> columns;      // PK / FK local columns
  std::string ref_table;                 // FK
  std::vector<std::string> ref_columns;  // FK
  ExprPtr check;                         // CHECK
};

/// PARTITION BY clause of CREATE TABLE. Hash partitioning names a bucket
/// count; list partitioning enumerates the integer value groups, with an
/// implicit overflow partition for values not in any group.
struct PartitionSpec {
  enum class Method : uint8_t { kNone, kHash, kList } method = Method::kNone;
  std::string column;
  int64_t count = 0;                          // kHash: PARTITIONS n
  std::vector<std::vector<int64_t>> lists;    // kList: VALUES (..) groups
};

struct CreateTableStmt {
  std::string name;
  bool mt_specific = false;  // SPECIFIC => tenant-specific; default GLOBAL
  std::vector<ColumnDef> columns;
  std::vector<TableConstraint> constraints;
  PartitionSpec partition;
};

struct CreateIndexStmt {
  std::string name;
  std::string table;
  std::vector<std::string> columns;
};

struct CreateViewStmt {
  std::string name;
  std::unique_ptr<SelectStmt> select;
};

/// Volatility class of a user-defined function (PostgreSQL's taxonomy).
/// IMMUTABLE promises the result depends only on the argument values, which
/// licenses result caching and parallel evaluation; STABLE promises
/// stability within one statement (cacheable per statement, not across);
/// VOLATILE (the default) promises nothing.
enum class Volatility : uint8_t {
  kVolatile,
  kStable,
  kImmutable,
};

struct CreateFunctionStmt {
  std::string name;
  std::vector<TypeDecl> arg_types;
  TypeDecl return_type;
  std::string body_sql;  // SQL text with $1..$n parameters
  Volatility volatility = Volatility::kVolatile;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;        // may be empty = all visible
  std::vector<std::vector<ExprPtr>> rows;  // VALUES
  std::unique_ptr<SelectStmt> select;      // INSERT ... SELECT
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct GrantStmt {
  std::vector<std::string> privileges;  // READ INSERT UPDATE DELETE or ALL
  bool on_database = false;
  std::string table;
  bool to_all = false;  // GRANT ... TO ALL (resolved against D)
  int64_t grantee = -1;
  bool revoke = false;  // REVOKE uses the same shape
};

struct SetScopeStmt {
  std::string scope_text;  // raw text inside the quotes; parsed by mt::Scope
};

struct DropStmt {
  enum class What : uint8_t { kTable, kView, kIndex } what = What::kTable;
  std::string name;
};

struct Stmt {
  enum class Kind : uint8_t {
    kSelect,
    kCreateTable,
    kCreateView,
    kCreateFunction,
    kCreateIndex,
    kInsert,
    kUpdate,
    kDelete,
    kGrant,
    kSetScope,
    kDrop,
  } kind = Kind::kSelect;

  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<CreateFunctionStmt> create_function;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<GrantStmt> grant;
  std::unique_ptr<SetScopeStmt> set_scope;
  std::unique_ptr<DropStmt> drop;

  /// SELECT/INSERT/UPDATE/DELETE: the kinds that compile to a plan and run
  /// through the prepared path (engine::PreparedPlan, mt::PreparedQuery).
  bool is_query_or_dml() const {
    return kind == Kind::kSelect || kind == Kind::kInsert ||
           kind == Kind::kUpdate || kind == Kind::kDelete;
  }
};

// -- parameter placeholders ---------------------------------------------------

/// Highest $n / ? parameter index referenced (0 if none). Prepared
/// statements use this as the number of bind values Execute() requires.
int MaxParamIndex(const Stmt& s);

// -- tree walkers -------------------------------------------------------------
//
// The one child enumeration of the AST, shared by every recursive walker
// (rewriter, optimizer passes, auditor, session, binder helpers), so a new
// child field only needs wiring here. Code that gives CASE its own meaning
// (parser, printer, Clone, binder, evaluator, type inference) reads the
// fields itself. A const tree hands out `const Expr&`; a mutable tree hands
// out the owning `ExprPtr&` slot, so a walker can replace the child. None of
// them enters a sub-query (`Expr::subquery`, a derived table's SELECT): the
// walker decides itself whether to descend.

namespace walk_internal {
template <typename Like, typename T>
using ConstLike = std::conditional_t<std::is_const_v<Like>, const T, T>;
inline const Expr& Child(const ExprPtr& e) { return *e; }
inline ExprPtr& Child(ExprPtr& e) { return e; }
}  // namespace walk_internal

/// fn on each direct child of `e`: args, the CASE operand and ELSE.
template <typename E, typename Fn>
void ForEachExprChild(E& e, Fn&& fn) {
  for (auto& a : e.args) fn(walk_internal::Child(a));
  if (e.case_operand) fn(walk_internal::Child(e.case_operand));
  if (e.else_expr) fn(walk_internal::Child(e.else_expr));
}

/// fn(TableRef&) on every node of a SELECT's FROM trees — or of one FROM
/// tree when handed a TableRef — in FROM order, pre-order, left input
/// before right.
template <typename Node, typename Fn>
void ForEachTableRef(Node& n, Fn&& fn) {
  using Ref = walk_internal::ConstLike<Node, TableRef>;
  if constexpr (std::is_same_v<std::remove_const_t<Node>, SelectStmt>) {
    for (auto& t : n.from) ForEachTableRef(static_cast<Ref&>(*t), fn);
  } else {
    fn(n);
    if (n.left) ForEachTableRef(static_cast<Ref&>(*n.left), fn);
    if (n.right) ForEachTableRef(static_cast<Ref&>(*n.right), fn);
  }
}

/// fn on the root of every expression clause of a SELECT: the select items,
/// WHERE, GROUP BY, HAVING, ORDER BY, then the ON conditions of its FROM
/// trees in ForEachTableRef order.
template <typename S, typename Fn>
void ForEachClauseExpr(S& sel, Fn&& fn) {
  using walk_internal::Child;
  for (auto& item : sel.items) fn(Child(item.expr));
  if (sel.where) fn(Child(sel.where));
  for (auto& g : sel.group_by) fn(Child(g));
  if (sel.having) fn(Child(sel.having));
  for (auto& o : sel.order_by) fn(Child(o.expr));
  ForEachTableRef(sel, [&fn](auto& t) {
    if (t.join_cond) fn(Child(t.join_cond));
  });
}

/// fn on every expression root and query body of a SELECT/INSERT/UPDATE/
/// DELETE: the SELECT body, INSERT VALUES rows and source query, UPDATE SET
/// values and WHERE, DELETE WHERE. Query bodies arrive as a SelectStmt, so
/// fn takes both (a generic lambda over overloads). Other kinds visit
/// nothing.
template <typename St, typename Fn>
void ForEachStmtExpr(St& s, Fn&& fn) {
  using walk_internal::Child;
  using walk_internal::ConstLike;
  using Sel = ConstLike<St, SelectStmt>;
  switch (s.kind) {
    case Stmt::Kind::kSelect:
      fn(static_cast<Sel&>(*s.select));
      break;
    case Stmt::Kind::kInsert: {
      auto& ins = static_cast<ConstLike<St, InsertStmt>&>(*s.insert);
      for (auto& row : ins.rows) {
        for (auto& e : row) fn(Child(e));
      }
      if (ins.select) fn(static_cast<Sel&>(*ins.select));
      break;
    }
    case Stmt::Kind::kUpdate: {
      auto& up = static_cast<ConstLike<St, UpdateStmt>&>(*s.update);
      for (auto& assignment : up.assignments) fn(Child(assignment.second));
      if (up.where) fn(Child(up.where));
      break;
    }
    case Stmt::Kind::kDelete: {
      auto& del = static_cast<ConstLike<St, DeleteStmt>&>(*s.del);
      if (del.where) fn(Child(del.where));
      break;
    }
    default:
      break;
  }
}

}  // namespace sql
}  // namespace mtbase

#endif  // MTBASE_SQL_AST_H_
