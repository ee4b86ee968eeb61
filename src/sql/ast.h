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

// -- parameter placeholders ---------------------------------------------------

struct Stmt;

/// Highest $n / ? parameter index referenced (0 if none). Prepared
/// statements use this as the number of bind values Execute() requires.
int MaxParamIndex(const Expr& e);
int MaxParamIndex(const SelectStmt& s);
int MaxParamIndex(const Stmt& s);

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

}  // namespace sql
}  // namespace mtbase

#endif  // MTBASE_SQL_AST_H_
