#include "sql/ast.h"

namespace mtbase {
namespace sql {

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->qualifier = qualifier;
  e->column = column;
  e->op = op;
  e->fname = fname;
  e->distinct = distinct;
  e->negated = negated;
  e->extract_field = extract_field;
  e->interval_unit = interval_unit;
  e->param_index = param_index;
  for (const auto& a : args) e->args.push_back(a->Clone());
  if (case_operand) e->case_operand = case_operand->Clone();
  if (else_expr) e->else_expr = else_expr->Clone();
  if (subquery) e->subquery = subquery->Clone();
  return e;
}

ExprPtr Lit(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr IntLit(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr StrLit(std::string s) { return Lit(Value::Str(std::move(s))); }

ExprPtr Col(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr Col(std::string column) { return Col("", std::move(column)); }

ExprPtr Unary(std::string op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->op = std::move(op);
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr Binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = std::move(op);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->fname = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr ScalarSubquery(std::unique_ptr<SelectStmt> q) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kScalarSubquery;
  e->subquery = std::move(q);
  return e;
}

ExprPtr AndAll(std::vector<ExprPtr> exprs) {
  ExprPtr out;
  for (auto& e : exprs) {
    if (!e) continue;
    out = out ? Binary("AND", std::move(out), std::move(e)) : std::move(e);
  }
  return out;
}

std::unique_ptr<TableRef> TableRef::Clone() const {
  auto t = std::make_unique<TableRef>();
  t->kind = kind;
  t->name = name;
  t->alias = alias;
  if (subquery) t->subquery = subquery->Clone();
  if (left) t->left = left->Clone();
  if (right) t->right = right->Clone();
  t->join_type = join_type;
  if (join_cond) t->join_cond = join_cond->Clone();
  return t;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto s = std::make_unique<SelectStmt>();
  s->distinct = distinct;
  for (const auto& item : items) {
    SelectItem it;
    it.expr = item.expr->Clone();
    it.alias = item.alias;
    s->items.push_back(std::move(it));
  }
  for (const auto& t : from) s->from.push_back(t->Clone());
  if (where) s->where = where->Clone();
  for (const auto& g : group_by) s->group_by.push_back(g->Clone());
  if (having) s->having = having->Clone();
  for (const auto& o : order_by) {
    OrderItem oi;
    oi.expr = o.expr->Clone();
    oi.desc = o.desc;
    s->order_by.push_back(std::move(oi));
  }
  s->limit = limit;
  s->offset = offset;
  return s;
}

namespace {

void MaxParam(const Expr& e, int* out);

void MaxParam(const SelectStmt& s, int* out) {
  ForEachTableRef(s, [out](const TableRef& t) {
    if (t.subquery) MaxParam(*t.subquery, out);
  });
  ForEachClauseExpr(s, [out](const Expr& e) { MaxParam(e, out); });
}

void MaxParam(const Expr& e, int* out) {
  if (e.kind == ExprKind::kParam && e.param_index > *out) {
    *out = e.param_index;
  }
  ForEachExprChild(e, [out](const Expr& c) { MaxParam(c, out); });
  if (e.subquery) MaxParam(*e.subquery, out);
}

}  // namespace

int MaxParamIndex(const Stmt& s) {
  int out = 0;
  ForEachStmtExpr(s, [&out](const auto& node) { MaxParam(node, &out); });
  return out;
}

std::string TypeDecl::ToString() const {
  switch (id) {
    case TypeId::kInt:
      return "INTEGER";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kDecimal:
      return "DECIMAL(" + std::to_string(precision) + "," +
             std::to_string(scale) + ")";
    case TypeId::kString:
      return length > 0 ? "VARCHAR(" + std::to_string(length) + ")" : "TEXT";
    case TypeId::kDate:
      return "DATE";
    case TypeId::kBool:
      return "BOOLEAN";
    default:
      return "NULL";
  }
}

}  // namespace sql
}  // namespace mtbase
