#include "mt/audit/mutators.h"

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/str_util.h"

namespace mtbase {
namespace mt {
namespace audit {
namespace {

bool IsTtidColRef(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kColumnRef &&
         EqualsIgnoreCase(e.column, kTtidColumn);
}

bool IsDFilter(const sql::Expr& e) {
  if (e.kind != sql::ExprKind::kInList || e.negated || e.args.empty()) {
    return false;
  }
  if (!IsTtidColRef(*e.args[0])) return false;
  for (size_t i = 1; i < e.args.size(); ++i) {
    if (e.args[i]->kind != sql::ExprKind::kLiteral) return false;
  }
  return true;
}

bool IsTtidJoinPred(const sql::Expr& e) {
  if (e.kind != sql::ExprKind::kBinary || e.op != "=") return false;
  const sql::Expr& l = *e.args[0];
  const sql::Expr& r = *e.args[1];
  return IsTtidColRef(l) && IsTtidColRef(r) && !l.qualifier.empty() &&
         !r.qualifier.empty() && !EqualsIgnoreCase(l.qualifier, r.qualifier);
}

void FlattenAndMove(sql::ExprPtr e, std::vector<sql::ExprPtr>* out) {
  if (e->kind == sql::ExprKind::kBinary && e->op == "AND") {
    FlattenAndMove(std::move(e->args[0]), out);
    FlattenAndMove(std::move(e->args[1]), out);
    return;
  }
  out->push_back(std::move(e));
}

/// Drop matching conjuncts from a nullable AND-chained clause.
int FilterConjuncts(sql::ExprPtr* clause,
                    const std::function<bool(const sql::Expr&)>& drop) {
  if (!*clause) return 0;
  std::vector<sql::ExprPtr> conjuncts;
  FlattenAndMove(std::move(*clause), &conjuncts);
  std::vector<sql::ExprPtr> kept;
  int dropped = 0;
  for (auto& c : conjuncts) {
    if (drop(*c)) {
      ++dropped;
    } else {
      kept.push_back(std::move(c));
    }
  }
  *clause = sql::AndAll(std::move(kept));
  return dropped;
}

/// Generic mutating walk. `mutate_expr` runs post-order on every expression
/// slot; `mutate_clause` runs on every nullable AND-chained clause (WHERE,
/// HAVING, join conditions) before the expression walk descends into it.
class MutatingWalk {
 public:
  std::function<int(sql::ExprPtr&)> mutate_expr;
  std::function<int(sql::ExprPtr*)> mutate_clause;

  int Run(sql::Stmt* stmt) {
    count_ = 0;
    if (stmt->kind == sql::Stmt::Kind::kCreateView) {
      Visit(*stmt->create_view->select);
      return count_;
    }
    if (stmt->kind == sql::Stmt::Kind::kUpdate) Clause(&stmt->update->where);
    if (stmt->kind == sql::Stmt::Kind::kDelete) Clause(&stmt->del->where);
    sql::ForEachStmtExpr(*stmt, [this](auto& node) { Visit(node); });
    return count_;
  }

 private:
  void Clause(sql::ExprPtr* clause) {
    if (mutate_clause) count_ += mutate_clause(clause);
  }

  void Visit(sql::ExprPtr& e) {
    sql::ForEachExprChild(*e, [this](sql::ExprPtr& c) { Visit(c); });
    if (e->subquery) Visit(*e->subquery);
    if (mutate_expr) count_ += mutate_expr(e);
  }

  /// The nullable clauses first, then every expression left standing.
  void Visit(sql::SelectStmt& sel) {
    Clause(&sel.where);
    Clause(&sel.having);
    sql::ForEachTableRef(sel, [this](sql::TableRef& t) {
      if (t.kind == sql::TableRef::Kind::kJoin) Clause(&t.join_cond);
      if (t.subquery) Visit(*t.subquery);
    });
    sql::ForEachClauseExpr(sel, [this](sql::ExprPtr& e) { Visit(e); });
  }

  int count_ = 0;
};

/// Drop matching conjuncts from AND nodes nested below clause level (e.g.
/// the rewriter's in-place `cmp AND a.ttid = b.ttid` under an OR). Keeps the
/// node intact if every conjunct would drop.
void FlattenAndConst(const sql::Expr* e, std::vector<const sql::Expr*>* out) {
  if (e->kind == sql::ExprKind::kBinary && e->op == "AND") {
    FlattenAndConst(e->args[0].get(), out);
    FlattenAndConst(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

int FilterNestedAnd(sql::ExprPtr& e,
                    const std::function<bool(const sql::Expr&)>& drop) {
  if (e->kind != sql::ExprKind::kBinary || e->op != "AND") return 0;
  // An embedded expression must survive, unlike a nullable clause: leave the
  // node untouched if every conjunct would drop.
  std::vector<const sql::Expr*> conjuncts;
  FlattenAndConst(e.get(), &conjuncts);
  bool any_kept = false;
  for (const sql::Expr* c : conjuncts) any_kept = any_kept || !drop(*c);
  if (!any_kept) return 0;
  sql::ExprPtr clause = std::move(e);
  int n = FilterConjuncts(&clause, drop);
  e = std::move(clause);
  return n;
}

}  // namespace

int StripDFilters(sql::Stmt* stmt) {
  MutatingWalk walk;
  walk.mutate_clause = [](sql::ExprPtr* clause) {
    return FilterConjuncts(clause, IsDFilter);
  };
  walk.mutate_expr = [](sql::ExprPtr& e) {
    return FilterNestedAnd(e, IsDFilter);
  };
  return walk.Run(stmt);
}

int UnbalanceConversionPairs(sql::Stmt* stmt,
                             const ConversionRegistry* conversions) {
  if (conversions == nullptr) return 0;
  MutatingWalk walk;
  walk.mutate_expr = [conversions](sql::ExprPtr& e) {
    if (e->kind != sql::ExprKind::kFunction || e->args.size() != 2) return 0;
    bool is_to = false;
    const ConversionPair* pair =
        conversions->FindByFunction(e->fname, &is_to);
    if (pair == nullptr || is_to) return 0;
    const sql::Expr& inner = *e->args[0];
    if (inner.kind != sql::ExprKind::kFunction || inner.args.size() != 2) {
      return 0;
    }
    bool inner_is_to = false;
    if (conversions->FindByFunction(inner.fname, &inner_is_to) != pair ||
        !inner_is_to) {
      return 0;
    }
    e = std::move(e->args[0]);  // keep the bare toUniversal call
    return 1;
  };
  return walk.Run(stmt);
}

int DropTtidJoinPredicates(sql::Stmt* stmt) {
  MutatingWalk walk;
  walk.mutate_clause = [](sql::ExprPtr* clause) {
    return FilterConjuncts(clause, IsTtidJoinPred);
  };
  walk.mutate_expr = [](sql::ExprPtr& e) {
    if (e->kind == sql::ExprKind::kInSubquery && e->args.size() >= 2 &&
        IsTtidColRef(*e->args.back()) && e->subquery &&
        e->subquery->items.size() >= 2 &&
        IsTtidColRef(*e->subquery->items.back().expr)) {
      e->args.pop_back();
      e->subquery->items.pop_back();
      if (!e->subquery->group_by.empty() &&
          IsTtidColRef(*e->subquery->group_by.back())) {
        e->subquery->group_by.pop_back();
      }
      return 1;
    }
    return FilterNestedAnd(e, IsTtidJoinPred);
  };
  return walk.Run(stmt);
}

int LeakTtidThroughStar(sql::Stmt* stmt, const MTSchema* schema) {
  if (schema == nullptr) return 0;
  sql::SelectStmt* sel = nullptr;
  if (stmt->kind == sql::Stmt::Kind::kSelect) {
    sel = stmt->select.get();
  } else if (stmt->kind == sql::Stmt::Kind::kCreateView) {
    sel = stmt->create_view->select.get();
  }
  if (sel == nullptr) return 0;
  const sql::TableRef* ts = nullptr;
  sql::ForEachTableRef(*sel, [&](const sql::TableRef& t) {
    if (ts != nullptr || t.kind != sql::TableRef::Kind::kBase) return;
    const MTTableInfo* info = schema->FindTable(t.name);
    if (info != nullptr && info->tenant_specific()) ts = &t;
  });
  if (ts == nullptr) return 0;
  sql::SelectItem item;
  item.expr = sql::Col(ts->BindingName(), kTtidColumn);
  sel->items.push_back(std::move(item));
  return 1;
}

}  // namespace audit
}  // namespace mt
}  // namespace mtbase
