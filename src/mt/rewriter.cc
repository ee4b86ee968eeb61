#include "mt/rewriter.h"

#include <algorithm>

#include "common/str_util.h"
#include "sql/printer.h"

namespace mtbase {
namespace mt {

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

/// True if the expression contains any column reference (used to decide
/// whether a tenant-specific attribute is compared against a constant).
bool ContainsColumnRef(const sql::Expr& e) {
  // Conservatively treat sub-queries as refs.
  if (e.kind == sql::ExprKind::kColumnRef || e.subquery) return true;
  bool found = false;
  sql::ForEachExprChild(e, [&found](const sql::Expr& c) {
    found = found || ContainsColumnRef(c);
  });
  return found;
}

}  // namespace

Rewriter::ResolvedAttr Rewriter::Resolve(const sql::Expr& col,
                                         const LevelScope* scope) const {
  ResolvedAttr out;
  if (col.kind != sql::ExprKind::kColumnRef) return out;
  for (const LevelScope* s = scope; s != nullptr; s = s->parent) {
    for (const auto& [alias, info] : s->relations) {
      if (info == nullptr) continue;
      if (!col.qualifier.empty() && !EqualsIgnoreCase(col.qualifier, alias)) {
        continue;
      }
      if (EqualsIgnoreCase(col.column, kTtidColumn) &&
          info->tenant_specific()) {
        if (!col.qualifier.empty()) {
          out.alias = alias;
          out.table = info;
          return out;  // ttid meta column itself (column == nullptr)
        }
        continue;
      }
      const MTColumnInfo* c = info->FindColumn(col.column);
      if (c != nullptr) {
        out.alias = alias;
        out.table = info;
        out.column = c;
        return out;
      }
    }
  }
  return out;
}

sql::ExprPtr Rewriter::WrapConversion(sql::ExprPtr attr,
                                      const std::string& alias,
                                      const MTColumnInfo& col) const {
  std::vector<sql::ExprPtr> to_args;
  to_args.push_back(std::move(attr));
  to_args.push_back(sql::Col(alias, kTtidColumn));
  auto to_call = sql::Func(col.to_universal_fn, std::move(to_args));
  std::vector<sql::ExprPtr> from_args;
  from_args.push_back(std::move(to_call));
  from_args.push_back(sql::IntLit(client_));
  return sql::Func(col.from_universal_fn, std::move(from_args));
}

sql::ExprPtr Rewriter::MakeDFilter(const std::string& alias) const {
  auto e = std::make_unique<sql::Expr>();
  e->kind = sql::ExprKind::kInList;
  e->args.push_back(sql::Col(alias, kTtidColumn));
  for (int64_t d : dataset_) {
    e->args.push_back(sql::IntLit(d));
  }
  return e;
}

Status Rewriter::ExpandStars(sql::SelectStmt* sel, const LevelScope* scope) {
  std::vector<sql::SelectItem> items;
  for (auto& item : sel->items) {
    if (item.expr->kind != sql::ExprKind::kStar) {
      items.push_back(std::move(item));
      continue;
    }
    const std::string& qual = item.expr->qualifier;
    bool expanded_any = false;
    for (const auto& [alias, info] : scope->relations) {
      if (!qual.empty() && !EqualsIgnoreCase(qual, alias)) continue;
      if (info == nullptr) {
        // Relation without MT metadata (derived table / meta table): keep a
        // qualified star; it exposes no hidden ttid.
        sql::SelectItem st;
        st.expr = std::make_unique<sql::Expr>();
        st.expr->kind = sql::ExprKind::kStar;
        st.expr->qualifier = alias;
        items.push_back(std::move(st));
        expanded_any = true;
        continue;
      }
      for (const auto& c : info->columns) {
        sql::SelectItem it;
        it.expr = sql::Col(alias, c.name);
        it.alias = c.name;
        items.push_back(std::move(it));
      }
      expanded_any = true;
    }
    if (!expanded_any) {
      return Status::InvalidArgument("cannot expand '*' (no relations)");
    }
  }
  sel->items = std::move(items);
  return Status::OK();
}

Status Rewriter::RewriteComparison(sql::ExprPtr* e, const LevelScope* scope) {
  sql::Expr& cmp = **e;
  ResolvedAttr l = Resolve(*cmp.args[0], scope);
  ResolvedAttr r = Resolve(*cmp.args[1], scope);
  bool l_ts = l.column != nullptr && l.column->tenant_specific();
  bool r_ts = r.column != nullptr && r.column->tenant_specific();

  // Rejection rule (paper section 2.4.2): tenant-specific attributes may only
  // be compared with tenant-specific attributes or constants.
  if (l_ts != r_ts) {
    const sql::Expr& other = l_ts ? *cmp.args[1] : *cmp.args[0];
    const ResolvedAttr& other_attr = l_ts ? r : l;
    if (other_attr.column != nullptr || ContainsColumnRef(other)) {
      return Status::Rejected(
          "INCOMPARABLE_ATTRIBUTES: comparison of tenant-specific attribute "
          "with a non-tenant-specific attribute: " +
          sql::PrintExpr(cmp));
    }
  }

  // Rewrite both sides (conversion wrapping, nested sub-queries).
  MTB_RETURN_IF_ERROR(RewriteExpr(&cmp.args[0], scope));
  MTB_RETURN_IF_ERROR(RewriteExpr(&cmp.args[1], scope));

  // ttid predicate for tenant-specific joins across table instances.
  if (l_ts && r_ts && !EqualsIgnoreCase(l.alias, r.alias) &&
      !options_.drop_ttid_joins) {
    auto ttid_eq = sql::Binary("=", sql::Col(l.alias, kTtidColumn),
                               sql::Col(r.alias, kTtidColumn));
    *e = sql::Binary("AND", std::move(*e), std::move(ttid_eq));
  }
  return Status::OK();
}

Status Rewriter::RewriteInSubquery(sql::ExprPtr* e, const LevelScope* scope) {
  sql::Expr& in = **e;
  // Analyse the (single) needle before it may get wrapped.
  ResolvedAttr needle;
  if (in.args.size() == 1) needle = Resolve(*in.args[0], scope);
  bool needle_ts = needle.column != nullptr && needle.column->tenant_specific();

  // The sub-query's first item, before its stars are expanded / attributes
  // wrapped; tenant-specific attributes are never wrapped, so inspecting it
  // after the recursive rewrite is still sound — but its alias resolution
  // needs the sub-query's own FROM, so capture it now.
  const sql::Expr* item0 = nullptr;
  if (!in.subquery->items.empty() &&
      in.subquery->items[0].expr->kind == sql::ExprKind::kColumnRef) {
    item0 = in.subquery->items[0].expr.get();
  }
  std::string item0_alias;
  const MTColumnInfo* item0_col = nullptr;
  if (item0 != nullptr) {
    LevelScope sub_scope;
    sub_scope.parent = scope;
    for (const auto& t : in.subquery->from) {
      if (t->kind == sql::TableRef::Kind::kBase) {
        sub_scope.relations.emplace_back(t->BindingName(),
                                         schema_->FindTable(t->name));
      }
    }
    ResolvedAttr ra = Resolve(*item0, &sub_scope);
    if (ra.column != nullptr) {
      item0_alias = ra.alias;
      item0_col = ra.column;
    }
  }

  // Rewrite needles and the sub-query itself.
  for (auto& a : in.args) {
    MTB_RETURN_IF_ERROR(RewriteExpr(&a, scope));
  }
  MTB_RETURN_IF_ERROR(RewriteSelect(in.subquery.get(), scope));

  if (needle_ts && !options_.drop_ttid_joins) {
    if (item0_col == nullptr || !item0_col->tenant_specific()) {
      return Status::Rejected(
          "INCOMPARABLE_SUBQUERY: tenant-specific attribute tested against a "
          "sub-query that does not produce a tenant-specific attribute: " +
          sql::PrintExpr(in));
    }
    // (x, x.ttid) IN (SELECT y, y.ttid ...): pair the data owners.
    in.args.push_back(sql::Col(needle.alias, kTtidColumn));
    sql::SelectItem ttid_item;
    ttid_item.expr = sql::Col(item0_alias, kTtidColumn);
    in.subquery->items.push_back(std::move(ttid_item));
    if (!in.subquery->group_by.empty()) {
      in.subquery->group_by.push_back(sql::Col(item0_alias, kTtidColumn));
    }
  }
  return Status::OK();
}

Status Rewriter::RewriteExpr(sql::ExprPtr* e, const LevelScope* scope) {
  sql::Expr& x = **e;
  switch (x.kind) {
    case sql::ExprKind::kColumnRef: {
      ResolvedAttr a = Resolve(x, scope);
      if (a.column != nullptr && a.column->convertible() &&
          !options_.drop_conversions) {
        *e = WrapConversion(std::move(*e), a.alias, *a.column);
      }
      return Status::OK();
    }
    case sql::ExprKind::kBinary:
      if (IsComparisonOp(x.op)) return RewriteComparison(e, scope);
      MTB_RETURN_IF_ERROR(RewriteExpr(&x.args[0], scope));
      return RewriteExpr(&x.args[1], scope);
    case sql::ExprKind::kInSubquery:
      return RewriteInSubquery(e, scope);
    case sql::ExprKind::kExists:
    case sql::ExprKind::kScalarSubquery:
      return RewriteSelect(x.subquery.get(), scope);
    default: {
      Status st;
      sql::ForEachExprChild(x, [&](sql::ExprPtr& c) {
        if (st.ok()) st = RewriteExpr(&c, scope);
      });
      MTB_RETURN_IF_ERROR(st);
      if (x.subquery) return RewriteSelect(x.subquery.get(), scope);
      return Status::OK();
    }
  }
}

Status Rewriter::RewriteSelect(sql::SelectStmt* sel, const LevelScope* parent) {
  LevelScope scope;
  scope.parent = parent;

  // Collect relations; rewrite derived tables; remember tenant-specific base
  // tables together with the LEFT JOIN whose ON clause must carry their
  // D-filter (right sides of left joins).
  struct TsRef {
    std::string alias;
    sql::TableRef* left_join = nullptr;  // null: D-filter goes to WHERE
  };
  std::vector<TsRef> ts_refs;
  std::vector<sql::TableRef*> join_nodes;

  struct StackEntry {
    sql::TableRef* t;
    sql::TableRef* left_join_owner;
  };
  std::vector<StackEntry> stack;
  for (auto& t : sel->from) stack.push_back({t.get(), nullptr});
  // Process in FROM order (depth-first, left first).
  for (size_t si = 0; si < stack.size(); ++si) {
    sql::TableRef* t = stack[si].t;
    sql::TableRef* owner = stack[si].left_join_owner;
    switch (t->kind) {
      case sql::TableRef::Kind::kBase: {
        const MTTableInfo* info = schema_->FindTable(t->name);
        scope.relations.emplace_back(t->BindingName(), info);
        if (info != nullptr && info->tenant_specific()) {
          ts_refs.push_back({t->BindingName(), owner});
        }
        break;
      }
      case sql::TableRef::Kind::kSubquery:
        MTB_RETURN_IF_ERROR(RewriteSelect(t->subquery.get(), parent));
        scope.relations.emplace_back(t->BindingName(), nullptr);
        break;
      case sql::TableRef::Kind::kJoin: {
        join_nodes.push_back(t);
        stack.insert(stack.begin() + static_cast<long>(si) + 1,
                     {t->left.get(), owner});
        sql::TableRef* right_owner =
            t->join_type == sql::JoinType::kLeft ? t : owner;
        stack.insert(stack.begin() + static_cast<long>(si) + 2,
                     {t->right.get(), right_owner});
        break;
      }
    }
  }

  // Expand stars so the ttid meta column stays invisible.
  MTB_RETURN_IF_ERROR(ExpandStars(sel, &scope));

  // Rewrite all clauses (paper Algorithm 1).
  for (auto& item : sel->items) {
    bool was_colref = item.expr->kind == sql::ExprKind::kColumnRef;
    std::string colname = was_colref ? item.expr->column : "";
    MTB_RETURN_IF_ERROR(RewriteExpr(&item.expr, &scope));
    if (item.alias.empty() && was_colref &&
        item.expr->kind != sql::ExprKind::kColumnRef) {
      // Keep the original name so super-queries continue to work
      // (paper Listing 10).
      item.alias = colname;
    }
  }
  if (sel->where) {
    MTB_RETURN_IF_ERROR(RewriteExpr(&sel->where, &scope));
  }
  for (auto& g : sel->group_by) {
    MTB_RETURN_IF_ERROR(RewriteExpr(&g, &scope));
  }
  if (sel->having) {
    MTB_RETURN_IF_ERROR(RewriteExpr(&sel->having, &scope));
  }
  for (auto& o : sel->order_by) {
    MTB_RETURN_IF_ERROR(RewriteExpr(&o.expr, &scope));
  }
  for (sql::TableRef* j : join_nodes) {
    if (j->join_cond) {
      MTB_RETURN_IF_ERROR(RewriteExpr(&j->join_cond, &scope));
    }
  }

  // D-filters.
  if (!options_.drop_dfilters) {
    for (const TsRef& ts : ts_refs) {
      sql::ExprPtr filter = MakeDFilter(ts.alias);
      if (ts.left_join != nullptr) {
        sql::TableRef* j = ts.left_join;
        j->join_cond = j->join_cond
                           ? sql::Binary("AND", std::move(j->join_cond),
                                         std::move(filter))
                           : std::move(filter);
      } else {
        sel->where = sel->where ? sql::Binary("AND", std::move(sel->where),
                                              std::move(filter))
                                : std::move(filter);
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<sql::SelectStmt>> Rewriter::RewriteQuery(
    const sql::SelectStmt& query) {
  auto clone = query.Clone();
  MTB_RETURN_IF_ERROR(RewriteSelect(clone.get(), nullptr));
  return clone;
}

Result<sql::CreateTableStmt> Rewriter::LowerCreateTable(
    const sql::CreateTableStmt& ct) const {
  sql::CreateTableStmt out;
  out.name = ct.name;
  out.mt_specific = false;
  if (ct.mt_specific) {
    sql::ColumnDef ttid;
    ttid.name = kTtidColumn;
    ttid.type.id = TypeId::kInt;
    ttid.not_null = true;
    out.columns.push_back(std::move(ttid));
  }
  for (const auto& c : ct.columns) {
    sql::ColumnDef plain = c;
    plain.comparability = sql::Comparability::kDefault;
    plain.to_universal_fn.clear();
    plain.from_universal_fn.clear();
    out.columns.push_back(std::move(plain));
  }
  for (const auto& tc : ct.constraints) {
    sql::TableConstraint c;
    c.kind = tc.kind;
    c.name = tc.name;
    c.columns = tc.columns;
    c.ref_table = tc.ref_table;
    c.ref_columns = tc.ref_columns;
    if (tc.check) c.check = tc.check->Clone();
    switch (tc.kind) {
      case sql::TableConstraint::Kind::kPrimaryKey:
        if (ct.mt_specific) {
          c.columns.insert(c.columns.begin(), kTtidColumn);
        }
        break;
      case sql::TableConstraint::Kind::kForeignKey: {
        const MTTableInfo* ref = schema_->FindTable(tc.ref_table);
        bool ref_ts = ref != nullptr && ref->tenant_specific();
        if (ct.mt_specific && ref_ts) {
          // Global referential constraint: pair the data owners
          // (paper Appendix A.1).
          c.columns.insert(c.columns.begin(), kTtidColumn);
          c.ref_columns.insert(c.ref_columns.begin(), kTtidColumn);
        }
        break;
      }
      case sql::TableConstraint::Kind::kCheck:
        break;
    }
    out.constraints.push_back(std::move(c));
  }
  // Physical design passes through unchanged: the partition column resolves
  // against the lowered layout, so tenant-specific tables may name the
  // synthesized ttid column (PARTITION BY HASH (ttid) PARTITIONS n).
  out.partition = ct.partition;
  return out;
}

Result<std::vector<sql::Stmt>> Rewriter::RewriteInsert(
    const sql::InsertStmt& ins) {
  const MTTableInfo* info = schema_->FindTable(ins.table);
  if (info == nullptr) {
    return Status::NotFound("unknown MT table " + ins.table);
  }
  std::vector<sql::Stmt> out;
  if (!info->tenant_specific()) {
    sql::Stmt stmt;
    stmt.kind = sql::Stmt::Kind::kInsert;
    stmt.insert = std::make_unique<sql::InsertStmt>();
    stmt.insert->table = ins.table;
    stmt.insert->columns = ins.columns;
    for (const auto& row : ins.rows) {
      std::vector<sql::ExprPtr> r;
      for (const auto& e : row) r.push_back(e->Clone());
      stmt.insert->rows.push_back(std::move(r));
    }
    if (ins.select) {
      MTB_ASSIGN_OR_RETURN(stmt.insert->select, RewriteQuery(*ins.select));
    }
    out.push_back(std::move(stmt));
    return out;
  }
  // Tenant-specific: one INSERT per tenant in D, with values converted to the
  // target tenant's format (paper Appendix A.2).
  std::vector<std::string> cols = ins.columns;
  if (cols.empty()) {
    for (const auto& c : info->columns) cols.push_back(c.name);
  }
  for (int64_t d : dataset_) {
    sql::Stmt stmt;
    stmt.kind = sql::Stmt::Kind::kInsert;
    stmt.insert = std::make_unique<sql::InsertStmt>();
    stmt.insert->table = ins.table;
    stmt.insert->columns = cols;
    stmt.insert->columns.push_back(kTtidColumn);
    auto convert = [&](sql::ExprPtr e, const std::string& col) -> sql::ExprPtr {
      const MTColumnInfo* ci = info->FindColumn(col);
      if (ci == nullptr || !ci->convertible() || d == client_) return e;
      std::vector<sql::ExprPtr> to_args;
      to_args.push_back(std::move(e));
      to_args.push_back(sql::IntLit(client_));
      auto to_call = sql::Func(ci->to_universal_fn, std::move(to_args));
      std::vector<sql::ExprPtr> from_args;
      from_args.push_back(std::move(to_call));
      from_args.push_back(sql::IntLit(d));
      return sql::Func(ci->from_universal_fn, std::move(from_args));
    };
    if (ins.select) {
      // Wrap the (rewritten, client-format) source query with a converting
      // projection.
      MTB_ASSIGN_OR_RETURN(auto sub, RewriteQuery(*ins.select));
      for (size_t i = 0; i < sub->items.size(); ++i) {
        sub->items[i].alias = "__c" + std::to_string(i);
      }
      auto outer = std::make_unique<sql::SelectStmt>();
      auto tref = std::make_unique<sql::TableRef>();
      tref->kind = sql::TableRef::Kind::kSubquery;
      tref->alias = "__src";
      tref->subquery = std::move(sub);
      outer->from.push_back(std::move(tref));
      for (size_t i = 0; i < cols.size(); ++i) {
        sql::SelectItem item;
        item.expr =
            convert(sql::Col("__src", "__c" + std::to_string(i)), cols[i]);
        outer->items.push_back(std::move(item));
      }
      {
        sql::SelectItem ttid_item;
        ttid_item.expr = sql::IntLit(d);
        outer->items.push_back(std::move(ttid_item));
      }
      stmt.insert->select = std::move(outer);
    } else {
      for (const auto& row : ins.rows) {
        if (row.size() != cols.size()) {
          return Status::InvalidArgument("INSERT arity mismatch");
        }
        std::vector<sql::ExprPtr> r;
        for (size_t i = 0; i < row.size(); ++i) {
          r.push_back(convert(row[i]->Clone(), cols[i]));
        }
        r.push_back(sql::IntLit(d));
        stmt.insert->rows.push_back(std::move(r));
      }
    }
    out.push_back(std::move(stmt));
  }
  return out;
}

Result<sql::Stmt> Rewriter::RewriteUpdate(const sql::UpdateStmt& up) {
  const MTTableInfo* info = schema_->FindTable(up.table);
  if (info == nullptr) {
    return Status::NotFound("unknown MT table " + up.table);
  }
  sql::Stmt stmt;
  stmt.kind = sql::Stmt::Kind::kUpdate;
  stmt.update = std::make_unique<sql::UpdateStmt>();
  stmt.update->table = up.table;

  LevelScope scope;
  scope.relations.emplace_back(up.table, info);
  for (const auto& [col, expr] : up.assignments) {
    sql::ExprPtr value = expr->Clone();
    MTB_RETURN_IF_ERROR(RewriteExpr(&value, &scope));
    const MTColumnInfo* ci = info->FindColumn(col);
    if (ci != nullptr && ci->convertible() && !options_.drop_conversions) {
      // The new value is in C's format; store it in the owning row's format.
      std::vector<sql::ExprPtr> to_args;
      to_args.push_back(std::move(value));
      to_args.push_back(sql::IntLit(client_));
      auto to_call = sql::Func(ci->to_universal_fn, std::move(to_args));
      std::vector<sql::ExprPtr> from_args;
      from_args.push_back(std::move(to_call));
      from_args.push_back(sql::Col(up.table, kTtidColumn));
      value = sql::Func(ci->from_universal_fn, std::move(from_args));
    }
    stmt.update->assignments.emplace_back(col, std::move(value));
  }
  if (up.where) {
    stmt.update->where = up.where->Clone();
    MTB_RETURN_IF_ERROR(RewriteExpr(&stmt.update->where, &scope));
  }
  if (info->tenant_specific() && !options_.drop_dfilters) {
    sql::ExprPtr filter = MakeDFilter(up.table);
    stmt.update->where =
        stmt.update->where
            ? sql::Binary("AND", std::move(stmt.update->where),
                          std::move(filter))
            : std::move(filter);
  }
  return stmt;
}

Result<sql::Stmt> Rewriter::RewriteDelete(const sql::DeleteStmt& del) {
  const MTTableInfo* info = schema_->FindTable(del.table);
  if (info == nullptr) {
    return Status::NotFound("unknown MT table " + del.table);
  }
  sql::Stmt stmt;
  stmt.kind = sql::Stmt::Kind::kDelete;
  stmt.del = std::make_unique<sql::DeleteStmt>();
  stmt.del->table = del.table;
  LevelScope scope;
  scope.relations.emplace_back(del.table, info);
  if (del.where) {
    stmt.del->where = del.where->Clone();
    MTB_RETURN_IF_ERROR(RewriteExpr(&stmt.del->where, &scope));
  }
  if (info->tenant_specific() && !options_.drop_dfilters) {
    sql::ExprPtr filter = MakeDFilter(del.table);
    stmt.del->where = stmt.del->where
                          ? sql::Binary("AND", std::move(stmt.del->where),
                                        std::move(filter))
                          : std::move(filter);
  }
  return stmt;
}

Status Rewriter::ValidateOptions() const {
  // The legality conditions are judged against the registered tenant
  // universe; without one (bare Rewriter in tests) every combination passes.
  if (options_.universe.empty()) return Status::OK();
  if (options_.drop_ttid_joins && dataset_.size() != 1) {
    return Status::InvalidArgument(
        "ILLEGAL_REWRITE_OPTIONS: drop_ttid_joins requires |D'| = 1, got " +
        std::to_string(dataset_.size()) + " tenants");
  }
  if (options_.drop_conversions &&
      (dataset_.size() != 1 || dataset_[0] != client_)) {
    return Status::InvalidArgument(
        "ILLEGAL_REWRITE_OPTIONS: drop_conversions requires D' = {C}");
  }
  if (options_.drop_dfilters) {
    std::vector<int64_t> d = dataset_;
    std::vector<int64_t> u = options_.universe;
    std::sort(d.begin(), d.end());
    std::sort(u.begin(), u.end());
    if (d != u) {
      return Status::InvalidArgument(
          "ILLEGAL_REWRITE_OPTIONS: drop_dfilters requires D' to cover all "
          "registered tenants");
    }
  }
  return Status::OK();
}

Result<std::vector<sql::Stmt>> Rewriter::RewriteStatement(
    const sql::Stmt& stmt) {
  MTB_RETURN_IF_ERROR(ValidateOptions());
  std::vector<sql::Stmt> out;
  switch (stmt.kind) {
    case sql::Stmt::Kind::kSelect: {
      sql::Stmt s;
      s.kind = sql::Stmt::Kind::kSelect;
      MTB_ASSIGN_OR_RETURN(s.select, RewriteQuery(*stmt.select));
      out.push_back(std::move(s));
      return out;
    }
    case sql::Stmt::Kind::kInsert:
      return RewriteInsert(*stmt.insert);
    case sql::Stmt::Kind::kUpdate: {
      MTB_ASSIGN_OR_RETURN(sql::Stmt s, RewriteUpdate(*stmt.update));
      out.push_back(std::move(s));
      return out;
    }
    case sql::Stmt::Kind::kDelete: {
      MTB_ASSIGN_OR_RETURN(sql::Stmt s, RewriteDelete(*stmt.del));
      out.push_back(std::move(s));
      return out;
    }
    case sql::Stmt::Kind::kCreateTable: {
      sql::Stmt s;
      s.kind = sql::Stmt::Kind::kCreateTable;
      MTB_ASSIGN_OR_RETURN(auto lowered, LowerCreateTable(*stmt.create_table));
      s.create_table = std::make_unique<sql::CreateTableStmt>(std::move(lowered));
      out.push_back(std::move(s));
      return out;
    }
    case sql::Stmt::Kind::kCreateView: {
      sql::Stmt s;
      s.kind = sql::Stmt::Kind::kCreateView;
      s.create_view = std::make_unique<sql::CreateViewStmt>();
      s.create_view->name = stmt.create_view->name;
      MTB_ASSIGN_OR_RETURN(s.create_view->select,
                           RewriteQuery(*stmt.create_view->select));
      out.push_back(std::move(s));
      return out;
    }
    default:
      return Status::InvalidArgument(
          "statement kind is handled by the middleware, not the rewriter");
  }
}

}  // namespace mt
}  // namespace mtbase
