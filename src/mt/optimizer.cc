#include "mt/optimizer.h"

#include <functional>
#include <set>
#include <unordered_map>

#include "common/str_util.h"
#include "sql/printer.h"

namespace mtbase {
namespace mt {

const char* OptLevelName(OptLevel level) {
  switch (level) {
    case OptLevel::kCanonical:
      return "canonical";
    case OptLevel::kO1:
      return "o1";
    case OptLevel::kO2:
      return "o2";
    case OptLevel::kO3:
      return "o3";
    case OptLevel::kO4:
      return "o4";
    case OptLevel::kInlineOnly:
      return "inl-only";
  }
  return "?";
}

Result<OptLevel> ParseOptLevel(const std::string& name) {
  for (OptLevel l : {OptLevel::kCanonical, OptLevel::kO1, OptLevel::kO2,
                     OptLevel::kO3, OptLevel::kO4, OptLevel::kInlineOnly}) {
    if (EqualsIgnoreCase(name, OptLevelName(l))) return l;
  }
  return Status::InvalidArgument("unknown optimization level " + name);
}

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

/// The canonical conversion wrapper fromU(toU(x, t), C).
struct WrapMatch {
  const ConversionPair* pair = nullptr;
  sql::Expr* from_call = nullptr;
  sql::Expr* to_call = nullptr;
  sql::Expr* inner = nullptr;
  sql::Expr* ttid = nullptr;
};

bool MatchWrapped(sql::Expr* e, const ConversionRegistry* reg, WrapMatch* m) {
  if (e->kind != sql::ExprKind::kFunction || e->args.size() != 2) return false;
  bool is_to = false;
  const ConversionPair* pair = reg->FindByFunction(e->fname, &is_to);
  if (pair == nullptr || is_to) return false;
  sql::Expr* inner = e->args[0].get();
  if (inner->kind != sql::ExprKind::kFunction || inner->args.size() != 2) {
    return false;
  }
  bool inner_is_to = false;
  const ConversionPair* pair2 = reg->FindByFunction(inner->fname, &inner_is_to);
  if (pair2 != pair || !inner_is_to) return false;
  m->pair = pair;
  m->from_call = e;
  m->to_call = inner;
  m->inner = inner->args[0].get();
  m->ttid = inner->args[1].get();
  return true;
}

bool ContainsConversionCall(const sql::Expr& e, const ConversionRegistry* reg) {
  if (e.kind == sql::ExprKind::kFunction && reg->IsConversionFunction(e.fname)) {
    return true;
  }
  // Sub-queries are optimized separately.
  bool found = false;
  sql::ForEachExprChild(e, [&](const sql::Expr& c) {
    found = found || ContainsConversionCall(c, reg);
  });
  return found;
}

/// Constant w.r.t. the query: no column references, sub-queries or params.
bool IsConstExpr(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kColumnRef || e.subquery ||
      e.kind == sql::ExprKind::kParam || e.kind == sql::ExprKind::kStar) {
    return false;
  }
  bool is_const = true;
  sql::ForEachExprChild(e, [&is_const](const sql::Expr& c) {
    is_const = is_const && IsConstExpr(c);
  });
  return is_const;
}

void CollectSubqueries(sql::Expr* e, std::vector<sql::SelectStmt*>* out) {
  if (e->subquery) out->push_back(e->subquery.get());
  sql::ForEachExprChild(
      *e, [out](sql::ExprPtr& c) { CollectSubqueries(c.get(), out); });
}

/// All sub-selects directly reachable from this select's clauses and FROM.
void DirectChildSelects(sql::SelectStmt* sel,
                        std::vector<sql::SelectStmt*>* out) {
  sql::ForEachTableRef(*sel, [out](sql::TableRef& t) {
    if (t.subquery) out->push_back(t.subquery.get());
  });
  sql::ForEachClauseExpr(
      *sel, [out](sql::ExprPtr& e) { CollectSubqueries(e.get(), out); });
}

sql::ExprPtr MakeAgg(const std::string& fn, sql::ExprPtr arg) {
  std::vector<sql::ExprPtr> args;
  args.push_back(std::move(arg));
  return sql::Func(fn, std::move(args));
}

sql::ExprPtr MakeCountStar() {
  auto star = std::make_unique<sql::Expr>();
  star->kind = sql::ExprKind::kStar;
  std::vector<sql::ExprPtr> args;
  args.push_back(std::move(star));
  return sql::Func("COUNT", std::move(args));
}

}  // namespace

// ---------------------------------------------------------------------------
// o2: conversion push-up in predicates
// ---------------------------------------------------------------------------

namespace {

class PushUpPass {
 public:
  PushUpPass(const ConversionRegistry* reg, int64_t client)
      : reg_(reg), client_(client) {}

  void Run(sql::SelectStmt* sel) {
    std::vector<sql::SelectStmt*> children;
    DirectChildSelects(sel, &children);
    for (auto* c : children) Run(c);
    if (sel->where) Transform(&sel->where);
    if (sel->having) Transform(&sel->having);
    sql::ForEachTableRef(*sel, [this](sql::TableRef& t) {
      if (t.join_cond) Transform(&t.join_cond);
    });
  }

 private:
  /// Build fromU(toU(expr, C), ttid): convert a client-format constant into
  /// the row owner's format (paper Listing 15). With a PostgreSQL-style UDF
  /// cache this costs one toU call per query and one fromU call per tenant.
  sql::ExprPtr ConvertConstant(sql::ExprPtr constant, const ConversionPair& p,
                               sql::ExprPtr ttid) {
    std::vector<sql::ExprPtr> to_args;
    to_args.push_back(std::move(constant));
    to_args.push_back(sql::IntLit(client_));
    auto to_call = sql::Func(p.to_universal, std::move(to_args));
    std::vector<sql::ExprPtr> from_args;
    from_args.push_back(std::move(to_call));
    from_args.push_back(std::move(ttid));
    return sql::Func(p.from_universal, std::move(from_args));
  }

  void Transform(sql::ExprPtr* e) {
    sql::Expr& x = **e;
    if (x.kind == sql::ExprKind::kBinary && IsComparisonOp(x.op)) {
      WrapMatch l, r;
      bool lw = MatchWrapped(x.args[0].get(), reg_, &l);
      bool rw = MatchWrapped(x.args[1].get(), reg_, &r);
      bool eq_op = x.op == "=" || x.op == "<>";
      if (lw && rw && l.pair == r.pair &&
          (eq_op || l.pair->order_preserving())) {
        if (sql::PrintExpr(*l.ttid) == sql::PrintExpr(*r.ttid)) {
          // Same owner on both sides: both values share the tenant format,
          // compare raw (bijectivity per tenant).
          auto inner_l = std::move(l.to_call->args[0]);
          auto inner_r = std::move(r.to_call->args[0]);
          x.args[0] = std::move(inner_l);
          x.args[1] = std::move(inner_r);
        } else {
          // Compare in universal format: strip the client conversions
          // (paper Listing 14).
          auto to_l = std::move(x.args[0]->args[0]);
          auto to_r = std::move(x.args[1]->args[0]);
          x.args[0] = std::move(to_l);
          x.args[1] = std::move(to_r);
        }
        return;
      }
      if (lw != rw) {
        WrapMatch& m = lw ? l : r;
        size_t attr_side = lw ? 0 : 1;
        size_t const_side = 1 - attr_side;
        if ((eq_op || m.pair->order_preserving()) &&
            IsConstExpr(*x.args[const_side])) {
          const ConversionPair& pair = *m.pair;
          auto ttid_clone = m.ttid->Clone();
          auto raw_attr = std::move(m.to_call->args[0]);
          x.args[attr_side] = std::move(raw_attr);
          x.args[const_side] = ConvertConstant(std::move(x.args[const_side]),
                                               pair, std::move(ttid_clone));
          return;
        }
      }
      return;
    }
    if (x.kind == sql::ExprKind::kInList && !x.args.empty()) {
      WrapMatch m;
      if (MatchWrapped(x.args[0].get(), reg_, &m)) {
        bool all_const = true;
        for (size_t i = 1; i < x.args.size(); ++i) {
          all_const = all_const && IsConstExpr(*x.args[i]);
        }
        if (all_const) {
          const ConversionPair& pair = *m.pair;
          auto ttid = m.ttid->Clone();
          auto raw_attr = std::move(m.to_call->args[0]);
          x.args[0] = std::move(raw_attr);
          for (size_t i = 1; i < x.args.size(); ++i) {
            x.args[i] =
                ConvertConstant(std::move(x.args[i]), pair, ttid->Clone());
          }
        }
      }
      return;
    }
    if (x.kind == sql::ExprKind::kBetween) {
      WrapMatch m;
      if (MatchWrapped(x.args[0].get(), reg_, &m) &&
          m.pair->order_preserving() && IsConstExpr(*x.args[1]) &&
          IsConstExpr(*x.args[2])) {
        const ConversionPair& pair = *m.pair;
        auto ttid = m.ttid->Clone();
        auto raw_attr = std::move(m.to_call->args[0]);
        x.args[0] = std::move(raw_attr);
        x.args[1] = ConvertConstant(std::move(x.args[1]), pair, ttid->Clone());
        x.args[2] = ConvertConstant(std::move(x.args[2]), pair, ttid->Clone());
      }
      return;
    }
    sql::ForEachExprChild(x, [this](sql::ExprPtr& c) { Transform(&c); });
  }

  const ConversionRegistry* reg_;
  int64_t client_;
};

}  // namespace

Status Optimizer::PushUpConversions(sql::SelectStmt* sel) {
  PushUpPass pass(conversions_, client_);
  pass.Run(sel);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// o3: aggregation distribution
// ---------------------------------------------------------------------------

namespace {

enum class ShapeKind { kConvFree, kDistributable, kZero, kNo };

struct Shape {
  ShapeKind kind = ShapeKind::kNo;
  const ConversionPair* pair = nullptr;
  std::string ttid_text;
  const sql::Expr* ttid = nullptr;
};

bool SamePairAndTtid(const Shape& a, const Shape& b) {
  return a.pair == b.pair && a.ttid_text == b.ttid_text;
}

/// Can the (whole) aggregate argument expression be computed on raw tenant
/// values such that converting the per-tenant aggregate afterwards is exact?
Shape AnalyzeShape(const sql::Expr& e, const ConversionRegistry* reg) {
  Shape s;
  if (e.kind == sql::ExprKind::kLiteral) {
    const Value& v = e.literal;
    bool zero = (v.type() == TypeId::kInt && v.int_value() == 0) ||
                (v.type() == TypeId::kDecimal && v.decimal_value().units() == 0);
    s.kind = zero ? ShapeKind::kZero : ShapeKind::kConvFree;
    return s;
  }
  WrapMatch m;
  if (MatchWrapped(const_cast<sql::Expr*>(&e), reg, &m)) {
    if (ContainsConversionCall(*m.inner, reg)) {
      s.kind = ShapeKind::kNo;
      return s;
    }
    s.kind = ShapeKind::kDistributable;
    s.pair = m.pair;
    s.ttid = m.ttid;
    s.ttid_text = sql::PrintExpr(*m.ttid);
    return s;
  }
  if (e.kind == sql::ExprKind::kBinary && (e.op == "*" || e.op == "/")) {
    Shape l = AnalyzeShape(*e.args[0], reg);
    Shape r = AnalyzeShape(*e.args[1], reg);
    auto free_like = [](const Shape& x) {
      return x.kind == ShapeKind::kConvFree || x.kind == ShapeKind::kZero;
    };
    if (free_like(l) && free_like(r)) {
      s.kind = ShapeKind::kConvFree;
      return s;
    }
    // Products commute with the conversion only for multiplicative pairs.
    if (l.kind == ShapeKind::kDistributable && free_like(r) &&
        l.pair->cls == ConversionClass::kMultiplicative) {
      return l;
    }
    if (e.op == "*" && r.kind == ShapeKind::kDistributable && free_like(l) &&
        r.pair->cls == ConversionClass::kMultiplicative) {
      return r;
    }
    s.kind = ShapeKind::kNo;
    return s;
  }
  if (e.kind == sql::ExprKind::kBinary && (e.op == "+" || e.op == "-")) {
    Shape l = AnalyzeShape(*e.args[0], reg);
    Shape r = AnalyzeShape(*e.args[1], reg);
    if (l.kind == ShapeKind::kConvFree && r.kind == ShapeKind::kConvFree) {
      s.kind = ShapeKind::kConvFree;
      return s;
    }
    if (l.kind == ShapeKind::kDistributable &&
        (r.kind == ShapeKind::kZero ||
         (r.kind == ShapeKind::kDistributable && SamePairAndTtid(l, r))) &&
        l.pair->cls == ConversionClass::kMultiplicative) {
      return l;
    }
    if (r.kind == ShapeKind::kDistributable && l.kind == ShapeKind::kZero &&
        r.pair->cls == ConversionClass::kMultiplicative) {
      return r;
    }
    s.kind = ShapeKind::kNo;
    return s;
  }
  if (e.kind == sql::ExprKind::kCase) {
    // Conditions must be conversion-free; branches may mix the *same*
    // distributable conversion with literal zeros (multiplicative pairs map
    // 0 to 0, e.g. TPC-H Q14's CASE ... ELSE 0).
    bool bad = e.case_operand && ContainsConversionCall(*e.case_operand, reg);
    for (size_t i = 0; i + 1 < e.args.size() && !bad; i += 2) {
      bad = ContainsConversionCall(*e.args[i], reg);
    }
    Shape acc;
    bool any_dist = false, any_free = false;
    auto merge = [&](const sql::Expr& branch) {
      if (bad) return;
      Shape b = AnalyzeShape(branch, reg);
      switch (b.kind) {
        case ShapeKind::kNo:
          bad = true;
          break;
        case ShapeKind::kZero:
          break;
        case ShapeKind::kConvFree:
          any_free = true;
          break;
        case ShapeKind::kDistributable:
          if (b.pair->cls != ConversionClass::kMultiplicative ||
              (any_dist && !SamePairAndTtid(acc, b))) {
            bad = true;
            break;
          }
          any_dist = true;
          acc = b;
          break;
      }
    };
    for (size_t i = 1; i < e.args.size(); i += 2) merge(*e.args[i]);
    if (e.else_expr) merge(*e.else_expr);
    if (bad || (any_dist && any_free)) {
      s.kind = ShapeKind::kNo;
      return s;
    }
    if (any_dist) {
      acc.kind = ShapeKind::kDistributable;
      return acc;
    }
    s.kind = any_free ? ShapeKind::kConvFree : ShapeKind::kZero;
    return s;
  }
  if (ContainsConversionCall(e, reg)) {
    s.kind = ShapeKind::kNo;
    return s;
  }
  s.kind = ShapeKind::kConvFree;
  return s;
}

/// Replace every full conversion wrapper by the raw attribute underneath
/// (values stay in tenant format).
void StripWrappers(sql::ExprPtr* e, const ConversionRegistry* reg) {
  WrapMatch m;
  if (MatchWrapped(e->get(), reg, &m)) {
    *e = m.inner->Clone();
    return;
  }
  sql::ForEachExprChild(
      **e, [reg](sql::ExprPtr& c) { StripWrappers(&c, reg); });
}

void ReplaceByText(
    sql::ExprPtr* e,
    const std::unordered_map<std::string, std::function<sql::ExprPtr()>>& repl) {
  auto it = repl.find(sql::PrintExpr(**e));
  if (it != repl.end()) {
    *e = it->second();
    return;
  }
  // Sub-queries keep their own structure.
  sql::ForEachExprChild(
      **e, [&repl](sql::ExprPtr& c) { ReplaceByText(&c, repl); });
}

bool IsAggFuncName(const std::string& f) {
  return EqualsIgnoreCase(f, "COUNT") || EqualsIgnoreCase(f, "SUM") ||
         EqualsIgnoreCase(f, "AVG") || EqualsIgnoreCase(f, "MIN") ||
         EqualsIgnoreCase(f, "MAX");
}

void CollectAggCallsLocal(sql::Expr* e, std::vector<sql::Expr*>* out) {
  if (e->kind == sql::ExprKind::kFunction && IsAggFuncName(e->fname)) {
    out->push_back(e);
    return;
  }
  sql::ForEachExprChild(
      *e, [out](sql::ExprPtr& c) { CollectAggCallsLocal(c.get(), out); });
}

bool ContainsAggCall(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunction && IsAggFuncName(e.fname)) {
    return true;
  }
  bool found = false;
  sql::ForEachExprChild(
      e, [&found](const sql::Expr& c) { found = found || ContainsAggCall(c); });
  return found;
}

}  // namespace

Status Optimizer::DistributeAggregations(sql::SelectStmt* sel) {
  {
    std::vector<sql::SelectStmt*> children;
    DirectChildSelects(sel, &children);
    for (auto* c : children) {
      MTB_RETURN_IF_ERROR(DistributeAggregations(c));
    }
  }
  if (sel->distinct || sel->from.empty()) return Status::OK();

  // Collect aggregate calls of this level.
  std::vector<sql::Expr*> calls;
  for (auto& item : sel->items) CollectAggCallsLocal(item.expr.get(), &calls);
  if (sel->having) CollectAggCallsLocal(sel->having.get(), &calls);
  for (auto& o : sel->order_by) CollectAggCallsLocal(o.expr.get(), &calls);
  if (calls.empty()) return Status::OK();

  struct AggPlan {
    sql::Expr* call;
    std::string text;
    AggKind kind;
    Shape shape;
    sql::ExprPtr stripped;  // distributable arg on raw tenant values
  };
  std::vector<AggPlan> plans;
  std::unordered_map<std::string, size_t> by_text;
  const ConversionPair* pair = nullptr;
  std::string ttid_text;
  const sql::Expr* ttid_expr = nullptr;
  bool any_distributable = false;

  for (sql::Expr* call : calls) {
    std::string text = sql::PrintExpr(*call);
    if (by_text.count(text)) continue;
    if (call->distinct) return Status::OK();  // not distributable over tenants
    AggPlan p;
    p.call = call;
    p.text = text;
    bool star =
        !call->args.empty() && call->args[0]->kind == sql::ExprKind::kStar;
    if (EqualsIgnoreCase(call->fname, "COUNT")) {
      p.kind = AggKind::kCount;
    } else if (EqualsIgnoreCase(call->fname, "SUM")) {
      p.kind = AggKind::kSum;
    } else if (EqualsIgnoreCase(call->fname, "AVG")) {
      p.kind = AggKind::kAvg;
    } else if (EqualsIgnoreCase(call->fname, "MIN")) {
      p.kind = AggKind::kMin;
    } else {
      p.kind = AggKind::kMax;
    }
    if (star) {
      p.shape.kind = ShapeKind::kConvFree;
    } else {
      p.shape = AnalyzeShape(*call->args[0], conversions_);
      if (p.shape.kind == ShapeKind::kZero) p.shape.kind = ShapeKind::kConvFree;
    }
    if (p.shape.kind == ShapeKind::kNo) return Status::OK();
    if (p.shape.kind == ShapeKind::kDistributable) {
      if (p.kind != AggKind::kCount &&
          !AggDistributesOver(p.kind, p.shape.pair->cls)) {
        return Status::OK();
      }
      if (pair == nullptr) {
        pair = p.shape.pair;
        ttid_text = p.shape.ttid_text;
        ttid_expr = p.shape.ttid;
      } else if (p.shape.ttid_text != ttid_text) {
        return Status::OK();  // conversions from several owners: skip
      }
      any_distributable = true;
      p.stripped = call->args[0]->Clone();
      StripWrappers(&p.stripped, conversions_);
    }
    by_text[p.text] = plans.size();
    plans.push_back(std::move(p));
  }
  if (!any_distributable) return Status::OK();

  // Group keys must not contain conversions (they stay in both stages).
  for (const auto& g : sel->group_by) {
    if (ContainsConversionCall(*g, conversions_)) return Status::OK();
  }

  const bool linear = pair->cls == ConversionClass::kLinear;

  // --- build the inner (per-tenant partial aggregation) query -------------
  auto inner = std::make_unique<sql::SelectStmt>();
  inner->from = std::move(sel->from);
  inner->where = std::move(sel->where);
  std::unordered_map<std::string, std::function<sql::ExprPtr()>> repl;
  for (size_t i = 0; i < sel->group_by.size(); ++i) {
    sql::SelectItem item;
    item.expr = sel->group_by[i]->Clone();
    item.alias = "__g" + std::to_string(i);
    inner->items.push_back(std::move(item));
    inner->group_by.push_back(sel->group_by[i]->Clone());
    std::string text = sql::PrintExpr(*sel->group_by[i]);
    std::string alias = "__g" + std::to_string(i);
    repl[text] = [alias]() { return sql::Col(alias); };
  }
  inner->group_by.push_back(ttid_expr->Clone());

  auto wrap_to_universal = [&](sql::ExprPtr agg) {
    std::vector<sql::ExprPtr> args;
    args.push_back(std::move(agg));
    args.push_back(ttid_expr->Clone());
    return sql::Func(pair->to_universal, std::move(args));
  };
  auto wrap_from_universal = [&](sql::ExprPtr agg) {
    std::vector<sql::ExprPtr> args;
    args.push_back(std::move(agg));
    args.push_back(sql::IntLit(client_));
    return sql::Func(pair->from_universal, std::move(args));
  };

  for (size_t j = 0; j < plans.size(); ++j) {
    AggPlan& p = plans[j];
    std::string a1 = "__a" + std::to_string(j);
    std::string a2 = "__a" + std::to_string(j) + "c";
    bool dist = p.shape.kind == ShapeKind::kDistributable;
    bool star =
        !p.call->args.empty() && p.call->args[0]->kind == sql::ExprKind::kStar;
    auto arg_clone = [&]() {
      return dist ? p.stripped->Clone() : p.call->args[0]->Clone();
    };
    auto add_item = [&](sql::ExprPtr e, const std::string& alias) {
      sql::SelectItem item;
      item.expr = std::move(e);
      item.alias = alias;
      inner->items.push_back(std::move(item));
    };
    switch (p.kind) {
      case AggKind::kCount: {
        add_item(star ? MakeCountStar() : MakeAgg("COUNT", arg_clone()), a1);
        repl[p.text] = [a1]() { return MakeAgg("SUM", sql::Col(a1)); };
        break;
      }
      case AggKind::kSum: {
        if (!dist) {
          add_item(MakeAgg("SUM", arg_clone()), a1);
          repl[p.text] = [a1]() { return MakeAgg("SUM", sql::Col(a1)); };
        } else if (linear) {
          // Appendix B: total sum = sum over tenants of count * avg.
          add_item(wrap_to_universal(MakeAgg("AVG", arg_clone())), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2, wrap_from_universal]() {
            return wrap_from_universal(MakeAgg(
                "SUM", sql::Binary("*", sql::Col(a1), sql::Col(a2))));
          };
        } else {
          add_item(wrap_to_universal(MakeAgg("SUM", arg_clone())), a1);
          repl[p.text] = [a1, wrap_from_universal]() {
            return wrap_from_universal(MakeAgg("SUM", sql::Col(a1)));
          };
        }
        break;
      }
      case AggKind::kAvg: {
        if (!dist) {
          add_item(MakeAgg("SUM", arg_clone()), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2]() {
            return sql::Binary("/", MakeAgg("SUM", sql::Col(a1)),
                               MakeAgg("SUM", sql::Col(a2)));
          };
        } else if (linear) {
          add_item(wrap_to_universal(MakeAgg("AVG", arg_clone())), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2, wrap_from_universal]() {
            return wrap_from_universal(sql::Binary(
                "/",
                MakeAgg("SUM", sql::Binary("*", sql::Col(a1), sql::Col(a2))),
                MakeAgg("SUM", sql::Col(a2))));
          };
        } else {
          add_item(wrap_to_universal(MakeAgg("SUM", arg_clone())), a1);
          add_item(MakeAgg("COUNT", arg_clone()), a2);
          repl[p.text] = [a1, a2, wrap_from_universal]() {
            return wrap_from_universal(
                sql::Binary("/", MakeAgg("SUM", sql::Col(a1)),
                            MakeAgg("SUM", sql::Col(a2))));
          };
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        const char* fn = p.kind == AggKind::kMin ? "MIN" : "MAX";
        if (!dist) {
          add_item(MakeAgg(fn, arg_clone()), a1);
          repl[p.text] = [a1, fn]() { return MakeAgg(fn, sql::Col(a1)); };
        } else {
          add_item(wrap_to_universal(MakeAgg(fn, arg_clone())), a1);
          repl[p.text] = [a1, fn, wrap_from_universal]() {
            return wrap_from_universal(MakeAgg(fn, sql::Col(a1)));
          };
        }
        break;
      }
    }
  }

  // --- rebuild the outer query over the partials ---------------------------
  auto part = std::make_unique<sql::TableRef>();
  part->kind = sql::TableRef::Kind::kSubquery;
  part->alias = "__part";
  part->subquery = std::move(inner);
  sel->from.clear();
  sel->from.push_back(std::move(part));
  sel->where = nullptr;
  std::vector<sql::ExprPtr> outer_group;
  for (size_t i = 0; i < sel->group_by.size(); ++i) {
    outer_group.push_back(sql::Col("__g" + std::to_string(i)));
  }
  sel->group_by = std::move(outer_group);

  for (auto& item : sel->items) {
    bool was_colref = item.expr->kind == sql::ExprKind::kColumnRef;
    std::string colname = was_colref ? item.expr->column : "";
    ReplaceByText(&item.expr, repl);
    if (item.alias.empty() && was_colref &&
        item.expr->kind != sql::ExprKind::kColumnRef) {
      item.alias = colname;
    }
  }
  if (sel->having) ReplaceByText(&sel->having, repl);
  for (auto& o : sel->order_by) ReplaceByText(&o.expr, repl);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// o4: conversion function inlining
// ---------------------------------------------------------------------------

namespace {

sql::ExprPtr MakeMetaLookupSubquery(const InlineSpec& spec,
                                    const std::string& col,
                                    sql::ExprPtr tenant_expr) {
  auto sub = std::make_unique<sql::SelectStmt>();
  sql::SelectItem item;
  item.expr = sql::Col(col);
  sub->items.push_back(std::move(item));
  auto t1 = std::make_unique<sql::TableRef>();
  t1->kind = sql::TableRef::Kind::kBase;
  t1->name = spec.tenant_table;
  auto t2 = std::make_unique<sql::TableRef>();
  t2->kind = sql::TableRef::Kind::kBase;
  t2->name = spec.meta_table;
  sub->from.push_back(std::move(t1));
  sub->from.push_back(std::move(t2));
  sub->where = sql::Binary(
      "AND",
      sql::Binary("=", sql::Col(spec.tenant_key), std::move(tenant_expr)),
      sql::Binary("=", sql::Col(spec.tenant_fk), sql::Col(spec.meta_key)));
  return sql::ScalarSubquery(std::move(sub));
}

sql::ExprPtr ApplyInlineTemplate(const InlineSpec& spec, bool is_to,
                                 sql::ExprPtr value, sql::ExprPtr meta_col) {
  if (spec.kind == InlineSpec::Kind::kMultiplicative) {
    return sql::Binary("*", std::move(value), std::move(meta_col));
  }
  // kPrefix
  if (is_to) {
    // SUBSTRING(x, CHAR_LENGTH(prefix) + 1): strip the tenant prefix.
    std::vector<sql::ExprPtr> len_args;
    len_args.push_back(std::move(meta_col));
    auto len = sql::Func("CHAR_LENGTH", std::move(len_args));
    std::vector<sql::ExprPtr> args;
    args.push_back(std::move(value));
    args.push_back(sql::Binary("+", std::move(len), sql::IntLit(1)));
    return sql::Func("SUBSTRING", std::move(args));
  }
  std::vector<sql::ExprPtr> args;
  args.push_back(std::move(meta_col));
  args.push_back(std::move(value));
  return sql::Func("CONCAT", std::move(args));
}

}  // namespace

Status Optimizer::InlineConversions(sql::SelectStmt* sel) {
  {
    std::vector<sql::SelectStmt*> children;
    DirectChildSelects(sel, &children);
    for (auto* c : children) {
      MTB_RETURN_IF_ERROR(InlineConversions(c));
    }
  }
  // Joined meta-table instances of this level, keyed by (ttid text, pair).
  std::unordered_map<std::string, std::string> meta_alias;
  std::vector<sql::ExprPtr> extra_conjuncts;
  // Meta columns referenced outside aggregate arguments in a grouped query
  // (the o3 pattern toU(SUM(x), ttid)); they are functionally dependent on
  // the grouped ttid and must join the GROUP BY list.
  std::vector<sql::ExprPtr> extra_group_cols;
  std::set<std::string> extra_group_texts;
  bool can_join = !sel->from.empty();
  // Binding names on the nullable side of a LEFT JOIN. A meta join keyed on
  // their ttid would sit in WHERE and drop the null-extended rows, so their
  // conversions take the lookup sub-query, which yields NULL for a NULL ttid.
  std::set<std::string> nullable;
  sql::ForEachTableRef(*sel, [&nullable](const sql::TableRef& j) {
    if (j.kind != sql::TableRef::Kind::kJoin ||
        j.join_type != sql::JoinType::kLeft) {
      return;
    }
    sql::ForEachTableRef(*j.right, [&nullable](const sql::TableRef& t) {
      nullable.insert(ToLowerCopy(t.BindingName()));
    });
  });

  std::function<void(sql::ExprPtr*)> walk = [&](sql::ExprPtr* e) {
    sql::Expr& x = **e;
    bool is_to = false;
    const ConversionPair* pair =
        x.kind == sql::ExprKind::kFunction
            ? conversions_->FindByFunction(x.fname, &is_to)
            : nullptr;
    if (pair != nullptr && pair->inline_spec.kind != InlineSpec::Kind::kNone &&
        x.args.size() == 2) {
      const InlineSpec& spec = pair->inline_spec;
      const std::string col = is_to ? spec.to_col : spec.from_col;
      sql::Expr* tenant_arg = x.args[1].get();
      sql::ExprPtr value = std::move(x.args[0]);
      sql::ExprPtr replacement;
      if (tenant_arg->kind == sql::ExprKind::kColumnRef && can_join &&
          nullable.count(ToLowerCopy(tenant_arg->qualifier)) == 0) {
        // Join the meta tables once per (owner expr, pair) and read the
        // conversion data from the joined row (paper Listing 17).
        std::string key = pair->name + "|" + sql::PrintExpr(*tenant_arg);
        auto it = meta_alias.find(key);
        if (it == meta_alias.end()) {
          std::string ta = "__it" + std::to_string(inline_counter_);
          std::string ma = "__im" + std::to_string(inline_counter_);
          ++inline_counter_;
          auto t1 = std::make_unique<sql::TableRef>();
          t1->kind = sql::TableRef::Kind::kBase;
          t1->name = spec.tenant_table;
          t1->alias = ta;
          auto t2 = std::make_unique<sql::TableRef>();
          t2->kind = sql::TableRef::Kind::kBase;
          t2->name = spec.meta_table;
          t2->alias = ma;
          sel->from.push_back(std::move(t1));
          sel->from.push_back(std::move(t2));
          extra_conjuncts.push_back(sql::Binary(
              "=", sql::Col(ta, spec.tenant_key), tenant_arg->Clone()));
          extra_conjuncts.push_back(sql::Binary(
              "=", sql::Col(ta, spec.tenant_fk), sql::Col(ma, spec.meta_key)));
          it = meta_alias.emplace(key, ma).first;
        }
        if (ContainsAggCall(*value) && !sel->group_by.empty()) {
          sql::ExprPtr meta_col = sql::Col(it->second, col);
          if (extra_group_texts.insert(sql::PrintExpr(*meta_col)).second) {
            extra_group_cols.push_back(meta_col->Clone());
          }
        }
        replacement = ApplyInlineTemplate(spec, is_to, std::move(value),
                                          sql::Col(it->second, col));
      } else {
        // Tenant known as an expression (typically the client constant):
        // inline as a scalar sub-query, evaluated once per distinct owner
        // (uncorrelated sub-queries are InitPlans).
        replacement = ApplyInlineTemplate(
            spec, is_to, std::move(value),
            MakeMetaLookupSubquery(spec, col, x.args[1]->Clone()));
      }
      // The value may itself contain conversion calls (the inner toU),
      // walked below as a child of the replacement.
      *e = std::move(replacement);
    }
    // Sub-queries already processed (children first).
    sql::ForEachExprChild(**e, [&walk](sql::ExprPtr& c) { walk(&c); });
  };

  for (auto& item : sel->items) walk(&item.expr);
  if (sel->where) walk(&sel->where);
  for (auto& g : sel->group_by) walk(&g);
  if (sel->having) walk(&sel->having);
  for (auto& o : sel->order_by) walk(&o.expr);

  for (auto& c : extra_conjuncts) {
    sel->where = sel->where
                     ? sql::Binary("AND", std::move(sel->where), std::move(c))
                     : std::move(c);
  }
  for (auto& g : extra_group_cols) {
    sel->group_by.push_back(std::move(g));
  }
  return Status::OK();
}

Status Optimizer::Optimize(sql::SelectStmt* sel, OptLevel level) {
  switch (level) {
    case OptLevel::kCanonical:
    case OptLevel::kO1:
      return Status::OK();
    case OptLevel::kO2:
      return PushUpConversions(sel);
    case OptLevel::kO3:
      MTB_RETURN_IF_ERROR(PushUpConversions(sel));
      return DistributeAggregations(sel);
    case OptLevel::kO4:
      MTB_RETURN_IF_ERROR(PushUpConversions(sel));
      MTB_RETURN_IF_ERROR(DistributeAggregations(sel));
      return InlineConversions(sel);
    case OptLevel::kInlineOnly:
      return InlineConversions(sel);
  }
  return Status::OK();
}

}  // namespace mt
}  // namespace mtbase
