#include "mt/audit/audit.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <utility>

#include "common/str_util.h"
#include "mt/audit/normalizer.h"
#include "mt/audit/type_check.h"
#include "sql/printer.h"

namespace mtbase {
namespace mt {
namespace audit {

const char* AuditCodeName(AuditCode code) {
  switch (code) {
    case AuditCode::kDFilterMissing:
      return "DFILTER_MISSING";
    case AuditCode::kDFilterSetMismatch:
      return "DFILTER_SET_MISMATCH";
    case AuditCode::kDFilterSuppressionIllegal:
      return "DFILTER_SUPPRESSION_ILLEGAL";
    case AuditCode::kConversionMissing:
      return "CONVERSION_WRAP_MISSING";
    case AuditCode::kConversionUnbalanced:
      return "CONVERSION_PAIR_UNBALANCED";
    case AuditCode::kConversionSuppressionIllegal:
      return "CONVERSION_SUPPRESSION_ILLEGAL";
    case AuditCode::kTtidJoinMissing:
      return "TTID_JOIN_MISSING";
    case AuditCode::kTtidJoinSuppressionIllegal:
      return "TTID_JOIN_SUPPRESSION_ILLEGAL";
    case AuditCode::kTtidProjectionLeak:
      return "TTID_PROJECTION_LEAK";
    case AuditCode::kIncomparableAttributes:
      return "INCOMPARABLE_ATTRIBUTES";
    case AuditCode::kInsertTtidInvalid:
      return "INSERT_TTID_INVALID";
    case AuditCode::kTypeMismatch:
      return "TYPE_MISMATCH";
    case AuditCode::kUnknownFunction:
      return "UNKNOWN_FUNCTION";
    case AuditCode::kFunctionArityMismatch:
      return "FUNCTION_ARITY_MISMATCH";
    case AuditCode::kEquivalenceUnknownDivergence:
      return "EQUIVALENCE_UNKNOWN_DIVERGENCE";
  }
  return "?";
}

const char* EquivalenceCodeName(EquivalenceCode code) {
  switch (code) {
    case EquivalenceCode::kNotChecked:
      return "not-checked";
    case EquivalenceCode::kCanonical:
      return "canonical";
    case EquivalenceCode::kDivergeAggDistribution:
      return "DIVERGE_AGG_DISTRIBUTION";
    case EquivalenceCode::kDivergeConversionInline:
      return "DIVERGE_CONVERSION_INLINE";
    case EquivalenceCode::kDivergeConversionPushup:
      return "DIVERGE_CONVERSION_PUSHUP";
    case EquivalenceCode::kUnknown:
      return "DIVERGE_UNKNOWN";
  }
  return "?";
}

namespace {

std::string JoinCodes(const std::vector<const char*>& codes) {
  std::string out;
  for (const char* c : codes) {
    if (!out.empty()) out += ", ";
    out += c;
  }
  return out;
}

void AppendCodes(const std::vector<AuditViolation>& violations,
                 std::vector<const char*>* codes) {
  for (const auto& v : violations) {
    const char* name = AuditCodeName(v.code);
    bool seen = false;
    for (const char* c : *codes) seen = seen || std::strcmp(c, name) == 0;
    if (!seen) codes->push_back(name);
  }
}

}  // namespace

std::string StatementAudit::Summary() const {
  if (ok()) {
    if (equivalence == EquivalenceCode::kNotChecked) return "ok";
    return std::string("ok, equivalence: ") + EquivalenceCodeName(equivalence);
  }
  std::vector<const char*> codes;
  AppendCodes(violations, &codes);
  return "FAILED " + JoinCodes(codes);
}

std::string StatementAudit::Message() const {
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += "\n";
    out += AuditCodeName(v.code);
    out += ": ";
    out += v.detail;
    if (!v.subtree.empty()) {
      out += "\n  in: ";
      out += v.subtree;
    }
  }
  return out;
}

bool AuditReport::ok() const {
  for (const auto& s : statements) {
    if (!s.ok()) return false;
  }
  return true;
}

size_t AuditReport::total_violations() const {
  size_t n = 0;
  for (const auto& s : statements) n += s.violations.size();
  return n;
}

std::string AuditReport::Codes() const {
  std::vector<const char*> codes;
  for (const auto& s : statements) AppendCodes(s.violations, &codes);
  return JoinCodes(codes);
}

std::string AuditReport::Message() const {
  std::string out;
  for (const auto& s : statements) {
    if (s.ok()) continue;
    if (!out.empty()) out += "\n";
    out += s.Message();
  }
  return out;
}

bool AuditEnabled() {
  const char* env = std::getenv("MTBASE_AUDIT_REWRITES");
  if (env != nullptr && env[0] != '\0') return std::strcmp(env, "0") != 0;
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

bool ContainsColumnRef(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kColumnRef || e.subquery) return true;
  bool found = false;
  sql::ForEachExprChild(e, [&found](const sql::Expr& c) {
    found = found || ContainsColumnRef(c);
  });
  return found;
}

bool IsTtidColRef(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kColumnRef &&
         EqualsIgnoreCase(e.column, kTtidColumn);
}

bool IsIntLiteral(const sql::Expr& e, int64_t* value) {
  if (e.kind != sql::ExprKind::kLiteral || e.literal.type() != TypeId::kInt) {
    return false;
  }
  *value = e.literal.int_value();
  return true;
}

/// Const view of the canonical wrapper fromU(toU(x, t), c).
struct ConstWrap {
  const ConversionPair* pair = nullptr;
  const sql::Expr* from_call = nullptr;
  const sql::Expr* to_call = nullptr;
  const sql::Expr* inner = nullptr;
  const sql::Expr* ttid = nullptr;  // to-call's second argument
};

bool MatchWrapped(const sql::Expr& e, const ConversionRegistry* reg,
                  ConstWrap* m) {
  if (reg == nullptr) return false;
  if (e.kind != sql::ExprKind::kFunction || e.args.size() != 2) return false;
  bool is_to = false;
  const ConversionPair* pair = reg->FindByFunction(e.fname, &is_to);
  if (pair == nullptr || is_to) return false;
  const sql::Expr& inner = *e.args[0];
  if (inner.kind != sql::ExprKind::kFunction || inner.args.size() != 2) {
    return false;
  }
  bool inner_is_to = false;
  const ConversionPair* pair2 = reg->FindByFunction(inner.fname, &inner_is_to);
  if (pair2 != pair || !inner_is_to) return false;
  m->pair = pair;
  m->from_call = &e;
  m->to_call = &inner;
  m->inner = inner.args[0].get();
  m->ttid = inner.args[1].get();
  return true;
}

void FlattenAnd(const sql::Expr* e, std::vector<const sql::Expr*>* out) {
  if (e->kind == sql::ExprKind::kBinary && e->op == "AND") {
    FlattenAnd(e->args[0].get(), out);
    FlattenAnd(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

std::string TtidPairKey(const std::string& a, const std::string& b) {
  std::string x = ToLowerCopy(a);
  std::string y = ToLowerCopy(b);
  return x < y ? x + "|" + y : y + "|" + x;
}

/// An added `a.ttid = b.ttid` predicate across two table instances.
bool MatchTtidPair(const sql::Expr& e, std::string* key) {
  if (e.kind != sql::ExprKind::kBinary || e.op != "=") return false;
  const sql::Expr& l = *e.args[0];
  const sql::Expr& r = *e.args[1];
  if (!IsTtidColRef(l) || !IsTtidColRef(r)) return false;
  if (l.qualifier.empty() || r.qualifier.empty()) return false;
  if (EqualsIgnoreCase(l.qualifier, r.qualifier)) return false;
  *key = TtidPairKey(l.qualifier, r.qualifier);
  return true;
}

/// Invariant checks over the rewriter's output. The rules are restated from
/// the paper (sections 2.4.2, 3.1, 4.1) independently of rewriter.cc — the
/// auditor must not share the rewriter's bugs.
class InvariantChecker {
 public:
  InvariantChecker(const AuditContext& ctx, StatementAudit* out)
      : ctx_(ctx), out_(out) {}

  void CheckStmt(const sql::Stmt& stmt) {
    switch (stmt.kind) {
      case sql::Stmt::Kind::kSelect:
        CheckSelect(*stmt.select, nullptr, /*top_level=*/true);
        break;
      case sql::Stmt::Kind::kCreateView:
        CheckSelect(*stmt.create_view->select, nullptr, /*top_level=*/true);
        break;
      case sql::Stmt::Kind::kInsert:
        CheckInsert(*stmt.insert);
        break;
      case sql::Stmt::Kind::kUpdate:
        CheckUpdate(*stmt.update);
        break;
      case sql::Stmt::Kind::kDelete:
        CheckDelete(*stmt.del);
        break;
      default:
        break;
    }
  }

 private:
  struct Scope {
    std::vector<std::pair<std::string, const MTTableInfo*>> relations;
    const Scope* parent = nullptr;
  };

  struct Resolved {
    std::string alias;
    const MTTableInfo* table = nullptr;
    const MTColumnInfo* column = nullptr;
  };

  using PairSet = std::set<std::string>;

  void Violation(AuditCode code, std::string detail, std::string subtree) {
    out_->violations.push_back({code, std::move(detail), std::move(subtree)});
  }

  bool DatasetIsAllTenants() const {
    // Without a registered tenant universe the suppression cannot be judged;
    // the session always provides one (Middleware::tenants()).
    return ctx_.all_tenants.empty() || ctx_.dataset == ctx_.all_tenants;
  }

  bool DatasetIsClientOnly() const {
    return ctx_.dataset.size() == 1 && ctx_.dataset[0] == ctx_.client;
  }

  /// Mirror of the rewriter's scope-chain column resolution.
  Resolved Resolve(const sql::Expr& col, const Scope* scope) const {
    Resolved out;
    if (col.kind != sql::ExprKind::kColumnRef) return out;
    for (const Scope* s = scope; s != nullptr; s = s->parent) {
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
            return out;  // the ttid meta column itself (column == nullptr)
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

  const sql::Expr* Unwrap(const sql::Expr& e) const {
    ConstWrap m;
    if (MatchWrapped(e, ctx_.conversions, &m)) return m.inner;
    return &e;
  }

  /// 0 = not a D-filter for this alias, 1 = exact, 2 = literal-set mismatch.
  int MatchDFilter(const sql::Expr& e, const std::string& alias) const {
    if (e.kind != sql::ExprKind::kInList || e.negated || e.args.empty()) {
      return 0;
    }
    const sql::Expr& needle = *e.args[0];
    if (!IsTtidColRef(needle) ||
        !EqualsIgnoreCase(needle.qualifier, alias)) {
      return 0;
    }
    std::vector<int64_t> values;
    for (size_t i = 1; i < e.args.size(); ++i) {
      int64_t v = 0;
      if (!IsIntLiteral(*e.args[i], &v)) return 0;
      values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    return values == ctx_.dataset ? 1 : 2;
  }

  void CheckDFilterPresence(const sql::Expr* clause, const std::string& alias,
                            const std::string& where_desc) {
    std::vector<const sql::Expr*> conjuncts;
    if (clause != nullptr) FlattenAnd(clause, &conjuncts);
    bool mismatch = false;
    for (const sql::Expr* c : conjuncts) {
      int m = MatchDFilter(*c, alias);
      if (m == 1) return;
      mismatch = mismatch || m == 2;
    }
    if (mismatch) {
      Violation(AuditCode::kDFilterSetMismatch,
                "D-filter literal set for " + alias +
                    " does not equal D' (" + where_desc + ")",
                clause ? sql::PrintExpr(*clause) : "");
      return;
    }
    if (ctx_.options.drop_dfilters) {
      if (!DatasetIsAllTenants()) {
        Violation(AuditCode::kDFilterSuppressionIllegal,
                  "D-filters elided although D' does not cover all tenants (" +
                      where_desc + ", table instance " + alias + ")",
                  "");
      }
      return;
    }
    Violation(AuditCode::kDFilterMissing,
              "tenant-specific table instance " + alias +
                  " has no D-filter (" + where_desc + ")",
              clause ? sql::PrintExpr(*clause) : "");
  }

  /// Validate the canonical read wrapper fromU(toU(attr, a.ttid), C) over a
  /// resolved convertible attribute.
  void CheckReadWrapper(const ConstWrap& m, const Resolved& attr) {
    const MTColumnInfo& col = *attr.column;
    if (!EqualsIgnoreCase(m.pair->to_universal, col.to_universal_fn) ||
        !EqualsIgnoreCase(m.pair->from_universal, col.from_universal_fn)) {
      Violation(AuditCode::kConversionUnbalanced,
                "attribute " + col.name + " is wrapped in conversion pair " +
                    m.pair->name + " instead of its registered pair",
                sql::PrintExpr(*m.from_call));
      return;
    }
    if (!IsTtidColRef(*m.ttid) ||
        !EqualsIgnoreCase(m.ttid->qualifier, attr.alias)) {
      Violation(AuditCode::kConversionUnbalanced,
                "toUniversal owner argument is not " + attr.alias + "." +
                    kTtidColumn,
                sql::PrintExpr(*m.from_call));
    }
    int64_t c = 0;
    if (!IsIntLiteral(*m.from_call->args[1], &c) || c != ctx_.client) {
      Violation(AuditCode::kConversionUnbalanced,
                "fromUniversal client argument is not the client constant " +
                    std::to_string(ctx_.client),
                sql::PrintExpr(*m.from_call));
    }
  }

  void CheckRawConvertibleRef(const Resolved& attr, const sql::Expr& e) {
    if (ctx_.options.drop_conversions) {
      if (!DatasetIsClientOnly()) {
        Violation(AuditCode::kConversionSuppressionIllegal,
                  "conversions elided although D' != {C} (attribute " +
                      attr.column->name + ")",
                  sql::PrintExpr(e));
      }
      return;
    }
    Violation(AuditCode::kConversionMissing,
              "convertible attribute " + attr.column->name +
                  " is not wrapped in its conversion pair",
              sql::PrintExpr(e));
  }

  void CheckComparison(const sql::Expr& e, const Scope* scope,
                       const PairSet& pairs) {
    const sql::Expr* lraw = Unwrap(*e.args[0]);
    const sql::Expr* rraw = Unwrap(*e.args[1]);
    Resolved l = Resolve(*lraw, scope);
    Resolved r = Resolve(*rraw, scope);
    bool l_ts = l.column != nullptr && l.column->tenant_specific();
    bool r_ts = r.column != nullptr && r.column->tenant_specific();

    if (l_ts != r_ts) {
      const sql::Expr& other = l_ts ? *rraw : *lraw;
      const Resolved& other_attr = l_ts ? r : l;
      if (other_attr.column != nullptr || ContainsColumnRef(other)) {
        Violation(AuditCode::kIncomparableAttributes,
                  "tenant-specific attribute compared with a "
                  "non-tenant-specific attribute (paper section 2.4.2)",
                  sql::PrintExpr(e));
      }
    }

    if (l_ts && r_ts && !EqualsIgnoreCase(l.alias, r.alias)) {
      std::string key = TtidPairKey(l.alias, r.alias);
      if (pairs.count(key) == 0) {
        if (ctx_.options.drop_ttid_joins) {
          if (ctx_.dataset.size() != 1) {
            Violation(AuditCode::kTtidJoinSuppressionIllegal,
                      "ttid join predicates elided although |D'| != 1",
                      sql::PrintExpr(e));
          }
        } else {
          Violation(AuditCode::kTtidJoinMissing,
                    "comparison of tenant-specific attributes across table "
                    "instances " +
                        l.alias + ", " + r.alias +
                        " lacks the added ttid join predicate",
                    sql::PrintExpr(e));
        }
      }
    }

    sql::ForEachExprChild(
        e, [&](const sql::Expr& c) { CheckExpr(c, scope, pairs); });
  }

  void CheckInSubquery(const sql::Expr& e, const Scope* scope,
                       const PairSet& pairs) {
    if (e.args.empty() || !e.subquery) return;
    Resolved needle = Resolve(*Unwrap(*e.args[0]), scope);
    bool needle_ts =
        needle.column != nullptr && needle.column->tenant_specific();
    if (needle_ts) {
      bool paired =
          e.args.size() >= 2 && IsTtidColRef(*e.args.back()) &&
          EqualsIgnoreCase(e.args.back()->qualifier, needle.alias) &&
          e.subquery->items.size() >= 2 &&
          IsTtidColRef(*e.subquery->items.back().expr);
      if (!paired) {
        if (ctx_.options.drop_ttid_joins) {
          if (ctx_.dataset.size() != 1) {
            Violation(AuditCode::kTtidJoinSuppressionIllegal,
                      "ttid pairing of membership test elided although "
                      "|D'| != 1",
                      sql::PrintExpr(e));
          }
        } else {
          Violation(AuditCode::kTtidJoinMissing,
                    "membership test on tenant-specific attribute lacks the "
                    "ttid pairing (x, x.ttid) IN (SELECT y, y.ttid ...)",
                    sql::PrintExpr(e));
        }
      }
    }
    sql::ForEachExprChild(
        e, [&](const sql::Expr& c) { CheckExpr(c, scope, pairs); });
    CheckSelect(*e.subquery, scope, /*top_level=*/false);
  }

  void CheckExpr(const sql::Expr& e, const Scope* scope,
                 const PairSet& pairs) {
    switch (e.kind) {
      case sql::ExprKind::kColumnRef: {
        Resolved a = Resolve(e, scope);
        if (a.column != nullptr && a.column->convertible()) {
          CheckRawConvertibleRef(a, e);
        }
        return;
      }
      case sql::ExprKind::kBinary: {
        if (e.op == "AND") {
          std::vector<const sql::Expr*> conjuncts;
          FlattenAnd(&e, &conjuncts);
          PairSet augmented = pairs;
          for (const sql::Expr* c : conjuncts) {
            std::string key;
            if (MatchTtidPair(*c, &key)) augmented.insert(std::move(key));
          }
          for (const sql::Expr* c : conjuncts) {
            CheckExpr(*c, scope, augmented);
          }
          return;
        }
        if (IsComparisonOp(e.op)) {
          CheckComparison(e, scope, pairs);
          return;
        }
        break;  // generic descent below
      }
      case sql::ExprKind::kInSubquery:
        CheckInSubquery(e, scope, pairs);
        return;
      case sql::ExprKind::kExists:
      case sql::ExprKind::kScalarSubquery:
        if (e.subquery) CheckSelect(*e.subquery, scope, /*top_level=*/false);
        return;
      case sql::ExprKind::kFunction: {
        ConstWrap m;
        if (MatchWrapped(e, ctx_.conversions, &m)) {
          Resolved a = Resolve(*m.inner, scope);
          if (a.column != nullptr && a.column->convertible()) {
            CheckReadWrapper(m, a);
            return;  // inner attribute consumed by the wrapper
          }
          // Wrapper over a non-attribute (write shapes, user expressions):
          // nothing to prove here, audit the operands.
          CheckExpr(*m.inner, scope, pairs);
          CheckExpr(*m.ttid, scope, pairs);
          CheckExpr(*m.from_call->args[1], scope, pairs);
          return;
        }
        if (ctx_.conversions != nullptr &&
            ctx_.conversions->IsConversionFunction(e.fname) &&
            e.args.size() == 2) {
          Resolved a = Resolve(*e.args[0], scope);
          if (a.column != nullptr && a.column->convertible()) {
            Violation(AuditCode::kConversionUnbalanced,
                      "unpaired conversion call over convertible attribute " +
                          a.column->name,
                      sql::PrintExpr(e));
            CheckExpr(*e.args[1], scope, pairs);
            return;
          }
        }
        break;  // generic descent below
      }
      default:
        break;
    }
    sql::ForEachExprChild(
        e, [&](const sql::Expr& c) { CheckExpr(c, scope, pairs); });
    if (e.subquery) CheckSelect(*e.subquery, scope, /*top_level=*/false);
  }

  void CheckProjectionLeak(const sql::SelectStmt& sel, const Scope& scope) {
    bool any_ts = false;
    for (const auto& [alias, info] : scope.relations) {
      any_ts = any_ts || (info != nullptr && info->tenant_specific());
    }
    for (const auto& item : sel.items) {
      const sql::Expr& e = *item.expr;
      if (e.kind == sql::ExprKind::kStar) {
        if (e.qualifier.empty()) {
          if (any_ts) {
            Violation(AuditCode::kTtidProjectionLeak,
                      "unexpanded '*' over a tenant-specific relation would "
                      "expose the ttid meta column",
                      sql::PrintExpr(e));
          }
          continue;
        }
        for (const auto& [alias, info] : scope.relations) {
          if (EqualsIgnoreCase(e.qualifier, alias) && info != nullptr &&
              info->tenant_specific()) {
            Violation(AuditCode::kTtidProjectionLeak,
                      "unexpanded '" + e.qualifier +
                          ".*' over a tenant-specific relation would expose "
                          "the ttid meta column",
                      sql::PrintExpr(e));
          }
        }
        continue;
      }
      if (IsTtidColRef(e)) {
        Resolved a = Resolve(e, &scope);
        if (a.table != nullptr && a.table->tenant_specific() &&
            a.column == nullptr) {
          Violation(AuditCode::kTtidProjectionLeak,
                    "the ttid meta column of " + a.alias +
                        " is projected by the top-level query",
                    sql::PrintExpr(e));
        }
      }
    }
  }

  void CheckSelect(const sql::SelectStmt& sel, const Scope* parent,
                   bool top_level) {
    Scope scope;
    scope.parent = parent;

    struct TsRef {
      std::string alias;
      const sql::TableRef* left_join = nullptr;
    };
    std::vector<TsRef> ts_refs;

    struct StackEntry {
      const sql::TableRef* t;
      const sql::TableRef* left_join_owner;
    };
    std::vector<StackEntry> stack;
    for (const auto& t : sel.from) stack.push_back({t.get(), nullptr});
    for (size_t si = 0; si < stack.size(); ++si) {
      const sql::TableRef* t = stack[si].t;
      const sql::TableRef* owner = stack[si].left_join_owner;
      switch (t->kind) {
        case sql::TableRef::Kind::kBase: {
          const MTTableInfo* info =
              ctx_.schema != nullptr ? ctx_.schema->FindTable(t->name)
                                     : nullptr;
          scope.relations.emplace_back(t->BindingName(), info);
          if (info != nullptr && info->tenant_specific()) {
            ts_refs.push_back({t->BindingName(), owner});
          }
          break;
        }
        case sql::TableRef::Kind::kSubquery:
          CheckSelect(*t->subquery, parent, /*top_level=*/false);
          scope.relations.emplace_back(t->BindingName(), nullptr);
          break;
        case sql::TableRef::Kind::kJoin: {
          stack.insert(stack.begin() + static_cast<long>(si) + 1,
                       {t->left.get(), owner});
          const sql::TableRef* right_owner =
              t->join_type == sql::JoinType::kLeft ? t : owner;
          stack.insert(stack.begin() + static_cast<long>(si) + 2,
                       {t->right.get(), right_owner});
          break;
        }
      }
    }

    for (const TsRef& ts : ts_refs) {
      if (ts.left_join != nullptr) {
        CheckDFilterPresence(ts.left_join->join_cond.get(), ts.alias,
                             "LEFT JOIN ON clause");
      } else {
        CheckDFilterPresence(sel.where.get(), ts.alias, "WHERE clause");
      }
    }

    if (top_level) CheckProjectionLeak(sel, scope);

    PairSet no_pairs;
    sql::ForEachClauseExpr(
        sel, [&](const sql::Expr& e) { CheckExpr(e, &scope, no_pairs); });
  }

  /// Validate the write wrapper fromU(toU(value, C), owner) used by
  /// rewritten INSERT/UPDATE statements. `owner_lit` >= 0 demands that exact
  /// tenant constant; -1 demands the table's ttid column reference.
  bool MatchWriteWrapper(const sql::Expr& e, const MTColumnInfo& col,
                         int64_t owner_lit, const std::string& table,
                         const sql::Expr** value_out) {
    ConstWrap m;
    if (!MatchWrapped(e, ctx_.conversions, &m)) return false;
    if (!EqualsIgnoreCase(m.pair->to_universal, col.to_universal_fn) ||
        !EqualsIgnoreCase(m.pair->from_universal, col.from_universal_fn)) {
      Violation(AuditCode::kConversionUnbalanced,
                "write conversion of " + col.name + " uses pair " +
                    m.pair->name + " instead of its registered pair",
                sql::PrintExpr(e));
    }
    int64_t c = 0;
    if (!IsIntLiteral(*m.ttid, &c) || c != ctx_.client) {
      Violation(AuditCode::kConversionUnbalanced,
                "write conversion of " + col.name +
                    ": toUniversal argument is not the client constant",
                sql::PrintExpr(e));
    }
    const sql::Expr& owner = *m.from_call->args[1];
    if (owner_lit >= 0) {
      int64_t d = 0;
      if (!IsIntLiteral(owner, &d) || d != owner_lit) {
        Violation(AuditCode::kConversionUnbalanced,
                  "write conversion of " + col.name +
                      ": fromUniversal owner is not tenant " +
                      std::to_string(owner_lit),
                  sql::PrintExpr(e));
      }
    } else if (!IsTtidColRef(owner) ||
               !EqualsIgnoreCase(owner.qualifier, table)) {
      Violation(AuditCode::kConversionUnbalanced,
                "write conversion of " + col.name +
                    ": fromUniversal owner is not " + table + "." +
                    kTtidColumn,
                sql::PrintExpr(e));
    }
    *value_out = m.inner;
    return true;
  }

  void CheckInsert(const sql::InsertStmt& ins) {
    const MTTableInfo* info =
        ctx_.schema != nullptr ? ctx_.schema->FindTable(ins.table) : nullptr;
    if (info == nullptr || !info->tenant_specific()) {
      if (ins.select) CheckSelect(*ins.select, nullptr, /*top_level=*/true);
      return;
    }
    if (ins.columns.empty() ||
        !EqualsIgnoreCase(ins.columns.back(), kTtidColumn)) {
      Violation(AuditCode::kInsertTtidInvalid,
                "rewritten INSERT into tenant-specific table " + ins.table +
                    " does not append the ttid column",
                "");
      return;
    }
    auto check_values = [&](const std::vector<const sql::Expr*>& values,
                            const std::string& what) {
      if (values.size() != ins.columns.size()) return;
      int64_t d = 0;
      if (!IsIntLiteral(*values.back(), &d) ||
          !std::binary_search(ctx_.dataset.begin(), ctx_.dataset.end(), d)) {
        Violation(AuditCode::kInsertTtidInvalid,
                  what + " does not set ttid to a literal inside D'",
                  sql::PrintExpr(*values.back()));
        return;
      }
      Scope empty;
      PairSet no_pairs;
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        const MTColumnInfo* ci = info->FindColumn(ins.columns[i]);
        if (ci != nullptr && ci->convertible() && d != ctx_.client) {
          const sql::Expr* inner = nullptr;
          if (!MatchWriteWrapper(*values[i], *ci, d, ins.table, &inner)) {
            Violation(AuditCode::kConversionMissing,
                      what + ": value for convertible column " + ci->name +
                          " is not converted to tenant " + std::to_string(d) +
                          "'s format",
                      sql::PrintExpr(*values[i]));
          }
          continue;
        }
        CheckExpr(*values[i], &empty, no_pairs);
      }
    };
    for (const auto& row : ins.rows) {
      std::vector<const sql::Expr*> values;
      for (const auto& e : row) values.push_back(e.get());
      check_values(values, "INSERT row");
    }
    if (ins.select) {
      std::vector<const sql::Expr*> values;
      for (const auto& item : ins.select->items) {
        values.push_back(item.expr.get());
      }
      check_values(values, "INSERT source query projection");
      CheckSelect(*ins.select, nullptr, /*top_level=*/false);
    }
  }

  void CheckUpdate(const sql::UpdateStmt& up) {
    const MTTableInfo* info =
        ctx_.schema != nullptr ? ctx_.schema->FindTable(up.table) : nullptr;
    if (info == nullptr) return;
    Scope scope;
    scope.relations.emplace_back(up.table, info);
    PairSet no_pairs;
    for (const auto& [col, value] : up.assignments) {
      const MTColumnInfo* ci = info->FindColumn(col);
      if (ci != nullptr && ci->convertible()) {
        const sql::Expr* inner = nullptr;
        if (MatchWriteWrapper(*value, *ci, -1, up.table, &inner)) {
          CheckExpr(*inner, &scope, no_pairs);
        } else if (ctx_.options.drop_conversions) {
          if (!DatasetIsClientOnly()) {
            Violation(AuditCode::kConversionSuppressionIllegal,
                      "write conversion of " + ci->name +
                          " elided although D' != {C}",
                      sql::PrintExpr(*value));
          }
          CheckExpr(*value, &scope, no_pairs);
        } else {
          Violation(AuditCode::kConversionMissing,
                    "UPDATE assigns to convertible column " + ci->name +
                        " without the write conversion "
                        "fromUniversal(toUniversal(value, C), ttid)",
                    sql::PrintExpr(*value));
          CheckExpr(*value, &scope, no_pairs);
        }
      } else {
        CheckExpr(*value, &scope, no_pairs);
      }
    }
    if (up.where) CheckExpr(*up.where, &scope, no_pairs);
    if (info->tenant_specific()) {
      CheckDFilterPresence(up.where.get(), up.table, "UPDATE WHERE clause");
    }
  }

  void CheckDelete(const sql::DeleteStmt& del) {
    const MTTableInfo* info =
        ctx_.schema != nullptr ? ctx_.schema->FindTable(del.table) : nullptr;
    if (info == nullptr) return;
    Scope scope;
    scope.relations.emplace_back(del.table, info);
    PairSet no_pairs;
    if (del.where) CheckExpr(*del.where, &scope, no_pairs);
    if (info->tenant_specific()) {
      CheckDFilterPresence(del.where.get(), del.table, "DELETE WHERE clause");
    }
  }

  const AuditContext& ctx_;
  StatementAudit* out_;
};

}  // namespace

void RewriteAuditor::AuditRewrite(const sql::Stmt& stmt,
                                  StatementAudit* out) const {
  InvariantChecker checker(*ctx_, out);
  checker.CheckStmt(stmt);
  CheckStatementTypes(stmt, *ctx_, out);
}

void RewriteAuditor::AuditOptimized(const sql::SelectStmt& rewritten,
                                    const sql::SelectStmt& optimized,
                                    StatementAudit* out) const {
  std::string canonical = NormalizeSelectText(rewritten, ctx_->conversions);
  std::string actual = NormalizeSelectText(optimized, ctx_->conversions);
  if (canonical == actual) {
    out->equivalence = EquivalenceCode::kCanonical;
    return;
  }
  // The optimizer restructured the statement: re-run the type checker over
  // its output and name the pass responsible for the divergence.
  CheckSelectTypes(optimized, *ctx_, out);
  EquivalenceCode code = ClassifyDivergence(optimized, ctx_->conversions);
  out->equivalence = code;
  if (code == EquivalenceCode::kUnknown) {
    out->violations.push_back(
        {AuditCode::kEquivalenceUnknownDivergence,
         "optimized statement does not normalize to the canonical form and "
         "no documented optimizer pass explains the divergence",
         sql::PrintSelect(optimized)});
  }
}

}  // namespace audit
}  // namespace mt
}  // namespace mtbase
