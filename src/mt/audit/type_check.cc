#include "mt/audit/type_check.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "engine/schema.h"
#include "sql/printer.h"

namespace mtbase {
namespace mt {
namespace audit {

const char* TypeClassName(TypeClass c) {
  switch (c) {
    case TypeClass::kUnknown:
      return "unknown";
    case TypeClass::kBool:
      return "bool";
    case TypeClass::kNumeric:
      return "numeric";
    case TypeClass::kString:
      return "string";
    case TypeClass::kDate:
      return "date";
    case TypeClass::kInterval:
      return "interval";
  }
  return "?";
}

TypeClass TypeClassOf(TypeId id) {
  switch (id) {
    case TypeId::kNull:
      return TypeClass::kUnknown;
    case TypeId::kBool:
      return TypeClass::kBool;
    case TypeId::kInt:
    case TypeId::kDouble:
    case TypeId::kDecimal:
      return TypeClass::kNumeric;
    case TypeId::kString:
      return TypeClass::kString;
    case TypeId::kDate:
      return TypeClass::kDate;
  }
  return TypeClass::kUnknown;
}

TypeClass TypeClassOfDecl(const sql::TypeDecl& t) { return TypeClassOf(t.id); }

bool TypeClassesComparable(TypeClass a, TypeClass b) {
  if (a == TypeClass::kUnknown || b == TypeClass::kUnknown) return true;
  if (a == b) return true;
  // DATE literals parse as dates but date columns also compare against
  // strings in the dialect; permit the coercion both ways.
  return (a == TypeClass::kString && b == TypeClass::kDate) ||
         (a == TypeClass::kDate && b == TypeClass::kString);
}

namespace {

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

bool IsAggName(const std::string& f) {
  return EqualsIgnoreCase(f, "COUNT") || EqualsIgnoreCase(f, "SUM") ||
         EqualsIgnoreCase(f, "AVG") || EqualsIgnoreCase(f, "MIN") ||
         EqualsIgnoreCase(f, "MAX");
}

bool Definite(TypeClass c) { return c != TypeClass::kUnknown; }

/// Engine builtin signatures (src/engine/planner.cc's builtin map). max_args
/// of -1 means variadic.
struct BuiltinSig {
  int min_args;
  int max_args;
  TypeClass ret;
  TypeClass arg0;  // kUnknown = unchecked
};

const std::unordered_map<std::string, BuiltinSig>& Builtins() {
  static const std::unordered_map<std::string, BuiltinSig> kMap = {
      {"substring", {2, 3, TypeClass::kString, TypeClass::kString}},
      {"concat", {1, -1, TypeClass::kString, TypeClass::kUnknown}},
      {"char_length", {1, 1, TypeClass::kNumeric, TypeClass::kString}},
      {"character_length", {1, 1, TypeClass::kNumeric, TypeClass::kString}},
      {"length", {1, 1, TypeClass::kNumeric, TypeClass::kString}},
      {"upper", {1, 1, TypeClass::kString, TypeClass::kString}},
      {"lower", {1, 1, TypeClass::kString, TypeClass::kString}},
      {"abs", {1, 1, TypeClass::kNumeric, TypeClass::kNumeric}},
      {"coalesce", {1, -1, TypeClass::kUnknown, TypeClass::kUnknown}},
  };
  return kMap;
}

class TypeChecker {
 public:
  TypeChecker(const AuditContext& ctx, StatementAudit* out)
      : ctx_(ctx), out_(out) {}

  /// One relation's output columns by lower-cased name.
  using RelCols = std::unordered_map<std::string, TypeClass>;

  struct Scope {
    std::vector<std::pair<std::string, RelCols>> relations;  // (alias, cols)
    const Scope* parent = nullptr;
  };

  struct SelectResult {
    RelCols out;                             // by alias / column name
    TypeClass first = TypeClass::kUnknown;   // class of the first item
  };

  /// Build scope, infer every clause, derive the output column classes.
  SelectResult CheckSelect(const sql::SelectStmt& sel, const Scope* parent) {
    Scope scope;
    scope.parent = parent;
    std::vector<const sql::TableRef*> join_nodes;
    sql::ForEachTableRef(sel, [&](const sql::TableRef& t) {
      switch (t.kind) {
        case sql::TableRef::Kind::kBase:
          scope.relations.emplace_back(t.BindingName(), BaseRelCols(t.name));
          break;
        case sql::TableRef::Kind::kSubquery:
          scope.relations.emplace_back(t.BindingName(),
                                       CheckSelect(*t.subquery, parent).out);
          break;
        case sql::TableRef::Kind::kJoin:
          join_nodes.push_back(&t);
          break;
      }
    });

    for (const sql::TableRef* j : join_nodes) {
      if (j->join_cond) Infer(*j->join_cond, &scope);
    }
    if (sel.where) Infer(*sel.where, &scope);
    for (const auto& g : sel.group_by) Infer(*g, &scope);
    if (sel.having) Infer(*sel.having, &scope);
    for (const auto& o : sel.order_by) Infer(*o.expr, &scope);

    SelectResult result;
    bool first = true;
    for (const auto& item : sel.items) {
      TypeClass c = Infer(*item.expr, &scope);
      if (first) {
        result.first = c;
        first = false;
      }
      std::string name = item.alias;
      if (name.empty() && item.expr->kind == sql::ExprKind::kColumnRef) {
        name = item.expr->column;
      }
      if (!name.empty()) result.out[ToLowerCopy(name)] = c;
    }
    return result;
  }

  void CheckInsert(const sql::InsertStmt& ins) {
    RelCols target = BaseRelCols(ins.table);
    Scope empty;
    for (const auto& row : ins.rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        TypeClass got = Infer(*row[i], &empty);
        if (i < ins.columns.size()) {
          auto it = target.find(ToLowerCopy(ins.columns[i]));
          if (it != target.end() && Definite(it->second) && Definite(got) &&
              !TypeClassesComparable(it->second, got)) {
            Mismatch("INSERT value for column " + ins.columns[i] + " is " +
                         TypeClassName(got) + ", column is " +
                         TypeClassName(it->second),
                     *row[i]);
          }
        }
      }
    }
    if (ins.select) CheckSelect(*ins.select, nullptr);
  }

  void CheckUpdate(const sql::UpdateStmt& up) {
    Scope scope;
    scope.relations.emplace_back(up.table, BaseRelCols(up.table));
    RelCols& target = scope.relations.back().second;
    for (const auto& [col, value] : up.assignments) {
      TypeClass got = Infer(*value, &scope);
      auto it = target.find(ToLowerCopy(col));
      if (it != target.end() && Definite(it->second) && Definite(got) &&
          !TypeClassesComparable(it->second, got)) {
        Mismatch("UPDATE assigns " + std::string(TypeClassName(got)) +
                     " to column " + col + " of class " +
                     TypeClassName(it->second),
                 *value);
      }
    }
    if (up.where) Infer(*up.where, &scope);
  }

  void CheckDelete(const sql::DeleteStmt& del) {
    Scope scope;
    scope.relations.emplace_back(del.table, BaseRelCols(del.table));
    if (del.where) Infer(*del.where, &scope);
  }

 private:
  /// Column classes of a physical base table: engine catalog first (has ttid
  /// and the conversion meta tables), MT metadata as fallback.
  RelCols BaseRelCols(const std::string& name) {
    RelCols cols;
    if (ctx_.catalog != nullptr) {
      const engine::Table* t = ctx_.catalog->FindTable(name);
      if (t != nullptr) {
        for (const auto& c : t->schema().columns) {
          cols[ToLowerCopy(c.name)] = TypeClassOfDecl(c.type);
        }
        return cols;
      }
    }
    if (ctx_.schema != nullptr) {
      const MTTableInfo* info = ctx_.schema->FindTable(name);
      if (info != nullptr) {
        for (const auto& c : info->columns) {
          cols[ToLowerCopy(c.name)] = TypeClassOfDecl(c.type);
        }
        if (info->tenant_specific()) {
          cols[ToLowerCopy(kTtidColumn)] = TypeClass::kNumeric;
        }
      }
    }
    return cols;  // empty for views / unknown relations: all-unknown
  }

  TypeClass LookupColumn(const sql::Expr& col, const Scope* scope) const {
    for (const Scope* s = scope; s != nullptr; s = s->parent) {
      for (const auto& [alias, cols] : s->relations) {
        if (!col.qualifier.empty() && !EqualsIgnoreCase(col.qualifier, alias)) {
          continue;
        }
        auto it = cols.find(ToLowerCopy(col.column));
        if (it != cols.end()) return it->second;
        // A matching qualifier with an unlisted column still resolves here
        // (qualified stars of derived tables) — class unknown, not an error.
        if (!col.qualifier.empty()) return TypeClass::kUnknown;
      }
    }
    return TypeClass::kUnknown;
  }

  void Mismatch(const std::string& detail, const sql::Expr& at) {
    out_->violations.push_back(
        {AuditCode::kTypeMismatch, detail, sql::PrintExpr(at)});
  }

  TypeClass InferFunction(const sql::Expr& e, const Scope* scope) {
    std::vector<TypeClass> arg_classes;
    arg_classes.reserve(e.args.size());
    bool has_star = false;
    for (const auto& a : e.args) {
      has_star = has_star || a->kind == sql::ExprKind::kStar;
      arg_classes.push_back(Infer(*a, scope));
    }
    if (e.fname == "__row") return TypeClass::kUnknown;  // binder-internal
    if (IsAggName(e.fname)) {
      if (e.args.size() != 1) {
        out_->violations.push_back({AuditCode::kFunctionArityMismatch,
                                    "aggregate " + e.fname +
                                        " takes exactly one argument",
                                    sql::PrintExpr(e)});
        return TypeClass::kNumeric;
      }
      if (EqualsIgnoreCase(e.fname, "COUNT")) return TypeClass::kNumeric;
      if (EqualsIgnoreCase(e.fname, "SUM") || EqualsIgnoreCase(e.fname, "AVG")) {
        if (!has_star && Definite(arg_classes[0]) &&
            arg_classes[0] != TypeClass::kNumeric) {
          Mismatch("argument of " + e.fname + " is " +
                       TypeClassName(arg_classes[0]) + ", expected numeric",
                   e);
        }
        return TypeClass::kNumeric;
      }
      return arg_classes[0];  // MIN/MAX preserve the argument class
    }
    auto bit = Builtins().find(ToLowerCopy(e.fname));
    if (bit != Builtins().end()) {
      const BuiltinSig& sig = bit->second;
      int n = static_cast<int>(e.args.size());
      if (n < sig.min_args || (sig.max_args >= 0 && n > sig.max_args)) {
        out_->violations.push_back({AuditCode::kFunctionArityMismatch,
                                    "wrong argument count for " + e.fname,
                                    sql::PrintExpr(e)});
      } else if (sig.arg0 != TypeClass::kUnknown && Definite(arg_classes[0]) &&
                 !TypeClassesComparable(sig.arg0, arg_classes[0])) {
        Mismatch("argument of " + e.fname + " is " +
                     TypeClassName(arg_classes[0]) + ", expected " +
                     TypeClassName(sig.arg0),
                 e);
      }
      if (bit->first == "coalesce") {
        for (TypeClass c : arg_classes) {
          if (Definite(c)) return c;
        }
        return TypeClass::kUnknown;
      }
      return sig.ret;
    }
    if (ctx_.udfs != nullptr) {
      const engine::Udf* udf = ctx_.udfs->Find(e.fname);
      if (udf == nullptr) {
        out_->violations.push_back({AuditCode::kUnknownFunction,
                                    "unknown function " + e.fname,
                                    sql::PrintExpr(e)});
        return TypeClass::kUnknown;
      }
      if (udf->arg_types.size() != e.args.size()) {
        out_->violations.push_back(
            {AuditCode::kFunctionArityMismatch,
             e.fname + " takes " + std::to_string(udf->arg_types.size()) +
                 " argument(s), called with " + std::to_string(e.args.size()),
             sql::PrintExpr(e)});
        return TypeClassOfDecl(udf->return_type);
      }
      for (size_t i = 0; i < e.args.size(); ++i) {
        TypeClass want = TypeClassOfDecl(udf->arg_types[i]);
        if (Definite(want) && Definite(arg_classes[i]) &&
            !TypeClassesComparable(want, arg_classes[i])) {
          Mismatch("argument " + std::to_string(i + 1) + " of " + e.fname +
                       " is " + TypeClassName(arg_classes[i]) + ", declared " +
                       TypeClassName(want),
                   e);
        }
      }
      return TypeClassOfDecl(udf->return_type);
    }
    return TypeClass::kUnknown;
  }

  TypeClass InferBinary(const sql::Expr& e, const Scope* scope) {
    TypeClass l = Infer(*e.args[0], scope);
    TypeClass r = Infer(*e.args[1], scope);
    if (e.op == "AND" || e.op == "OR") return TypeClass::kBool;
    if (IsComparisonOp(e.op)) {
      if (!TypeClassesComparable(l, r)) {
        Mismatch("operands of '" + e.op + "' have incompatible classes (" +
                     TypeClassName(l) + " vs " + TypeClassName(r) + ")",
                 e);
      }
      return TypeClass::kBool;
    }
    if (e.op == "LIKE" || e.op == "NOT LIKE") {
      for (TypeClass c : {l, r}) {
        if (Definite(c) && c != TypeClass::kString) {
          Mismatch("operand of LIKE is " + std::string(TypeClassName(c)) +
                       ", expected string",
                   e);
        }
      }
      return TypeClass::kBool;
    }
    if (e.op == "||") return TypeClass::kString;
    // Arithmetic: the engine coerces among the numeric types; dates shift by
    // intervals; everything else is a definite clash.
    for (TypeClass c : {l, r}) {
      if (c == TypeClass::kString || c == TypeClass::kBool) {
        Mismatch("operand of '" + e.op + "' is " +
                     std::string(TypeClassName(c)),
                 e);
      }
    }
    if (l == TypeClass::kDate || r == TypeClass::kDate) {
      bool both_dates = l == TypeClass::kDate && r == TypeClass::kDate;
      if (both_dates && e.op == "-") return TypeClass::kNumeric;  // day diff
      return TypeClass::kDate;
    }
    if (l == TypeClass::kInterval && r == TypeClass::kInterval) {
      return TypeClass::kInterval;
    }
    return TypeClass::kNumeric;
  }

  TypeClass Infer(const sql::Expr& e, const Scope* scope) {
    switch (e.kind) {
      case sql::ExprKind::kLiteral:
        return TypeClassOf(e.literal.type());
      case sql::ExprKind::kColumnRef:
        return LookupColumn(e, scope);
      case sql::ExprKind::kStar:
      case sql::ExprKind::kParam:
        return TypeClass::kUnknown;
      case sql::ExprKind::kUnary: {
        TypeClass c = Infer(*e.args[0], scope);
        if (e.op == "NOT") return TypeClass::kBool;
        if (Definite(c) && c != TypeClass::kNumeric) {
          Mismatch("operand of unary '" + e.op + "' is " +
                       std::string(TypeClassName(c)) + ", expected numeric",
                   e);
        }
        return TypeClass::kNumeric;
      }
      case sql::ExprKind::kBinary:
        return InferBinary(e, scope);
      case sql::ExprKind::kFunction:
        return InferFunction(e, scope);
      case sql::ExprKind::kCase: {
        if (e.case_operand) Infer(*e.case_operand, scope);
        TypeClass result = TypeClass::kUnknown;
        for (size_t i = 0; i + 1 < e.args.size(); i += 2) {
          Infer(*e.args[i], scope);  // WHEN
          TypeClass t = Infer(*e.args[i + 1], scope);
          if (!Definite(result)) result = t;
        }
        if (e.else_expr) {
          TypeClass t = Infer(*e.else_expr, scope);
          if (!Definite(result)) result = t;
        }
        return result;
      }
      case sql::ExprKind::kInList: {
        TypeClass needle = Infer(*e.args[0], scope);
        for (size_t i = 1; i < e.args.size(); ++i) {
          TypeClass c = Infer(*e.args[i], scope);
          if (!TypeClassesComparable(needle, c)) {
            Mismatch("IN list element is " + std::string(TypeClassName(c)) +
                         ", needle is " + TypeClassName(needle),
                     e);
          }
        }
        return TypeClass::kBool;
      }
      case sql::ExprKind::kInSubquery: {
        for (const auto& a : e.args) Infer(*a, scope);
        if (e.subquery) CheckSelect(*e.subquery, scope);
        return TypeClass::kBool;
      }
      case sql::ExprKind::kExists:
        if (e.subquery) CheckSelect(*e.subquery, scope);
        return TypeClass::kBool;
      case sql::ExprKind::kScalarSubquery:
        return e.subquery ? CheckSelect(*e.subquery, scope).first
                          : TypeClass::kUnknown;
      case sql::ExprKind::kBetween: {
        TypeClass v = Infer(*e.args[0], scope);
        for (size_t i = 1; i < e.args.size() && i < 3; ++i) {
          TypeClass b = Infer(*e.args[i], scope);
          if (!TypeClassesComparable(v, b)) {
            Mismatch("BETWEEN bound is " + std::string(TypeClassName(b)) +
                         ", value is " + TypeClassName(v),
                     e);
          }
        }
        return TypeClass::kBool;
      }
      case sql::ExprKind::kIsNull:
        Infer(*e.args[0], scope);
        return TypeClass::kBool;
      case sql::ExprKind::kExtract: {
        TypeClass c = Infer(*e.args[0], scope);
        if (Definite(c) && c != TypeClass::kDate && c != TypeClass::kString) {
          Mismatch("EXTRACT argument is " + std::string(TypeClassName(c)) +
                       ", expected date",
                   e);
        }
        return TypeClass::kNumeric;
      }
      case sql::ExprKind::kInterval:
        return TypeClass::kInterval;
    }
    return TypeClass::kUnknown;
  }

  const AuditContext& ctx_;
  StatementAudit* out_;
};

}  // namespace

void CheckSelectTypes(const sql::SelectStmt& sel, const AuditContext& ctx,
                      StatementAudit* out) {
  TypeChecker checker(ctx, out);
  checker.CheckSelect(sel, nullptr);
}

void CheckStatementTypes(const sql::Stmt& stmt, const AuditContext& ctx,
                         StatementAudit* out) {
  TypeChecker checker(ctx, out);
  switch (stmt.kind) {
    case sql::Stmt::Kind::kSelect:
      checker.CheckSelect(*stmt.select, nullptr);
      break;
    case sql::Stmt::Kind::kInsert:
      checker.CheckInsert(*stmt.insert);
      break;
    case sql::Stmt::Kind::kUpdate:
      checker.CheckUpdate(*stmt.update);
      break;
    case sql::Stmt::Kind::kDelete:
      checker.CheckDelete(*stmt.del);
      break;
    case sql::Stmt::Kind::kCreateView:
      checker.CheckSelect(*stmt.create_view->select, nullptr);
      break;
    default:
      break;
  }
}

}  // namespace audit
}  // namespace mt
}  // namespace mtbase
