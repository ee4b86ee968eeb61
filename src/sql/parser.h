// Recursive-descent parser for the SQL/MTSQL dialect.
#ifndef MTBASE_SQL_PARSER_H_
#define MTBASE_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace mtbase {
namespace sql {

/// Deepest nesting a statement may reach: parenthesized, sub-query, NOT and
/// unary-minus levels plus operator-chain links (`a + b + c` parses into a
/// left-deep tree) all count one. Every later stage (rewriter, binder,
/// planner, evaluator, printer, the AST's own destructor) recurses over the
/// tree, so deeper input is refused here with InvalidArgument instead of
/// overflowing the stack downstream. Sized for the heaviest build: under
/// AddressSanitizer one parenthesis level costs ~20 KB of an 8 MB stack.
constexpr int kMaxNestingDepth = 256;

/// Parse a single statement (trailing ';' optional).
Result<Stmt> ParseStatement(const std::string& text);

/// Parse a ';'-separated script.
Result<std::vector<Stmt>> ParseScript(const std::string& text);

/// Parse a single SELECT query.
Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& text);

/// Parse a scalar expression (used for UDF bodies and tests).
Result<ExprPtr> ParseExpression(const std::string& text);

}  // namespace sql
}  // namespace mtbase

#endif  // MTBASE_SQL_PARSER_H_
