// Recursive-descent parser for the OpenCL-C subset.
//
// Supported constructs: kernel/helper function definitions, OpenCL address-
// space and access qualifiers, scalar/vector types and pointers, the full C
// expression grammar (without the comma operator), declarations with
// initializers, if/for/while/do-while/return/break/continue, vector literals
// `(float4)(...)` and constructor calls `float4(...)`, and calls to the
// OpenCL builtin library (work-item queries, math, synchronization).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "clfront/ast.hpp"
#include "clfront/lexer.hpp"
#include "common/status.hpp"

namespace repro::clfront {

/// Hard nesting budget across statements and expressions. Pathologically
/// nested input (thousands of parentheses or braces) fails with a parse
/// error at this depth instead of overflowing the stack — the parser is fed
/// untrusted sources over the serving socket.
inline constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  /// `tokens` must end with a kEof token and outlive the parser.
  explicit Parser(std::span<const Token> tokens) : tokens_(tokens) {}

  /// Parse a translation unit; returns a parse error with location info on
  /// the first syntax problem.
  [[nodiscard]] common::Result<TranslationUnit> parse_translation_unit();

 private:
  struct ParseError {
    common::Error error;
  };

  // Token stream helpers.
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const noexcept;
  const Token& advance() noexcept;
  [[nodiscard]] bool check(TokenKind kind) const noexcept;
  [[nodiscard]] bool check_keyword(Keyword kw) const noexcept;
  bool match(TokenKind kind) noexcept;
  bool match_keyword(Keyword kw) noexcept;
  const Token& expect(TokenKind kind, const char* what);
  [[noreturn]] void fail(const std::string& msg) const;

  /// RAII guard enforcing kMaxNestingDepth on the recursive-descent entry
  /// points (statements and unary expressions cover every recursion cycle).
  struct DepthGuard {
    explicit DepthGuard(Parser& parser);
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser_;
  };

  // Types.
  [[nodiscard]] bool looks_like_type_start(std::size_t ahead = 0) const noexcept;
  Type parse_type();  // qualifiers + scalar/vector + optional '*'

  // Declarations.
  FunctionDecl parse_function();
  std::unique_ptr<CompoundStmt> parse_compound();
  StmtPtr parse_statement();
  StmtPtr parse_declaration();  // after lookahead confirmed a type

  // Expressions (precedence climbing).
  ExprPtr parse_expression();   // assignment level
  ExprPtr parse_assignment();
  ExprPtr parse_conditional();
  ExprPtr parse_binary(int min_prec);
  ExprPtr parse_unary();
  ExprPtr parse_postfix();
  ExprPtr parse_primary();

  std::span<const Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Convenience: lex + parse a source string.
[[nodiscard]] common::Result<TranslationUnit> parse_opencl(const std::string& source);

}  // namespace repro::clfront
