#include "clfront/parser.hpp"

#include <algorithm>
#include <utility>

namespace repro::clfront {

namespace {

/// Binary operator precedence for the climbing parser (higher binds tighter).
struct OpInfo {
  BinaryOp op;
  int prec;
};

std::optional<OpInfo> binary_op_info(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe: return OpInfo{BinaryOp::kLogicalOr, 1};
    case TokenKind::kAmpAmp: return OpInfo{BinaryOp::kLogicalAnd, 2};
    case TokenKind::kPipe: return OpInfo{BinaryOp::kBitOr, 3};
    case TokenKind::kCaret: return OpInfo{BinaryOp::kBitXor, 4};
    case TokenKind::kAmp: return OpInfo{BinaryOp::kBitAnd, 5};
    case TokenKind::kEq: return OpInfo{BinaryOp::kEq, 6};
    case TokenKind::kNe: return OpInfo{BinaryOp::kNe, 6};
    case TokenKind::kLt: return OpInfo{BinaryOp::kLt, 7};
    case TokenKind::kGt: return OpInfo{BinaryOp::kGt, 7};
    case TokenKind::kLe: return OpInfo{BinaryOp::kLe, 7};
    case TokenKind::kGe: return OpInfo{BinaryOp::kGe, 7};
    case TokenKind::kShl: return OpInfo{BinaryOp::kShl, 8};
    case TokenKind::kShr: return OpInfo{BinaryOp::kShr, 8};
    case TokenKind::kPlus: return OpInfo{BinaryOp::kAdd, 9};
    case TokenKind::kMinus: return OpInfo{BinaryOp::kSub, 9};
    case TokenKind::kStar: return OpInfo{BinaryOp::kMul, 10};
    case TokenKind::kSlash: return OpInfo{BinaryOp::kDiv, 10};
    case TokenKind::kPercent: return OpInfo{BinaryOp::kRem, 10};
    default: return std::nullopt;
  }
}

std::optional<BinaryOp> compound_assign_op(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPlusAssign: return BinaryOp::kAdd;
    case TokenKind::kMinusAssign: return BinaryOp::kSub;
    case TokenKind::kStarAssign: return BinaryOp::kMul;
    case TokenKind::kSlashAssign: return BinaryOp::kDiv;
    case TokenKind::kPercentAssign: return BinaryOp::kRem;
    case TokenKind::kAmpAssign: return BinaryOp::kBitAnd;
    case TokenKind::kPipeAssign: return BinaryOp::kBitOr;
    case TokenKind::kCaretAssign: return BinaryOp::kBitXor;
    case TokenKind::kShlAssign: return BinaryOp::kShl;
    case TokenKind::kShrAssign: return BinaryOp::kShr;
    default: return std::nullopt;
  }
}

bool is_address_space_kw(Keyword kw, AddressSpace* out) {
  switch (kw) {
    case Keyword::kGlobal: *out = AddressSpace::kGlobal; return true;
    case Keyword::kLocal: *out = AddressSpace::kLocal; return true;
    case Keyword::kConstant: *out = AddressSpace::kConstant; return true;
    case Keyword::kPrivate: *out = AddressSpace::kPrivate; return true;
    default: return false;
  }
}

/// Address spaces, const, restrict, volatile, unsigned and signed.
bool is_qualifier_kw(Keyword kw) {
  return kw >= Keyword::kGlobal && kw <= Keyword::kSigned;
}

/// void ... half and size_t.
bool is_type_name_kw(Keyword kw) {
  return kw >= Keyword::kVoid && kw <= Keyword::kSizeT;
}

}  // namespace

const Token& Parser::peek(std::size_t ahead) const noexcept {
  const std::size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
  return tokens_[idx];
}

const Token& Parser::advance() noexcept {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::check(TokenKind kind) const noexcept { return peek().kind == kind; }

bool Parser::check_keyword(Keyword kw) const noexcept { return peek().keyword == kw; }

bool Parser::match(TokenKind kind) noexcept {
  if (!check(kind)) return false;
  advance();
  return true;
}

bool Parser::match_keyword(Keyword kw) noexcept {
  if (!check_keyword(kw)) return false;
  advance();
  return true;
}

const Token& Parser::expect(TokenKind kind, const char* what) {
  if (!check(kind)) {
    fail("expected " + std::string(token_kind_name(kind)) + " (" + what + "), got '" +
         (peek().text.empty() ? token_kind_name(peek().kind) : peek().text) + "'");
  }
  return advance();
}

void Parser::fail(const std::string& msg) const {
  const SourceLoc loc = peek().loc;
  throw ParseError{common::parse_error("line " + std::to_string(loc.line) + ":" +
                                       std::to_string(loc.column) + ": " + msg)};
}

Parser::DepthGuard::DepthGuard(Parser& parser) : parser_(parser) {
  if (parser_.depth_ >= kMaxNestingDepth) {
    parser_.fail("nesting exceeds the depth budget of " +
                 std::to_string(kMaxNestingDepth));
  }
  ++parser_.depth_;
}

bool Parser::looks_like_type_start(std::size_t ahead) const noexcept {
  const Token& t = peek(ahead);
  if (t.kind == TokenKind::kKeyword) {
    return is_qualifier_kw(t.keyword) || is_type_name_kw(t.keyword);
  }
  // Scalar type names are keywords; an identifier can only be a vector one.
  return t.kind == TokenKind::kIdentifier && parse_type_name(t.text).has_value();
}

Type Parser::parse_type() {
  AddressSpace space = AddressSpace::kPrivate;
  bool saw_unsigned = false;
  // Leading qualifiers in any order.
  while (is_qualifier_kw(peek().keyword)) {
    AddressSpace s;
    if (is_address_space_kw(peek().keyword, &s)) space = s;
    if (peek().keyword == Keyword::kUnsigned) saw_unsigned = true;
    advance();
  }

  Type type = Type::int_type();
  if (peek().kind == TokenKind::kKeyword || peek().kind == TokenKind::kIdentifier) {
    if (auto parsed = parse_type_name(peek().text)) {
      type = *parsed;
      advance();
    } else if (saw_unsigned) {
      type = Type::uint_type();  // bare "unsigned"
    } else {
      fail("expected type name, got '" + peek().text + "'");
    }
  } else if (saw_unsigned) {
    type = Type::uint_type();
  } else {
    fail("expected type name");
  }
  if (saw_unsigned && type.scalar == ScalarKind::kInt) type.scalar = ScalarKind::kUInt;
  // Record the address space on the base type as well: array declarations
  // like `__local float tile[256]` need it even without a pointer declarator.
  type.addr_space = space;

  // Trailing qualifiers between type and declarator (e.g. "float const *").
  while (is_qualifier_kw(peek().keyword)) advance();

  if (match(TokenKind::kStar)) {
    type = type.as_pointer(space);
    // "* restrict" / "* const"
    while (is_qualifier_kw(peek().keyword)) advance();
  }
  return type;
}

common::Result<TranslationUnit> Parser::parse_translation_unit() {
  try {
    TranslationUnit unit;
    while (!check(TokenKind::kEof)) {
      unit.functions.push_back(parse_function());
    }
    return unit;
  } catch (ParseError& e) {
    return std::move(e.error);
  }
}

FunctionDecl Parser::parse_function() {
  FunctionDecl fn;
  fn.loc = peek().loc;
  while (check_keyword(Keyword::kKernel)) {
    fn.is_kernel = true;
    advance();
  }
  fn.return_type = parse_type();
  fn.name = expect(TokenKind::kIdentifier, "function name").text;
  expect(TokenKind::kLParen, "parameter list");
  if (!check(TokenKind::kRParen)) {
    do {
      ParamDecl param;
      param.type = parse_type();
      param.name = expect(TokenKind::kIdentifier, "parameter name").text;
      fn.params.push_back(std::move(param));
    } while (match(TokenKind::kComma));
  }
  expect(TokenKind::kRParen, "end of parameter list");
  fn.body = parse_compound();
  return fn;
}

std::unique_ptr<CompoundStmt> Parser::parse_compound() {
  const SourceLoc loc = peek().loc;
  expect(TokenKind::kLBrace, "block");
  auto block = std::make_unique<CompoundStmt>(loc);
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    block->body.push_back(parse_statement());
  }
  expect(TokenKind::kRBrace, "end of block");
  return block;
}

StmtPtr Parser::parse_statement() {
  const DepthGuard depth(*this);
  const SourceLoc loc = peek().loc;
  if (check(TokenKind::kLBrace)) return parse_compound();
  if (match_keyword(Keyword::kIf)) {
    expect(TokenKind::kLParen, "if condition");
    auto cond = parse_expression();
    expect(TokenKind::kRParen, "end of if condition");
    auto then_s = parse_statement();
    StmtPtr else_s;
    if (match_keyword(Keyword::kElse)) else_s = parse_statement();
    return std::make_unique<IfStmt>(std::move(cond), std::move(then_s), std::move(else_s),
                                    loc);
  }
  if (match_keyword(Keyword::kFor)) {
    auto node = std::make_unique<ForStmt>(loc);
    expect(TokenKind::kLParen, "for header");
    if (!check(TokenKind::kSemicolon)) {
      if (looks_like_type_start()) {
        node->init = parse_declaration();  // consumes ';'
      } else {
        auto e = parse_expression();
        node->init = std::make_unique<ExprStmt>(std::move(e), loc);
        expect(TokenKind::kSemicolon, "after for-init");
      }
    } else {
      advance();
    }
    if (!check(TokenKind::kSemicolon)) node->cond = parse_expression();
    expect(TokenKind::kSemicolon, "after for-condition");
    if (!check(TokenKind::kRParen)) node->step = parse_expression();
    expect(TokenKind::kRParen, "end of for header");
    node->body = parse_statement();
    return node;
  }
  if (match_keyword(Keyword::kWhile)) {
    expect(TokenKind::kLParen, "while condition");
    auto cond = parse_expression();
    expect(TokenKind::kRParen, "end of while condition");
    auto body = parse_statement();
    return std::make_unique<WhileStmt>(std::move(cond), std::move(body), loc);
  }
  if (match_keyword(Keyword::kDo)) {
    auto body = parse_statement();
    if (!match_keyword(Keyword::kWhile)) fail("expected 'while' after do-body");
    expect(TokenKind::kLParen, "do-while condition");
    auto cond = parse_expression();
    expect(TokenKind::kRParen, "end of do-while condition");
    expect(TokenKind::kSemicolon, "after do-while");
    return std::make_unique<DoWhileStmt>(std::move(body), std::move(cond), loc);
  }
  if (match_keyword(Keyword::kReturn)) {
    ExprPtr value;
    if (!check(TokenKind::kSemicolon)) value = parse_expression();
    expect(TokenKind::kSemicolon, "after return");
    return std::make_unique<ReturnStmt>(std::move(value), loc);
  }
  if (match_keyword(Keyword::kBreak)) {
    expect(TokenKind::kSemicolon, "after break");
    return std::make_unique<BreakStmt>(loc);
  }
  if (match_keyword(Keyword::kContinue)) {
    expect(TokenKind::kSemicolon, "after continue");
    return std::make_unique<ContinueStmt>(loc);
  }
  if (looks_like_type_start()) return parse_declaration();

  auto expr = parse_expression();
  expect(TokenKind::kSemicolon, "after expression statement");
  return std::make_unique<ExprStmt>(std::move(expr), loc);
}

StmtPtr Parser::parse_declaration() {
  const SourceLoc loc = peek().loc;
  auto stmt = std::make_unique<DeclStmt>(loc);
  const Type base = parse_type();
  do {
    VarDecl decl;
    decl.type = base;
    if (match(TokenKind::kStar)) decl.type = base.as_pointer(base.addr_space);
    decl.name = expect(TokenKind::kIdentifier, "variable name").text;
    if (match(TokenKind::kLBracket)) {
      const Token& size = expect(TokenKind::kIntLiteral, "array size");
      decl.array_size = size.int_value;
      expect(TokenKind::kRBracket, "end of array size");
    }
    if (match(TokenKind::kAssign)) decl.init = parse_assignment();
    stmt->decls.push_back(std::move(decl));
  } while (match(TokenKind::kComma));
  expect(TokenKind::kSemicolon, "after declaration");
  return stmt;
}

ExprPtr Parser::parse_expression() { return parse_assignment(); }

ExprPtr Parser::parse_assignment() {
  const SourceLoc loc = peek().loc;
  auto lhs = parse_conditional();
  if (match(TokenKind::kAssign)) {
    auto rhs = parse_assignment();
    return std::make_unique<AssignExpr>(std::move(lhs), std::move(rhs), std::nullopt, loc);
  }
  if (auto op = compound_assign_op(peek().kind)) {
    advance();
    auto rhs = parse_assignment();
    return std::make_unique<AssignExpr>(std::move(lhs), std::move(rhs), op, loc);
  }
  return lhs;
}

ExprPtr Parser::parse_conditional() {
  const SourceLoc loc = peek().loc;
  auto cond = parse_binary(1);
  if (match(TokenKind::kQuestion)) {
    auto then_e = parse_assignment();
    expect(TokenKind::kColon, "conditional expression");
    auto else_e = parse_assignment();
    return std::make_unique<ConditionalExpr>(std::move(cond), std::move(then_e),
                                             std::move(else_e), loc);
  }
  return cond;
}

ExprPtr Parser::parse_binary(int min_prec) {
  auto lhs = parse_unary();
  while (true) {
    const auto info = binary_op_info(peek().kind);
    if (!info || info->prec < min_prec) return lhs;
    const SourceLoc loc = peek().loc;
    advance();
    auto rhs = parse_binary(info->prec + 1);
    lhs = std::make_unique<BinaryExpr>(info->op, std::move(lhs), std::move(rhs), loc);
  }
}

ExprPtr Parser::parse_unary() {
  // Every expression-level recursion cycle (parenthesized primaries, casts,
  // unary chains, nested subscripts/calls/ternaries) passes through here, so
  // one guard bounds them all; parse_statement bounds the statement cycles.
  const DepthGuard depth(*this);
  const SourceLoc loc = peek().loc;
  if (match(TokenKind::kMinus)) {
    return std::make_unique<UnaryExpr>(UnaryOp::kNegate, parse_unary(), loc);
  }
  if (match(TokenKind::kPlus)) return parse_unary();
  if (match(TokenKind::kBang)) {
    return std::make_unique<UnaryExpr>(UnaryOp::kNot, parse_unary(), loc);
  }
  if (match(TokenKind::kTilde)) {
    return std::make_unique<UnaryExpr>(UnaryOp::kBitNot, parse_unary(), loc);
  }
  if (match(TokenKind::kPlusPlus)) {
    return std::make_unique<UnaryExpr>(UnaryOp::kPreInc, parse_unary(), loc);
  }
  if (match(TokenKind::kMinusMinus)) {
    return std::make_unique<UnaryExpr>(UnaryOp::kPreDec, parse_unary(), loc);
  }
  // Cast or vector literal: '(' type ')' expr | '(' typeN ')' '(' args ')'.
  if (check(TokenKind::kLParen) && looks_like_type_start(1)) {
    advance();  // '('
    const Type target = parse_type();
    expect(TokenKind::kRParen, "end of cast");
    if (target.is_vector() && check(TokenKind::kLParen)) {
      // OpenCL vector literal (float4)(a, b, c, d).
      advance();
      std::vector<ExprPtr> args;
      if (!check(TokenKind::kRParen)) {
        do {
          args.push_back(parse_assignment());
        } while (match(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "end of vector literal");
      return std::make_unique<VectorCtorExpr>(target, std::move(args), loc);
    }
    return std::make_unique<CastExpr>(target, parse_unary(), loc);
  }
  return parse_postfix();
}

ExprPtr Parser::parse_postfix() {
  auto expr = parse_primary();
  while (true) {
    const SourceLoc loc = peek().loc;
    if (match(TokenKind::kLBracket)) {
      auto index = parse_expression();
      expect(TokenKind::kRBracket, "array subscript");
      expr = std::make_unique<IndexExpr>(std::move(expr), std::move(index), loc);
    } else if (match(TokenKind::kDot)) {
      const Token& member = expect(TokenKind::kIdentifier, "member name");
      expr = std::make_unique<MemberExpr>(std::move(expr), member.text, loc);
    } else if (match(TokenKind::kPlusPlus)) {
      expr = std::make_unique<UnaryExpr>(UnaryOp::kPostInc, std::move(expr), loc);
    } else if (match(TokenKind::kMinusMinus)) {
      expr = std::make_unique<UnaryExpr>(UnaryOp::kPostDec, std::move(expr), loc);
    } else {
      return expr;
    }
  }
}

ExprPtr Parser::parse_primary() {
  const SourceLoc loc = peek().loc;
  if (check(TokenKind::kIntLiteral)) {
    const Token& t = advance();
    return std::make_unique<IntLiteralExpr>(t.int_value, t.is_unsigned, loc);
  }
  if (check(TokenKind::kFloatLiteral)) {
    const Token& t = advance();
    return std::make_unique<FloatLiteralExpr>(t.float_value, t.is_float32, loc);
  }
  if (match(TokenKind::kLParen)) {
    auto inner = parse_expression();
    expect(TokenKind::kRParen, "closing parenthesis");
    return inner;
  }
  if (check(TokenKind::kIdentifier) || check(TokenKind::kKeyword)) {
    // Function-style vector constructor: float4(a, b, c, d).
    if (const auto type = parse_type_name(peek().text);
        type && type->is_vector() && peek(1).kind == TokenKind::kLParen) {
      advance();
      advance();
      std::vector<ExprPtr> args;
      if (!check(TokenKind::kRParen)) {
        do {
          args.push_back(parse_assignment());
        } while (match(TokenKind::kComma));
      }
      expect(TokenKind::kRParen, "end of constructor");
      return std::make_unique<VectorCtorExpr>(*type, std::move(args), loc);
    }
    if (check(TokenKind::kIdentifier)) {
      const Token& name = advance();
      if (match(TokenKind::kLParen)) {
        std::vector<ExprPtr> args;
        if (!check(TokenKind::kRParen)) {
          do {
            args.push_back(parse_assignment());
          } while (match(TokenKind::kComma));
        }
        expect(TokenKind::kRParen, "end of call");
        return std::make_unique<CallExpr>(name.text, std::move(args), loc);
      }
      return std::make_unique<VarRefExpr>(name.text, loc);
    }
  }
  fail("expected expression, got '" +
       (peek().text.empty() ? token_kind_name(peek().kind) : peek().text) + "'");
}

common::Result<TranslationUnit> parse_opencl(const std::string& source) {
  Lexer lexer(source);
  const auto tokens = lexer.tokenize();
  if (!tokens.ok()) return tokens.error();
  Parser parser(tokens.value());
  return parser.parse_translation_unit();
}

}  // namespace repro::clfront
