// Token vocabulary of the OpenCL-C subset accepted by the frontend.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace repro::clfront {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdentifier,
  kKeyword,
  kIntLiteral,
  kFloatLiteral,
  // Punctuation / operators.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kComma, kSemicolon, kColon, kQuestion,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kTilde, kShl, kShr,
  kAmpAmp, kPipePipe, kBang,
  kAssign, kPlusAssign, kMinusAssign, kStarAssign, kSlashAssign, kPercentAssign,
  kAmpAssign, kPipeAssign, kCaretAssign, kShlAssign, kShrAssign,
  kEq, kNe, kLt, kGt, kLe, kGe,
  kPlusPlus, kMinusMinus,
  kDot, kArrow,
};

[[nodiscard]] const char* token_kind_name(TokenKind kind) noexcept;

/// Which reserved word a kKeyword token is, classified once by the lexer so
/// the parser compares ids, not strings. The "__"-prefixed spellings of
/// kernel and the address spaces share the plain spelling's id; the token's
/// text keeps the spelling for messages. The ranges [kGlobal, kSigned]
/// (qualifiers, address spaces first) and [kVoid, kSizeT] (scalar type
/// names) are contiguous.
enum class Keyword : std::uint8_t {
  kNone,  // an identifier, literal or punctuation
  kKernel,
  kGlobal, kLocal, kConstant, kPrivate,
  kConst, kRestrict, kVolatile, kUnsigned, kSigned,
  kVoid, kBool, kChar, kUChar, kShort, kUShort, kInt, kUInt, kLong, kULong,
  kFloat, kDouble, kHalf, kSizeT,
  kIf, kElse, kFor, kWhile, kDo, kReturn, kBreak, kContinue, kStruct,
};

/// Source location (1-based line/column).
struct SourceLoc {
  int line = 1;
  int column = 1;
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  Keyword keyword = Keyword::kNone;  // set exactly when kind == kKeyword
  bool is_unsigned = false;   // integer literal had a 'u' suffix
  bool is_float32 = true;     // float literal had an 'f' suffix (else double)
  SourceLoc loc;
  std::string text;        // identifier/keyword spelling or literal text
  std::uint64_t int_value = 0;
  double float_value = 0.0;
};

/// The reserved word `word` spells, or Keyword::kNone. Constant time.
[[nodiscard]] Keyword keyword_of(std::string_view word) noexcept;

/// True if `word` is a reserved keyword of the accepted subset.
[[nodiscard]] inline bool is_keyword(std::string_view word) noexcept {
  return keyword_of(word) != Keyword::kNone;
}

}  // namespace repro::clfront
