#include "clfront/lexer.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace repro::clfront {

namespace {

struct KeywordSpelling {
  std::string_view text;
  Keyword id;
};

/// Every reserved spelling, ordered by length so that a lookup scans only
/// the spellings of the word's own length (at most eight).
constexpr std::array<KeywordSpelling, 38> kKeywords = {{
    {"if", Keyword::kIf},           {"do", Keyword::kDo},
    {"int", Keyword::kInt},         {"for", Keyword::kFor},
    {"void", Keyword::kVoid},       {"bool", Keyword::kBool},
    {"char", Keyword::kChar},       {"uint", Keyword::kUInt},
    {"long", Keyword::kLong},       {"half", Keyword::kHalf},
    {"else", Keyword::kElse},       {"local", Keyword::kLocal},
    {"const", Keyword::kConst},     {"uchar", Keyword::kUChar},
    {"short", Keyword::kShort},     {"ulong", Keyword::kULong},
    {"float", Keyword::kFloat},     {"while", Keyword::kWhile},
    {"break", Keyword::kBreak},     {"kernel", Keyword::kKernel},
    {"global", Keyword::kGlobal},   {"ushort", Keyword::kUShort},
    {"double", Keyword::kDouble},   {"size_t", Keyword::kSizeT},
    {"return", Keyword::kReturn},   {"struct", Keyword::kStruct},
    {"signed", Keyword::kSigned},   {"private", Keyword::kPrivate},
    {"__local", Keyword::kLocal},   {"__kernel", Keyword::kKernel},
    {"__global", Keyword::kGlobal}, {"constant", Keyword::kConstant},
    {"restrict", Keyword::kRestrict}, {"volatile", Keyword::kVolatile},
    {"continue", Keyword::kContinue}, {"unsigned", Keyword::kUnsigned},
    {"__private", Keyword::kPrivate}, {"__constant", Keyword::kConstant},
}};

constexpr std::size_t kMaxKeywordLength = 10;

/// kKeywordStart[n] is the index of the first spelling at least n long.
constexpr auto kKeywordStart = [] {
  std::array<std::size_t, kMaxKeywordLength + 2> start{};
  std::size_t i = 0;
  for (std::size_t n = 0; n < start.size(); ++n) {
    while (i < kKeywords.size() && kKeywords[i].text.size() < n) ++i;
    start[n] = i;
  }
  return start;
}();

static_assert(
    [] {
      for (std::size_t i = 1; i < kKeywords.size(); ++i) {
        if (kKeywords[i].text.size() < kKeywords[i - 1].text.size()) return false;
      }
      return kKeywords.back().text.size() == kMaxKeywordLength;
    }(),
    "kKeywords must be ordered by length");

/// ASCII character classes; the lexer must not depend on the C locale.
enum CharClass : std::uint8_t {
  kDigit = 1,
  kHexDigit = 2,
  kIdentStart = 4,  // letter or '_'
  kIdentChar = 8,   // letter, digit or '_'
  kSpace = 16,      // ' ', '\t', '\r', '\n'
};

constexpr auto kCharClass = [] {
  std::array<std::uint8_t, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = kDigit | kHexDigit | kIdentChar;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kIdentStart | kIdentChar;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kIdentStart | kIdentChar;
  for (int c = 'a'; c <= 'f'; ++c) table[c] |= kHexDigit;
  for (int c = 'A'; c <= 'F'; ++c) table[c] |= kHexDigit;
  table['_'] = kIdentStart | kIdentChar;
  for (const char c : {' ', '\t', '\r', '\n'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  return table;
}();

[[nodiscard]] bool has_class(char c, std::uint8_t cls) noexcept {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

}  // namespace

Keyword keyword_of(std::string_view word) noexcept {
  if (word.size() > kMaxKeywordLength) return Keyword::kNone;
  const std::size_t end = kKeywordStart[word.size() + 1];
  for (std::size_t i = kKeywordStart[word.size()]; i < end; ++i) {
    const KeywordSpelling& k = kKeywords[i];
    if (k.text[0] == word[0] && k.text == word) return k.id;
  }
  return Keyword::kNone;
}

const char* token_kind_name(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::kEof: return "<eof>";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kFloatLiteral: return "float literal";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kComma: return ",";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kColon: return ":";
    case TokenKind::kQuestion: return "?";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kPercent: return "%";
    case TokenKind::kAmp: return "&";
    case TokenKind::kPipe: return "|";
    case TokenKind::kCaret: return "^";
    case TokenKind::kTilde: return "~";
    case TokenKind::kShl: return "<<";
    case TokenKind::kShr: return ">>";
    case TokenKind::kAmpAmp: return "&&";
    case TokenKind::kPipePipe: return "||";
    case TokenKind::kBang: return "!";
    case TokenKind::kAssign: return "=";
    case TokenKind::kPlusAssign: return "+=";
    case TokenKind::kMinusAssign: return "-=";
    case TokenKind::kStarAssign: return "*=";
    case TokenKind::kSlashAssign: return "/=";
    case TokenKind::kPercentAssign: return "%=";
    case TokenKind::kAmpAssign: return "&=";
    case TokenKind::kPipeAssign: return "|=";
    case TokenKind::kCaretAssign: return "^=";
    case TokenKind::kShlAssign: return "<<=";
    case TokenKind::kShrAssign: return ">>=";
    case TokenKind::kEq: return "==";
    case TokenKind::kNe: return "!=";
    case TokenKind::kLt: return "<";
    case TokenKind::kGt: return ">";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGe: return ">=";
    case TokenKind::kPlusPlus: return "++";
    case TokenKind::kMinusMinus: return "--";
    case TokenKind::kDot: return ".";
    case TokenKind::kArrow: return "->";
  }
  return "?";
}

namespace {

/// The one lexing implementation. Scans a byte window starting in `mode` at
/// `loc`; with final == false it suspends (rolls back) any token that
/// touches the end of the window instead of committing it, so the caller
/// can retry once more bytes arrive — which is exactly what makes chunked
/// lexing byte-identical to one-shot lexing at any chunk size. Committed
/// tokens go to the sink as they are recognized.
class ChunkLexer {
 public:
  ChunkLexer(std::string_view text, SourceLoc loc, detail::LexMode mode, bool final,
             detail::TokenSink& sink)
      : text_(text), loc_(loc), committed_loc_(loc), mode_(mode), final_(final),
        sink_(sink) {}

  detail::ChunkLex run() {
    for (;;) {
      if (mode_ != detail::LexMode::kNormal) {
        if (!resume()) break;  // suspended (bytes committed) or error
      }
      while (has_class(peek(), kSpace)) advance();
      commit();
      if (at_end()) break;
      const std::size_t start_pos = pos_;
      const SourceLoc start_loc = loc_;
      const char c = peek();

      // Preprocessor lines (e.g. #pragma OPENCL EXTENSION ...) are skipped.
      if (c == '#' && loc_.column == 1) {
        advance();
        mode_ = detail::LexMode::kPreprocessor;
        continue;
      }
      if (c == '/') {
        // Classifying '/' needs one byte of lookahead; mid-stream, suspend
        // on the bare slash until the next chunk supplies it.
        if (pos_ + 1 >= text_.size() && !final_) break;
        if (peek(1) == '/') {
          advance();
          advance();
          mode_ = detail::LexMode::kLineComment;
          continue;
        }
        if (peek(1) == '*') {
          advance();
          advance();
          mode_ = detail::LexMode::kBlockComment;
          continue;
        }
      }
      // A '.' may start a float literal (".5f") — that too needs lookahead.
      if (c == '.' && pos_ + 1 >= text_.size() && !final_) break;

      Token token;
      token.loc = start_loc;
      if (has_class(c, kDigit) || (c == '.' && has_class(peek(1), kDigit))) {
        lex_number(token);
        if (error_.has_value()) break;
        if (suspended_) {
          rollback(start_pos, start_loc);
          break;
        }
      } else if (has_class(c, kIdentStart)) {
        lex_identifier(token);
      } else if (!lex_operator(c, token)) {
        break;  // error recorded
      }
      // Mid-stream, a token that reaches the end of the window may go on in
      // the next chunk: it stays in the unconsumed tail.
      if (at_end() && !final_) {
        rollback(start_pos, start_loc);
        break;
      }
      sink_.accept(std::move(token));
    }
    return {committed_pos_, committed_loc_, mode_, std::move(error_)};
  }

 private:
  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  char advance() noexcept {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++loc_.line;
      loc_.column = 1;
    } else {
      ++loc_.column;
    }
    return c;
  }
  /// Advance over `n` bytes known to hold no newline.
  void advance_within_line(std::size_t n) noexcept {
    pos_ += n;
    loc_.column += static_cast<int>(n);
  }
  [[nodiscard]] bool match(char expected) noexcept {
    if (at_end() || text_[pos_] != expected) return false;
    advance();
    return true;
  }
  void commit() noexcept {
    committed_pos_ = pos_;
    committed_loc_ = loc_;
  }
  void rollback(std::size_t pos, SourceLoc loc) noexcept {
    pos_ = pos;
    loc_ = loc;
  }

  void fail_here(const std::string& msg) {
    error_ = common::parse_error("line " + std::to_string(loc_.line) + ":" +
                                 std::to_string(loc_.column) + ": " + msg);
  }

  /// Consume the open comment / preprocessor line. Returns true when normal
  /// lexing may proceed; false on suspend (bytes committed, mode saved) or
  /// error.
  bool resume() {
    if (mode_ == detail::LexMode::kLineComment ||
        mode_ == detail::LexMode::kPreprocessor) {
      if (!at_end()) {
        const char* from = text_.data() + pos_;
        const void* newline = std::memchr(from, '\n', text_.size() - pos_);
        advance_within_line(newline == nullptr ? text_.size() - pos_
                                               : static_cast<const char*>(newline) - from);
      }
      if (at_end() && !final_) {
        commit();
        return false;
      }
      // The '\n' (or EOF) ends the construct; the newline itself is left to
      // the whitespace path, exactly like the one-shot scan.
      mode_ = detail::LexMode::kNormal;
      return true;
    }
    // Block comment; a '/' right after a '*' closes it, even across chunks.
    bool star = mode_ == detail::LexMode::kBlockCommentStar;
    while (!at_end()) {
      const char c = advance();
      if (star && c == '/') {
        mode_ = detail::LexMode::kNormal;
        return true;
      }
      star = c == '*';
    }
    if (final_) {
      fail_here("unterminated block comment");
      return false;
    }
    mode_ = star ? detail::LexMode::kBlockCommentStar : detail::LexMode::kBlockComment;
    commit();
    return false;
  }

  void skip_class(std::uint8_t cls) noexcept {
    std::size_t end = pos_;
    while (end < text_.size() && has_class(text_[end], cls)) ++end;
    advance_within_line(end - pos_);
  }

  /// Integer or float literal; on a malformed exponent records the error,
  /// or mid-stream sets suspended_ when the exponent's digit may follow.
  void lex_number(Token& t) {
    const std::size_t start = pos_;
    bool is_float = false;
    bool is_hex = false;

    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      is_hex = true;
      advance_within_line(2);
      skip_class(kHexDigit);
    } else {
      skip_class(kDigit);
      if (peek() == '.' && has_class(peek(1), kDigit)) {
        is_float = true;
        advance_within_line(1);
        skip_class(kDigit);
      } else if (peek() == '.') {
        is_float = true;
        advance_within_line(1);
      }
      if (peek() == 'e' || peek() == 'E') {
        is_float = true;
        advance_within_line(1);
        if (peek() == '+' || peek() == '-') advance_within_line(1);
        if (!has_class(peek(), kDigit)) {
          // Mid-stream the missing digit may simply be in the next chunk.
          if (at_end() && !final_) {
            suspended_ = true;
            return;
          }
          fail_here("malformed exponent in float literal");
          return;
        }
        skip_class(kDigit);
      }
    }

    t.kind = is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral;
    t.text.assign(text_.substr(start, pos_ - start));
    if (is_float) {
      t.float_value = std::strtod(t.text.c_str(), nullptr);
      t.is_float32 = false;
      if (peek() == 'f' || peek() == 'F') {
        advance_within_line(1);
        t.is_float32 = true;
      }
    } else {
      t.int_value = std::strtoull(t.text.c_str(), nullptr, is_hex ? 16 : 10);
      // OpenCL suffixes: u, U, l, L and combinations.
      while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L') {
        if (peek() == 'u' || peek() == 'U') t.is_unsigned = true;
        advance_within_line(1);
      }
      // "1.f"-style handled above; "1f" is invalid in C but accept gracefully.
      if (peek() == 'f' || peek() == 'F') {
        advance_within_line(1);
        t.kind = TokenKind::kFloatLiteral;
        t.float_value = static_cast<double>(t.int_value);
        t.is_float32 = true;
      }
    }
  }

  void lex_identifier(Token& t) {
    const std::size_t start = pos_;
    skip_class(kIdentChar);
    const std::string_view word = text_.substr(start, pos_ - start);
    t.keyword = keyword_of(word);
    t.kind = t.keyword == Keyword::kNone ? TokenKind::kIdentifier : TokenKind::kKeyword;
    t.text.assign(word);
  }

  /// Punctuation and operators. False (error recorded) on any other byte.
  bool lex_operator(char c, Token& t) {
    advance();
    switch (c) {
      case '(': t.kind = TokenKind::kLParen; break;
      case ')': t.kind = TokenKind::kRParen; break;
      case '{': t.kind = TokenKind::kLBrace; break;
      case '}': t.kind = TokenKind::kRBrace; break;
      case '[': t.kind = TokenKind::kLBracket; break;
      case ']': t.kind = TokenKind::kRBracket; break;
      case ',': t.kind = TokenKind::kComma; break;
      case ';': t.kind = TokenKind::kSemicolon; break;
      case ':': t.kind = TokenKind::kColon; break;
      case '?': t.kind = TokenKind::kQuestion; break;
      case '~': t.kind = TokenKind::kTilde; break;
      case '.': t.kind = TokenKind::kDot; break;
      case '+':
        if (match('+')) t.kind = TokenKind::kPlusPlus;
        else if (match('=')) t.kind = TokenKind::kPlusAssign;
        else t.kind = TokenKind::kPlus;
        break;
      case '-':
        if (match('-')) t.kind = TokenKind::kMinusMinus;
        else if (match('=')) t.kind = TokenKind::kMinusAssign;
        else if (match('>')) t.kind = TokenKind::kArrow;
        else t.kind = TokenKind::kMinus;
        break;
      case '*': t.kind = match('=') ? TokenKind::kStarAssign : TokenKind::kStar; break;
      case '/': t.kind = match('=') ? TokenKind::kSlashAssign : TokenKind::kSlash; break;
      case '%':
        t.kind = match('=') ? TokenKind::kPercentAssign : TokenKind::kPercent;
        break;
      case '&':
        if (match('&')) t.kind = TokenKind::kAmpAmp;
        else if (match('=')) t.kind = TokenKind::kAmpAssign;
        else t.kind = TokenKind::kAmp;
        break;
      case '|':
        if (match('|')) t.kind = TokenKind::kPipePipe;
        else if (match('=')) t.kind = TokenKind::kPipeAssign;
        else t.kind = TokenKind::kPipe;
        break;
      case '^': t.kind = match('=') ? TokenKind::kCaretAssign : TokenKind::kCaret; break;
      case '!': t.kind = match('=') ? TokenKind::kNe : TokenKind::kBang; break;
      case '=': t.kind = match('=') ? TokenKind::kEq : TokenKind::kAssign; break;
      case '<':
        if (match('<')) t.kind = match('=') ? TokenKind::kShlAssign : TokenKind::kShl;
        else t.kind = match('=') ? TokenKind::kLe : TokenKind::kLt;
        break;
      case '>':
        if (match('>')) t.kind = match('=') ? TokenKind::kShrAssign : TokenKind::kShr;
        else t.kind = match('=') ? TokenKind::kGe : TokenKind::kGt;
        break;
      default:
        fail_here(std::string("unexpected character '") + c + "'");
        return false;
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t committed_pos_ = 0;
  SourceLoc loc_;
  SourceLoc committed_loc_;
  detail::LexMode mode_;
  bool final_;
  bool suspended_ = false;
  detail::TokenSink& sink_;
  std::optional<common::Error> error_;
};

/// Collects a whole source's tokens for Lexer::tokenize.
class TokenVector final : public detail::TokenSink {
 public:
  void accept(Token&& token) override { tokens.push_back(std::move(token)); }
  std::vector<Token> tokens;
};

}  // namespace

namespace detail {

ChunkLex lex_chunk(std::string_view text, SourceLoc loc, LexMode mode, bool final,
                   TokenSink& sink) {
  return ChunkLexer(text, loc, mode, final, sink).run();
}

}  // namespace detail

Lexer::Lexer(std::string source) : src_(std::move(source)) {}

common::Result<std::vector<Token>> Lexer::tokenize() {
  TokenVector sink;
  auto out = detail::lex_chunk(src_, SourceLoc{}, detail::LexMode::kNormal, true, sink);
  if (out.error.has_value()) return *out.error;
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.loc = out.loc;
  sink.tokens.push_back(std::move(eof));
  return std::move(sink.tokens);
}

}  // namespace repro::clfront
