// Hand-written lexer for the OpenCL-C subset. Handles line/block comments,
// preprocessor-line skipping (#pragma etc.), integer/float literals with
// OpenCL suffixes, and all multi-character operators.
//
// The implementation is a resumable chunk lexer (detail::lex_chunk): the
// whole-string Lexer below and the streaming clfront::SourceFeeder drive the
// same scanner, so chunked input produces byte-identical tokens (text,
// values, locations) to one-shot tokenization at any chunk size.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clfront/token.hpp"
#include "common/status.hpp"

namespace repro::clfront {

class Lexer {
 public:
  explicit Lexer(std::string source);

  /// Tokenize the whole input. Fails on unterminated comments or malformed
  /// literals; the error message carries the source location.
  [[nodiscard]] common::Result<std::vector<Token>> tokenize();

 private:
  std::string src_;
};

namespace detail {

/// Scanner state carried across chunk boundaries. Comments and preprocessor
/// lines can span many chunks; their bytes are consumed as they stream (the
/// pending buffer never has to hold a whole comment), so only the mode — and
/// for block comments whether the last consumed byte was '*' — survives.
enum class LexMode : std::uint8_t {
  kNormal,
  kLineComment,       // inside // …, ends at '\n'
  kPreprocessor,      // inside a column-1 # line, ends at '\n'
  kBlockComment,      // inside /* …, previous byte was not '*'
  kBlockCommentStar,  // inside /* …, previous byte was '*' ('/' closes)
};

/// Receives each token the moment the scanner commits it, so a streaming
/// caller never holds more tokens than it chooses to keep.
class TokenSink {
 public:
  virtual void accept(Token&& token) = 0;

 protected:
  ~TokenSink() = default;
};

struct ChunkLex {
  std::size_t consumed = 0;   ///< prefix of the window that can be discarded
  SourceLoc loc;              ///< source location just after `consumed`
  LexMode mode = LexMode::kNormal;
  std::optional<common::Error> error;  ///< first lexical error, if any
};

/// Lex as many complete tokens as the window allows, starting at `loc` in
/// `mode`, and hand each to `sink` in order. With `final == false` no token
/// touching the end of the window is committed (the next chunk could extend
/// an identifier, a literal, or a multi-character operator) — it stays in
/// the unconsumed tail. With `final == true` everything drains and
/// end-of-input errors (unterminated block comment) are reported. The kEof
/// token is never emitted; callers add it once the stream ends.
[[nodiscard]] ChunkLex lex_chunk(std::string_view text, SourceLoc loc, LexMode mode,
                                 bool final, TokenSink& sink);

}  // namespace detail

}  // namespace repro::clfront
