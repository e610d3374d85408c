// Streaming featurization of OpenCL-C source: feed a multi-megabyte kernel
// file in chunks of any size and get the same static features — bit for bit
// — as the whole-string path (extract_features_from_source).
//
//   SourceFeeder feeder;
//   while (auto chunk = read_more())
//     if (auto st = feeder.feed(*chunk); !st.ok()) ...;
//   if (auto st = feeder.finish(); !st.ok()) ...;
//   auto features = feeder.features("my_kernel");
//
// How bounded memory is achieved:
//  * the chunk lexer (clfront/lexer.hpp, detail::lex_chunk) lexes the
//    caller's chunk in place and consumes comments and preprocessor lines
//    as they stream; only the bytes of a possibly-incomplete trailing token
//    are copied into the pending buffer;
//  * the lexer hands over each token as it is recognized; tokens are grouped
//    into top-level functions by brace depth, and each function is parsed,
//    lowered, and collapsed into a FunctionSummary (10 local feature counts +
//    the ordered callee list) the moment its closing brace arrives — the
//    feeder holds one open function's tokens, and tokens, AST, and IR never
//    outlive the function;
//  * cross-function call resolution (the static analogue of inlining that
//    extract_features performs over the whole IrModule) runs over the
//    summaries at finish(), when every signature has been seen. A function
//    whose callee is not yet defined (a forward reference) keeps its AST
//    until finish() — the only case that buffers more than one function.
//
// Why the result is bit-identical: feature counts are sums of integer
// instruction widths, exact in binary64 far beyond any real source size, so
// summing per-function first and across calls later reproduces the
// interleaved whole-module accumulation exactly. Error reporting keeps the
// whole-string precedence (first lexical error, else first parse error,
// else first lowering error in declaration order).
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clfront/ast.hpp"
#include "clfront/features.hpp"
#include "clfront/lexer.hpp"
#include "clfront/lower.hpp"
#include "common/status.hpp"

namespace repro::clfront {

struct StreamOptions {
  /// Hard input budget; feeding more fails with a parse error. Protects the
  /// serving path from unbounded request bodies. (The recursion budgets are
  /// kMaxNestingDepth in parser.hpp and kMaxCallDepth in features.hpp.)
  std::size_t max_source_bytes = 64u << 20;
};

/// Per-kernel/per-function feature accumulator, finalized at function end:
/// the local width-weighted counts plus every user-call site in instruction
/// order. Cross-function resolution happens over these, not over IR.
struct FunctionSummary {
  std::string name;
  bool is_kernel = false;
  std::array<double, kNumFeatures> counts{};
  std::vector<std::string> calls;
};

class SourceFeeder : private detail::TokenSink {
 public:
  explicit SourceFeeder(StreamOptions options = {});

  /// Append the next chunk of source; chunk boundaries may fall anywhere
  /// (mid-token, mid-comment, mid-escape). Returns the sticky stream error,
  /// if one has been detected, so callers may stop early — feeding after an
  /// error is harmless and ignored.
  common::Status feed(std::string_view chunk);

  /// Declare end of input, resolve deferred functions, and settle the
  /// stream verdict. Must be called exactly once; feed() is invalid after.
  common::Status finish();

  /// Features of `kernel` (first __kernel function when empty), resolved
  /// across every function of the stream — bit-identical to
  /// extract_features_from_source on the concatenated input. Requires
  /// finish().
  [[nodiscard]] common::Result<StaticFeatures> features(
      const std::string& kernel = {}) const;

  /// Features of every kernel, in declaration order. Requires finish().
  [[nodiscard]] common::Result<std::vector<StaticFeatures>> kernel_features() const;

  [[nodiscard]] std::size_t bytes_fed() const noexcept { return bytes_fed_; }
  /// High-water mark of the unconsumed tail kept between feed() calls (a
  /// partial trailing token) — the observable "bounded memory" part of the
  /// contract (the open function's tokens and deferred forward-reference
  /// ASTs come on top).
  [[nodiscard]] std::size_t peak_pending_bytes() const noexcept {
    return peak_pending_bytes_;
  }

 private:
  /// A function whose callee was not declared when it closed (maybe a
  /// forward reference): its AST waits for finish(), and its summary slot
  /// holds a placeholder until then.
  struct Deferred {
    std::size_t slot;
    FunctionDecl fn;
  };

  /// Lex `window` from the saved position and mode; returns the consumed
  /// prefix. A lexical error lands in lex_error_.
  std::size_t lex(std::string_view window, bool final);
  void accept(Token&& token) override;
  void complete_function(SourceLoc eof_loc);
  void absorb_function(FunctionDecl fn);
  common::Result<StaticFeatures> resolve(const FunctionSummary& target) const;

  StreamOptions options_;
  std::string pending_;
  SourceLoc loc_{};
  detail::LexMode mode_ = detail::LexMode::kNormal;
  std::vector<Token> fn_tokens_;  // the open function's; capacity is reused
  int brace_depth_ = 0;
  LowerSession session_;
  // One summary per function in declaration order, settled by finish().
  // Deques, so that neither grows as one block with the source.
  std::deque<FunctionSummary> summaries_;
  std::deque<Deferred> deferred_;
  std::optional<common::Error> lex_error_;    // outranks everything
  std::optional<common::Error> parse_error_;  // outranks lowering errors
  std::optional<common::Error> lower_error_;  // later lowering is skipped
  std::optional<common::Error> final_error_;  // the stream verdict
  bool finished_ = false;
  std::size_t bytes_fed_ = 0;
  std::size_t peak_pending_bytes_ = 0;
};

/// Convenience for tests and benchmarks: featurize `source` fed in
/// `chunk_size`-byte pieces. Equal to extract_features_from_source for every
/// chunk size ≥ 1 — the chunk-size-invariance contract of
/// docs/DETERMINISM.md.
[[nodiscard]] common::Result<StaticFeatures> extract_features_chunked(
    std::string_view source, std::size_t chunk_size, const std::string& kernel = {},
    StreamOptions options = {});

}  // namespace repro::clfront
