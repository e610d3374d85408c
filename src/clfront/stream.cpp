#include "clfront/stream.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "clfront/parser.hpp"

namespace repro::clfront {

namespace {

/// Collapse one lowered function into its feature summary: local
/// width-weighted counts plus the callee of every kCall site in instruction
/// order. Counts are sums of integer widths — exact in binary64 — so adding
/// them per-function first and across calls later reproduces the
/// whole-module accumulation of extract_features bit for bit.
FunctionSummary summarize(const IrFunction& ir) {
  FunctionSummary summary;
  summary.name = ir.name;
  summary.is_kernel = ir.is_kernel;
  for (const auto& inst : ir.body) {
    if (const auto f = feature_index(inst.op)) {
      summary.counts[static_cast<std::size_t>(*f)] += static_cast<double>(inst.width);
    } else if (inst.op == Opcode::kCall) {
      summary.calls.push_back(inst.detail);
    }
  }
  return summary;
}

const FunctionSummary* find_summary(const std::deque<FunctionSummary>& all,
                                    const std::string& name) {
  for (const auto& s : all) {
    if (s.name == name) return &s;  // first definition wins, like IrModule::find
  }
  return nullptr;
}

/// The summary-level twin of features.cpp's accumulate(): same call order,
/// same cycle guard, same depth budget, same error messages.
common::Status accumulate_summary(const std::deque<FunctionSummary>& all,
                                  const FunctionSummary& fn,
                                  std::array<double, kNumFeatures>& counts,
                                  std::set<std::string>& call_chain) {
  if (call_chain.size() >= kMaxCallDepth) {
    return common::internal_error("call chain exceeds the depth budget of " +
                                  std::to_string(kMaxCallDepth) + " at '" + fn.name +
                                  "'");
  }
  if (!call_chain.insert(fn.name).second) {
    return common::internal_error("recursive call chain through '" + fn.name + "'");
  }
  for (std::size_t i = 0; i < kNumFeatures; ++i) counts[i] += fn.counts[i];
  for (const auto& callee_name : fn.calls) {
    const FunctionSummary* callee = find_summary(all, callee_name);
    if (callee == nullptr) {
      return common::not_found("callee '" + callee_name + "' not in module");
    }
    if (auto st = accumulate_summary(all, *callee, counts, call_chain); !st.ok()) {
      return st;
    }
  }
  call_chain.erase(fn.name);
  return common::Status::Ok();
}

}  // namespace

SourceFeeder::SourceFeeder(StreamOptions options) : options_(options) {}

common::Status SourceFeeder::feed(std::string_view chunk) {
  if (finished_) {
    return common::invalid_argument("SourceFeeder: feed after finish");
  }
  bytes_fed_ += chunk.size();
  if (!lex_error_.has_value() && bytes_fed_ > options_.max_source_bytes) {
    lex_error_ = common::parse_error(
        "SourceFeeder: source exceeds the max_source_bytes budget (" +
        std::to_string(options_.max_source_bytes) + ")");
  }
  if (lex_error_.has_value()) return *lex_error_;  // sticky; input discarded

  // A token cut by the previous chunk boundary: join its bytes with only as
  // much of this chunk as it takes to finish it (doubling, so a long token
  // costs linear copying). Once the carried bytes are consumed, the rest of
  // the window is this chunk's, and lexing goes on in place.
  while (!pending_.empty() && !chunk.empty()) {
    const std::size_t carried = pending_.size();
    const std::size_t take = std::min(chunk.size(), std::max<std::size_t>(carried, 64));
    pending_.append(chunk.substr(0, take));
    const std::size_t consumed = lex(pending_, /*final=*/false);
    if (lex_error_.has_value()) return *lex_error_;
    if (consumed >= carried) {
      pending_.clear();
      chunk.remove_prefix(consumed - carried);
      break;
    }
    pending_.erase(0, consumed);
    chunk.remove_prefix(take);
  }
  if (!chunk.empty()) {
    const std::size_t consumed = lex(chunk, /*final=*/false);
    if (lex_error_.has_value()) return *lex_error_;
    pending_.assign(chunk.substr(consumed));
  }
  peak_pending_bytes_ = std::max(peak_pending_bytes_, pending_.size());
  return common::Status::Ok();
}

std::size_t SourceFeeder::lex(std::string_view window, bool final) {
  auto out = detail::lex_chunk(window, loc_, mode_, final, *this);
  loc_ = out.loc;
  mode_ = out.mode;
  if (out.error.has_value()) lex_error_ = std::move(out.error);
  return out.consumed;
}

common::Status SourceFeeder::finish() {
  if (finished_) {
    return final_error_.has_value() ? common::Status(*final_error_)
                                    : common::Status::Ok();
  }
  finished_ = true;

  // Drain the pending tail (final = true: the last token commits, and an
  // unterminated block comment is now an error, as in one-shot lexing).
  if (!lex_error_.has_value()) (void)lex(pending_, /*final=*/true);
  pending_.clear();
  pending_.shrink_to_fit();

  // Tokens that never reached a balanced top-level '}' — an unterminated
  // function or trailing garbage. Parse them so the verdict (and message)
  // matches what the whole-string parser would say.
  if (!lex_error_.has_value() && !parse_error_.has_value() && !fn_tokens_.empty()) {
    complete_function(loc_);
  }
  fn_tokens_ = {};

  // Settle the verdict with whole-string precedence: lexing runs first over
  // the entire input, then parsing, then lowering in declaration order.
  if (lex_error_.has_value()) {
    final_error_ = lex_error_;
  } else if (parse_error_.has_value()) {
    final_error_ = parse_error_;
  } else {
    // Forward references: every signature of the stream is declared by now,
    // so each either lowers or is a genuine unknown callee. All of them come
    // before the first eager lowering error (lowering stops there), so the
    // first failure among them outranks it. The kNotFound deferral sentinel
    // must not escape — at this boundary an unknown callee is invalid
    // source, matching lower_to_ir.
    for (auto& deferred : deferred_) {
      auto ir = session_.lower(deferred.fn);
      if (!ir.ok()) {
        common::Error error = ir.error();
        if (error.code == common::ErrorCode::kNotFound) {
          error.code = common::ErrorCode::kParseError;
        }
        final_error_ = std::move(error);
        break;
      }
      summaries_[deferred.slot] = summarize(ir.value());
    }
    if (!final_error_.has_value()) final_error_ = lower_error_;
  }
  deferred_.clear();
  return final_error_.has_value() ? common::Status(*final_error_)
                                  : common::Status::Ok();
}

void SourceFeeder::accept(Token&& token) {
  // After a parse error the verdict is fixed; tokens are only scanned (for
  // lexical errors, found by the lexer itself), never stored.
  if (parse_error_.has_value()) return;
  const TokenKind kind = token.kind;
  fn_tokens_.push_back(std::move(token));
  if (kind == TokenKind::kLBrace) {
    ++brace_depth_;
  } else if (kind == TokenKind::kRBrace && brace_depth_ > 0 && --brace_depth_ == 0) {
    // A top-level function just closed: parse + lower + summarize it now and
    // release its tokens — the core of the bounded-memory contract. Its
    // end-of-input token is never reported: the parser stops at the '}'.
    complete_function(fn_tokens_.back().loc);
  }
}

void SourceFeeder::complete_function(SourceLoc eof_loc) {
  Token eof;
  eof.kind = TokenKind::kEof;
  eof.loc = eof_loc;
  fn_tokens_.push_back(std::move(eof));
  auto unit = Parser(fn_tokens_).parse_translation_unit();
  fn_tokens_.clear();
  if (!unit.ok()) {
    parse_error_ = unit.error();
    return;
  }
  for (auto& fn : unit.value().functions) absorb_function(std::move(fn));
}

void SourceFeeder::absorb_function(FunctionDecl fn) {
  session_.declare(fn);
  if (lower_error_.has_value()) return;  // later lowering cannot outrank it
  auto ir = session_.lower(fn);
  if (ir.ok()) {
    summaries_.push_back(summarize(ir.value()));
  } else if (ir.error().code == common::ErrorCode::kNotFound) {
    // A callee not declared yet — maybe a forward reference. Keep the AST
    // and retry at finish(), when the whole stream has been declared.
    deferred_.push_back({summaries_.size(), std::move(fn)});
    summaries_.emplace_back();
  } else {
    lower_error_ = ir.error();
  }
}

common::Result<StaticFeatures> SourceFeeder::features(const std::string& kernel) const {
  if (!finished_) {
    return common::invalid_argument("SourceFeeder: features() before finish()");
  }
  if (final_error_.has_value()) return *final_error_;
  const FunctionSummary* target = nullptr;
  if (kernel.empty()) {
    for (const auto& s : summaries_) {
      if (s.is_kernel) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      return common::not_found("module contains no kernel function");
    }
  } else {
    target = find_summary(summaries_, kernel);
    if (target == nullptr) {
      return common::not_found("kernel '" + kernel + "' not in module");
    }
  }
  return resolve(*target);
}

common::Result<std::vector<StaticFeatures>> SourceFeeder::kernel_features() const {
  if (!finished_) {
    return common::invalid_argument("SourceFeeder: kernel_features() before finish()");
  }
  if (final_error_.has_value()) return *final_error_;
  std::vector<StaticFeatures> out;
  for (const auto& s : summaries_) {
    if (!s.is_kernel) continue;
    auto features = resolve(s);
    if (!features.ok()) return features.error();
    out.push_back(std::move(features).take());
  }
  return out;
}

common::Result<StaticFeatures> SourceFeeder::resolve(
    const FunctionSummary& target) const {
  StaticFeatures features;
  features.kernel_name = target.name;
  std::set<std::string> chain;
  if (auto st = accumulate_summary(summaries_, target, features.counts, chain);
      !st.ok()) {
    return st.error();
  }
  return features;
}

common::Result<StaticFeatures> extract_features_chunked(std::string_view source,
                                                        std::size_t chunk_size,
                                                        const std::string& kernel,
                                                        StreamOptions options) {
  if (chunk_size == 0) {
    return common::invalid_argument("extract_features_chunked: chunk_size must be > 0");
  }
  SourceFeeder feeder(options);
  for (std::size_t offset = 0; offset < source.size(); offset += chunk_size) {
    if (auto st = feeder.feed(source.substr(offset, chunk_size)); !st.ok()) {
      return st.error();
    }
  }
  if (auto st = feeder.finish(); !st.ok()) return st.error();
  return feeder.features(kernel);
}

}  // namespace repro::clfront
