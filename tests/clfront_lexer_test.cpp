// Lexer tests: token kinds, literals with OpenCL suffixes, comments,
// operators and error reporting; the constant-time keyword and type-name
// lookups against the linear scans they replaced.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "clfront/lexer.hpp"
#include "clfront/types.hpp"
#include "kernels/kernels.hpp"

namespace rc = repro::clfront;

namespace {

std::vector<rc::Token> lex_ok(const std::string& src) {
  rc::Lexer lexer(src);
  auto tokens = lexer.tokenize();
  EXPECT_TRUE(tokens.ok()) << (tokens.ok() ? "" : tokens.error().message);
  return tokens.ok() ? std::move(tokens).take() : std::vector<rc::Token>{};
}

}  // namespace

TEST(LexerTest, EmptyInputYieldsEof) {
  const auto tokens = lex_ok("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kEof);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  const auto tokens = lex_ok("kernel void my_fn");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "kernel");
  EXPECT_EQ(tokens[1].kind, rc::TokenKind::kKeyword);
  EXPECT_EQ(tokens[2].kind, rc::TokenKind::kIdentifier);
  EXPECT_EQ(tokens[2].text, "my_fn");
}

TEST(LexerTest, IntegerLiterals) {
  const auto tokens = lex_ok("42 0x1F 7u 100UL");
  EXPECT_EQ(tokens[0].int_value, 42u);
  EXPECT_EQ(tokens[1].int_value, 31u);
  EXPECT_TRUE(tokens[2].is_unsigned);
  EXPECT_EQ(tokens[3].int_value, 100u);
}

TEST(LexerTest, FloatLiterals) {
  const auto tokens = lex_ok("1.5f 2.0 3e2 4.5e-1f .25f");
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kFloatLiteral);
  EXPECT_TRUE(tokens[0].is_float32);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 1.5);
  EXPECT_FALSE(tokens[1].is_float32);  // no 'f' suffix -> double
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 300.0);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, 0.45);
  EXPECT_DOUBLE_EQ(tokens[4].float_value, 0.25);
}

TEST(LexerTest, TrailingDotFloat) {
  const auto tokens = lex_ok("1.f");
  EXPECT_EQ(tokens[0].kind, rc::TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 1.0);
}

TEST(LexerTest, CommentsAreSkipped) {
  const auto tokens = lex_ok("a // line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(tokens.size(), 4u);  // a b c eof
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(LexerTest, PreprocessorLinesAreSkipped) {
  const auto tokens = lex_ok("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\nx");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "x");
}

TEST(LexerTest, MultiCharOperators) {
  const auto tokens = lex_ok("<< >> <= >= == != && || += -= <<= >>= ++ -- ->");
  const rc::TokenKind expected[] = {
      rc::TokenKind::kShl, rc::TokenKind::kShr, rc::TokenKind::kLe,
      rc::TokenKind::kGe, rc::TokenKind::kEq, rc::TokenKind::kNe,
      rc::TokenKind::kAmpAmp, rc::TokenKind::kPipePipe, rc::TokenKind::kPlusAssign,
      rc::TokenKind::kMinusAssign, rc::TokenKind::kShlAssign, rc::TokenKind::kShrAssign,
      rc::TokenKind::kPlusPlus, rc::TokenKind::kMinusMinus, rc::TokenKind::kArrow,
  };
  ASSERT_EQ(tokens.size(), std::size(expected) + 1);
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
  }
}

TEST(LexerTest, SourceLocationsTrackLinesAndColumns) {
  const auto tokens = lex_ok("a\n  b");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[1].loc.column, 3);
}

TEST(LexerTest, UnterminatedBlockCommentFails) {
  rc::Lexer lexer("a /* never closed");
  EXPECT_FALSE(lexer.tokenize().ok());
}

TEST(LexerTest, UnexpectedCharacterFails) {
  rc::Lexer lexer("int a = $;");
  const auto result = lexer.tokenize();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("unexpected character"), std::string::npos);
}

TEST(LexerTest, MalformedExponentFails) {
  rc::Lexer lexer("1e+");
  EXPECT_FALSE(lexer.tokenize().ok());
}

TEST(LexerTest, KeywordPredicate) {
  EXPECT_TRUE(rc::is_keyword("__global"));
  EXPECT_TRUE(rc::is_keyword("float"));
  EXPECT_FALSE(rc::is_keyword("float4"));  // type *names* are contextual
  EXPECT_FALSE(rc::is_keyword("banana"));
}

// --- keyword and type-name lookups vs the linear scans they replaced ----------

namespace {

constexpr std::array kOracleKeywords = {
    "kernel",   "__kernel",   "global",   "__global", "local",    "__local",
    "constant", "__constant", "private",  "__private", "const",   "restrict",
    "volatile", "void",       "bool",     "char",     "uchar",    "short",
    "ushort",   "int",        "uint",     "long",     "ulong",    "float",
    "double",   "half",       "size_t",   "if",       "else",     "for",
    "while",    "do",         "return",   "break",    "continue", "struct",
    "unsigned", "signed",
};

constexpr std::array<std::pair<const char*, rc::ScalarKind>, 13> kOracleScalars = {{
    {"void", rc::ScalarKind::kVoid},
    {"bool", rc::ScalarKind::kBool},
    {"char", rc::ScalarKind::kChar},
    {"uchar", rc::ScalarKind::kUChar},
    {"short", rc::ScalarKind::kShort},
    {"ushort", rc::ScalarKind::kUShort},
    {"int", rc::ScalarKind::kInt},
    {"uint", rc::ScalarKind::kUInt},
    {"long", rc::ScalarKind::kLong},
    {"ulong", rc::ScalarKind::kULong},
    {"float", rc::ScalarKind::kFloat},
    {"double", rc::ScalarKind::kDouble},
    {"half", rc::ScalarKind::kHalf},
}};

/// The lexer's former keyword test: one comparison per reserved word.
bool oracle_is_keyword(const std::string& word) {
  for (const char* k : kOracleKeywords) {
    if (word == k) return true;
  }
  return false;
}

/// The former parse_type_name, which built a string per candidate.
std::optional<rc::Type> oracle_parse_type_name(const std::string& name) {
  if (name == "size_t") {
    return rc::Type{rc::ScalarKind::kULong, 1, false, rc::AddressSpace::kPrivate};
  }
  if (name == "unsigned") return rc::Type::uint_type();
  for (const auto& [base, kind] : kOracleScalars) {
    const std::string base_s(base);
    if (name == base_s) return rc::Type{kind, 1, false, rc::AddressSpace::kPrivate};
    if (name.size() > base_s.size() && name.compare(0, base_s.size(), base_s) == 0) {
      const std::string suffix = name.substr(base_s.size());
      int width = 0;
      if (suffix == "2") width = 2;
      else if (suffix == "3") width = 3;
      else if (suffix == "4") width = 4;
      else if (suffix == "8") width = 8;
      else if (suffix == "16") width = 16;
      if (width != 0 && kind != rc::ScalarKind::kVoid && kind != rc::ScalarKind::kBool) {
        return rc::Type{kind, width, false, rc::AddressSpace::kPrivate};
      }
    }
  }
  return std::nullopt;
}

/// Every identifier and keyword spelled in the sources the repo featurizes:
/// the paper's test suite, every benchgen pattern, and a many-function
/// source like the serving benchmark's large requests.
std::set<std::string> corpus_words() {
  std::vector<std::string> sources;
  for (const auto& bench : repro::kernels::test_suite()) sources.push_back(bench.source);
  for (std::size_t p = 0; p < repro::benchgen::kNumPatterns; ++p) {
    for (int e = 0; e < repro::benchgen::kIntensityLevels; ++e) {
      sources.push_back(
          repro::benchgen::pattern_source(static_cast<repro::benchgen::Pattern>(p), e));
    }
  }
  std::string chain = "kernel void chain(global float* x) { float v = x[get_global_id(0)];";
  for (int i = 0; i < 600; ++i) {
    chain += " v = helper" + std::to_string(i) + "(v) * native_sin(v);";
  }
  sources.push_back(chain + " }");
  std::set<std::string> words;
  for (const auto& source : sources) {
    for (const auto& token : lex_ok(source)) {
      if (token.kind == rc::TokenKind::kIdentifier ||
          token.kind == rc::TokenKind::kKeyword) {
        words.insert(token.text);
      }
    }
  }
  return words;
}

/// The words the lookups must agree on (see LookupsMatchTheLinearScans).
std::vector<std::string> lookup_probes() {
  const std::set<std::string> corpus = corpus_words();
  std::vector<std::string> probes(corpus.begin(), corpus.end());
  std::vector<std::string> seeds(kOracleKeywords.begin(), kOracleKeywords.end());
  for (const auto& [base, kind] : kOracleScalars) {
    seeds.emplace_back(base);
    for (int suffix = 0; suffix <= 17; ++suffix) {
      probes.push_back(base + std::to_string(suffix));
    }
    probes.push_back(base + std::string("32"));
  }
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
  for (const auto& seed : seeds) {
    probes.push_back(seed);
    for (std::size_t i = 0; i <= seed.size(); ++i) {
      for (const char c : alphabet) {
        probes.push_back(seed.substr(0, i) + c + seed.substr(i));  // added
        if (i < seed.size()) {
          std::string changed = seed;
          changed[i] = c;
          probes.push_back(changed);
        }
      }
      if (i < seed.size()) {
        probes.push_back(seed.substr(0, i) + seed.substr(i + 1));  // removed
      }
    }
  }
  for (const char* word :
       {"size_t", "unsigned", "signed", "sizeof", "kernel_", "__kernel"}) {
    probes.emplace_back(word);
  }
  probes.emplace_back();
  probes.emplace_back(64, 'k');
  return probes;
}

}  // namespace

TEST(KeywordLookupTest, LookupsMatchTheLinearScans) {
  const auto probes = lookup_probes();
  EXPECT_GT(probes.size(), 30000u);
  for (const auto& word : probes) {
    EXPECT_EQ(rc::keyword_of(word) != rc::Keyword::kNone, oracle_is_keyword(word))
        << "'" << word << "'";
    EXPECT_EQ(rc::parse_type_name(word), oracle_parse_type_name(word))
        << "'" << word << "'";
  }
}

TEST(KeywordLookupTest, PrefixedSpellingsShareTheirKeywordId) {
  // Ids are equal exactly when the spellings are equal once a leading "__"
  // is dropped ("__global" and "global" are the same keyword).
  const auto plain = [](std::string word) {
    return word.rfind("__", 0) == 0 ? word.substr(2) : word;
  };
  for (const char* a : kOracleKeywords) {
    for (const char* b : kOracleKeywords) {
      EXPECT_EQ(rc::keyword_of(a) == rc::keyword_of(b), plain(a) == plain(b))
          << a << " vs " << b;
    }
  }
}

TEST(KeywordLookupTest, LexerRecordsTheKeywordId) {
  const auto tokens = lex_ok("__kernel kernel unsigned float4 if_ while");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[0].keyword, rc::Keyword::kKernel);
  EXPECT_EQ(tokens[0].text, "__kernel");
  EXPECT_EQ(tokens[1].keyword, rc::Keyword::kKernel);
  EXPECT_EQ(tokens[2].keyword, rc::Keyword::kUnsigned);
  EXPECT_EQ(tokens[3].kind, rc::TokenKind::kIdentifier);
  EXPECT_EQ(tokens[3].keyword, rc::Keyword::kNone);
  EXPECT_EQ(tokens[4].keyword, rc::Keyword::kNone);
  EXPECT_EQ(tokens[5].keyword, rc::Keyword::kWhile);
  EXPECT_EQ(tokens[6].keyword, rc::Keyword::kNone);  // eof
}
