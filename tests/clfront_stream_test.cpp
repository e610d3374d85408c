// Streaming featurization: the chunk-size-invariance contract. Feeding a
// source through SourceFeeder in chunks of ANY size — including one byte at
// a time — must produce bit-identical features, the same kernel set, and
// the same errors as the whole-string path (extract_features_from_source).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "clfront/features.hpp"
#include "clfront/parser.hpp"
#include "clfront/stream.hpp"
#include "kernels/kernels.hpp"

namespace rcl = repro::clfront;
namespace rc = repro::common;

namespace {

/// A workout for the lexer and the function splitter: comments (line/block,
/// some spanning lines), a preprocessor line, float/hex/suffixed literals,
/// vector literals, helpers called before AND after their definition, and
/// two kernels.
const char* kMultiKernelSource = R"CL(
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
// scale by a constant /* not a block comment opener inside a line comment
float helper_before(float v) { return v * 2.0f + 1.0e-3f; }

kernel void first_kernel(global float* x, global float* y, int n) {
  int gid = get_global_id(0);
  /* block
     comment */
  float a = helper_before(x[gid]);
  float b = helper_after(a);        // forward reference
  float4 v = (float4)(a, b, 0.5f, 1.25f);
  y[gid] = dot(v, v) + native_sin(a) / (b + 0x10);
}

float helper_after(float v) { return v - 3u; }

kernel void second_kernel(global int* z) {
  int gid = get_global_id(0);
  for (int i = 0; i < 8; i++) z[gid] = z[gid] << 1 | (z[gid] & 1);
}
)CL";

bool features_bitwise_equal(const rcl::StaticFeatures& a, const rcl::StaticFeatures& b) {
  return a.kernel_name == b.kernel_name &&
         std::memcmp(a.counts.data(), b.counts.data(),
                     sizeof(double) * rcl::kNumFeatures) == 0;
}

}  // namespace

TEST(SourceFeederTest, ChunkSizeInvariance) {
  const std::string source = kMultiKernelSource;
  for (const char* kernel : {"", "first_kernel", "second_kernel"}) {
    const auto whole = rcl::extract_features_from_source(source, kernel);
    ASSERT_TRUE(whole.ok()) << whole.error().message;
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                    std::size_t{5}, std::size_t{7}, std::size_t{64},
                                    std::size_t{4096}, source.size()}) {
      const auto streamed = rcl::extract_features_chunked(source, chunk, kernel);
      ASSERT_TRUE(streamed.ok())
          << "chunk=" << chunk << ": " << streamed.error().message;
      EXPECT_TRUE(features_bitwise_equal(whole.value(), streamed.value()))
          << "chunk=" << chunk << " kernel='" << kernel << "'\nwhole:    "
          << whole.value().to_string() << "\nstreamed: "
          << streamed.value().to_string();
    }
  }
}

TEST(SourceFeederTest, KernelFeaturesListsKernelsInOrder) {
  rcl::SourceFeeder feeder;
  ASSERT_TRUE(feeder.feed(kMultiKernelSource).ok());
  ASSERT_TRUE(feeder.finish().ok());
  const auto kernels = feeder.kernel_features();
  ASSERT_TRUE(kernels.ok()) << kernels.error().message;
  ASSERT_EQ(kernels.value().size(), 2u);
  EXPECT_EQ(kernels.value()[0].kernel_name, "first_kernel");
  EXPECT_EQ(kernels.value()[1].kernel_name, "second_kernel");
  const auto whole = rcl::extract_features_from_source(kMultiKernelSource,
                                                       "second_kernel");
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(features_bitwise_equal(whole.value(), kernels.value()[1]));
}

TEST(SourceFeederTest, PendingBufferStaysBoundedOnLargeInput) {
  // 400 small functions, each complete: the feeder must summarize and
  // release them as they stream — the pending buffer never holds more than
  // a chunk plus one unfinished token, and never the whole source.
  std::string source;
  for (int i = 0; i < 400; ++i) {
    source += "float fn" + std::to_string(i) + "(float v) { return v * " +
              std::to_string(i) + ".5f; /* filler comment to fatten the source " +
              std::string(64, 'x') + " */ }\n";
  }
  source += "kernel void big(global float* x) { x[0] = fn399(fn0(x[0])); }\n";

  rcl::SourceFeeder feeder;
  constexpr std::size_t kChunk = 256;
  for (std::size_t off = 0; off < source.size(); off += kChunk) {
    ASSERT_TRUE(feeder.feed(std::string_view(source).substr(off, kChunk)).ok());
  }
  ASSERT_TRUE(feeder.finish().ok());
  EXPECT_EQ(feeder.bytes_fed(), source.size());
  EXPECT_LT(feeder.peak_pending_bytes(), std::size_t{2048});

  const auto whole = rcl::extract_features_from_source(source);
  const auto streamed = feeder.features();
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(streamed.ok()) << streamed.error().message;
  EXPECT_TRUE(features_bitwise_equal(whole.value(), streamed.value()));
}

TEST(SourceFeederTest, ErrorParityWithWholeStringPath) {
  // Lexical, parse, lowering, kernel-lookup, and cycle errors must agree
  // with the whole-string path — same code, same message — at any chunking.
  const struct Case {
    const char* name;
    const char* source;
  } cases[] = {
      {"lex_unterminated_comment", "kernel void f(global int* x) { x[0] = 1; } /* oops"},
      {"lex_bad_char", "kernel void f(global int* x) { x[0] = 1 @ 2; }"},
      {"parse_missing_paren", "kernel void f(global int* x { x[0] = 1; }"},
      {"lower_unknown_call", "kernel void f(global int* x) { x[0] = nosuch(1); }"},
      {"lower_undeclared_var", "kernel void f(global int* x) { x[0] = y; }"},
      {"recursive_chain",
       "float a(float v) { return b(v); } float b(float v) { return a(v); } "
       "kernel void f(global float* x) { x[0] = a(x[0]); }"},
  };
  for (const auto& c : cases) {
    const auto whole = rcl::extract_features_from_source(c.source);
    ASSERT_FALSE(whole.ok()) << c.name;
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{9}, std::size_t{1024}}) {
      const auto streamed = rcl::extract_features_chunked(c.source, chunk);
      ASSERT_FALSE(streamed.ok()) << c.name << " chunk=" << chunk;
      EXPECT_EQ(static_cast<int>(streamed.error().code),
                static_cast<int>(whole.error().code))
          << c.name << " chunk=" << chunk;
      EXPECT_EQ(streamed.error().message, whole.error().message)
          << c.name << " chunk=" << chunk;
    }
  }
}

TEST(SourceFeederTest, UnknownKernelNameMatchesWholeString) {
  const auto whole =
      rcl::extract_features_from_source(kMultiKernelSource, "missing_kernel");
  const auto streamed =
      rcl::extract_features_chunked(kMultiKernelSource, 16, "missing_kernel");
  ASSERT_FALSE(whole.ok());
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.error().message, whole.error().message);
  // And a helper is findable by name but is not a kernel — both paths
  // resolve it (extract_features allows any function by name).
  const auto helper_whole =
      rcl::extract_features_from_source(kMultiKernelSource, "helper_after");
  const auto helper_streamed =
      rcl::extract_features_chunked(kMultiKernelSource, 16, "helper_after");
  ASSERT_TRUE(helper_whole.ok());
  ASSERT_TRUE(helper_streamed.ok());
  EXPECT_TRUE(features_bitwise_equal(helper_whole.value(), helper_streamed.value()));
}

TEST(SourceFeederTest, SourceBudgetIsEnforced) {
  rcl::StreamOptions options;
  options.max_source_bytes = 64;
  rcl::SourceFeeder feeder(options);
  const std::string big(65, ' ');
  const auto st = feeder.feed(big);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, rc::ErrorCode::kParseError);
  // The error is sticky: finish() and features() report it too.
  EXPECT_FALSE(feeder.finish().ok());
  EXPECT_FALSE(feeder.features().ok());
}

TEST(SourceFeederTest, FeedAfterFinishIsRejected) {
  rcl::SourceFeeder feeder;
  ASSERT_TRUE(feeder.feed("kernel void f(global int* x) { x[0] = 1; }").ok());
  ASSERT_TRUE(feeder.finish().ok());
  EXPECT_FALSE(feeder.feed("more").ok());
  EXPECT_TRUE(feeder.finish().ok());  // idempotent verdict
}

TEST(SourceFeederTest, FeaturesBeforeFinishIsRejected) {
  rcl::SourceFeeder feeder;
  ASSERT_TRUE(feeder.feed("kernel void f(global int* x) { x[0] = 1; }").ok());
  EXPECT_FALSE(feeder.features().ok());
}

// --- parser hardening (deep nesting must be a parse error, not a crash) ------

TEST(ParserDepthBudgetTest, DeeplyNestedParensFailGracefully) {
  const std::string deep(4096, '(');
  const std::string source = "kernel void f(global float* x) { x[0] = " + deep +
                             "1.0f" + std::string(4096, ')') + "; }";
  const auto result = rcl::extract_features_from_source(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);
  EXPECT_NE(result.error().message.find("depth budget"), std::string::npos);
  // The streamed path reports the identical error.
  const auto streamed = rcl::extract_features_chunked(source, 37);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.error().message, result.error().message);
}

TEST(ParserDepthBudgetTest, DeeplyNestedBracesFailGracefully) {
  std::string source = "kernel void f(global float* x) ";
  source += std::string(4096, '{');
  source += "x[0] = 1.0f;";
  source += std::string(4096, '}');
  const auto result = rcl::extract_features_from_source(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);
  EXPECT_NE(result.error().message.find("depth budget"), std::string::npos);
}

TEST(ParserDepthBudgetTest, ModerateNestingStillParses) {
  const int depth = rcl::kMaxNestingDepth / 4;
  const std::string source = "kernel void f(global float* x) { x[0] = " +
                             std::string(depth, '(') + "1.0f" +
                             std::string(depth, ')') + "; }";
  EXPECT_TRUE(rcl::extract_features_from_source(source).ok());
}

// --- the featurization record -------------------------------------------------
//
// ChunkSizeInvariance and ErrorParityWithWholeStringPath compare the feeder
// with the whole-string path. Both run the same lexer and parser, so a change
// that moved a feature or a message on both paths alike would pass them.
// This record pins the bytes themselves: the features of every source the
// repo featurizes (the paper's test suite, every benchgen pattern at every
// intensity, and four ~50 KB many-function sources shaped like the serving
// benchmark's large requests) at chunk sizes 1, 7, 4,096 and whole, plus the
// exact message of each kind of malformed input.

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv1a(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
}

/// Many small helpers and one kernel, `chain`, that calls every seventh.
std::string chain_source(std::size_t bytes, std::size_t variant) {
  std::string source;
  std::size_t n = 0;
  const std::string k = std::to_string(variant);
  while (source.size() < bytes) {
    const std::string id = std::to_string(n++);
    source += "float helper" + id + "(float v) { /* synthetic filler " + id +
              " */ return v * " + id + "." + k + "5f + native_sin(v) - " + id + "; }\n";
  }
  source += "kernel void chain(global float* x) {\n  float v = x[get_global_id(0)];\n";
  for (std::size_t i = 0; i < n; i += 7) {
    source += "  v = helper" + std::to_string(i) + "(v);\n";
  }
  source += "  x[get_global_id(0)] = v;\n}\n";
  return source;
}

struct PinSource {
  std::string name;
  std::string source;
  std::string kernel;
};

std::vector<PinSource> pin_corpus() {
  std::vector<PinSource> corpus;
  for (const auto& bench : repro::kernels::test_suite()) {
    corpus.push_back({bench.name, bench.source, bench.kernel_name});
  }
  for (std::size_t p = 0; p < repro::benchgen::kNumPatterns; ++p) {
    const auto pattern = static_cast<repro::benchgen::Pattern>(p);
    for (int e = 0; e < repro::benchgen::kIntensityLevels; ++e) {
      corpus.push_back({std::string(repro::benchgen::pattern_name(pattern)) + "^" +
                            std::to_string(e),
                        repro::benchgen::pattern_source(pattern, e),
                        {}});
    }
  }
  for (std::size_t v = 0; v < 4; ++v) {
    corpus.push_back({"chain" + std::to_string(v), chain_source(50 * 1024, v), "chain"});
  }
  return corpus;
}

void digest_result(std::uint64_t& hash, const rc::Result<rcl::StaticFeatures>& result) {
  if (!result.ok()) {
    const int code = static_cast<int>(result.error().code);
    fnv1a(hash, &code, sizeof(code));
    fnv1a(hash, result.error().message.data(), result.error().message.size());
    return;
  }
  const std::string text = result.value().to_string();
  fnv1a(hash, text.data(), text.size());
  fnv1a(hash, result.value().counts.data(), sizeof(double) * rcl::kNumFeatures);
}

/// Per-source digests over the four chunk sizes, in pin_corpus() order:
/// they only name the first source that moved when the record fails.
constexpr std::array<std::uint64_t, 106> kPinnedSourceDigests = {{
    0xaaa0e9ad15324605ull, 0x4448a4cca7f81941ull, 0xdb16f45ecf91fc51ull,
    0x3930a3297aa997a1ull, 0xbd4871373b64366dull, 0x913566eb2d11e7a1ull,
    0x940b0426e092d745ull, 0xcf7261522aae0025ull, 0x5b0000b2f9a84761ull,
    0x83ee893b3603cdb5ull, 0x42435f76bbee0811ull, 0x34901594a5cdaafdull,
    0xa61d0364ed0e7bf1ull, 0x2a055cfdf0108299ull, 0xad862841c5ed910dull,
    0x7809add85ba07e1dull, 0x9b000353a9a0ff05ull, 0xf82a3d36caa80aedull,
    0xa73761aa5c027335ull, 0xc8d6716749ddf109ull, 0xaa92e27cad8b4251ull,
    0x4c5857af2ebb6941ull, 0x1e367ed577c6d3a5ull, 0x559c8999a1f2d649ull,
    0x488b4568ab5ca6a5ull, 0x3682e3147a768405ull, 0xa3b6cba239825695ull,
    0x76ed592db3b21685ull, 0x9d7a2e52d12df321ull, 0x4403ab8076d41a45ull,
    0x230dbde89ae687a5ull, 0xe14eb0f5d0f0f5f9ull, 0x97fa9d554f5dc185ull,
    0x54c7ba8134f04ee9ull, 0x3ba456445bf53975ull, 0x59d921f80d204fd5ull,
    0x7bd2c0f1156f5ac5ull, 0x3fdaae9f33a28c1dull, 0x57fbbeb9c1ce0421ull,
    0x1b9f6a65b9624385ull, 0xf2e877f0c5408f25ull, 0xe416e310246fc60dull,
    0xb85da6caa8cbcf35ull, 0x3d13d2d0813b6481ull, 0x0d04b48618a20bc9ull,
    0xf42c666f6c221831ull, 0x84840caf8caf4e85ull, 0x980beabe6977e4a5ull,
    0x141c4601aa63ad49ull, 0x826fccaeaf3be6c1ull, 0x1ee201098c6b5fd5ull,
    0xd0feaa3911b7e645ull, 0xae367e8d74a3ffadull, 0x69471e43addbd36dull,
    0x32d8dda2fbc284e5ull, 0x8060e1c9704a4121ull, 0x35e928e895316679ull,
    0x713f23e01a5e12c1ull, 0x9a64bceddcd099f5ull, 0x850dffa86a783f91ull,
    0xa291ed4eed7cb515ull, 0x078ae737652a445dull, 0x12cb0f83c3735bf5ull,
    0xb2dda6459c7bc0cdull, 0xa5d9a4b5adf0f3a1ull, 0xb0ff51ebc8a69695ull,
    0x4abdd5c3c568f85dull, 0xb9fd3c09bdb350c9ull, 0x5fc3e57e5ac85dfdull,
    0x07f3d2397970ec59ull, 0xd8bd01583f3e95adull, 0x9d344ad4e97a2945ull,
    0x2df67f93a0b91125ull, 0xc78a0763f95014e5ull, 0x8957046b71569269ull,
    0x0a42b025d5b8f39dull, 0x9c5e47b233024e95ull, 0xf2518971d8b380b5ull,
    0x7bddfa01b2b5d1f5ull, 0x4272ed5603aea805ull, 0x6b920d655fbdd029ull,
    0x6401cd8156537db1ull, 0xd9cc1f497ab53025ull, 0x7d2282a753b059f5ull,
    0xf98949fbbabff1f1ull, 0x7fc05fbc04b65629ull, 0x8b516d3315c3d3adull,
    0xf17ef3e4bbb655a5ull, 0x17bad81171584cbdull, 0x92ce71d6b884a525ull,
    0xd62e1c2e7e803acdull, 0x34e50a1634810599ull, 0x16a4dbe87f3f9441ull,
    0x3d0683b457e76f1dull, 0x55cbfadc44b1771dull, 0xe02a3c305e317765ull,
    0xfe5a68230ff8df3dull, 0x38d809f4d072817dull, 0x86e935e9bfd6e6a5ull,
    0x44b4e9aea05175d5ull, 0x2f0d35a1e9c020ddull, 0x3778711a22f293b5ull,
    0xbdac75c356a18ab5ull, 0xbdac75c356a18ab5ull, 0xbdac75c356a18ab5ull,
    0xbdac75c356a18ab5ull,
}};

/// FNV-1a of every result above, in corpus order and chunk-size order.
constexpr std::uint64_t kPinnedDigest = 0xfc93db65ef244891ull;

}  // namespace

TEST(FeaturizePinTest, FeaturesMatchTheRecord) {
  const auto corpus = pin_corpus();
  ASSERT_EQ(corpus.size(), kPinnedSourceDigests.size());
  std::uint64_t total = kFnvOffset;
  std::vector<std::uint64_t> per_source;
  for (const auto& item : corpus) {
    std::uint64_t hash = kFnvOffset;
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096}, item.source.size()}) {
      const auto result = rcl::extract_features_chunked(item.source, chunk, item.kernel);
      digest_result(hash, result);
      digest_result(total, result);
    }
    per_source.push_back(hash);
  }
  EXPECT_EQ(total, kPinnedDigest);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (per_source[i] == kPinnedSourceDigests[i]) continue;
    const auto result =
        rcl::extract_features_chunked(corpus[i].source, 4096, corpus[i].kernel);
    ADD_FAILURE() << "first source that differs from the record: #" << i << " "
                  << corpus[i].name << "\n  now: "
                  << (result.ok() ? result.value().to_string() : result.error().message);
    break;
  }
}

TEST(FeaturizePinTest, ErrorMessagesMatchTheRecord) {
  const std::string deep(300, '(');
  const std::string undeep(300, ')');
  const struct Case {
    const char* name;
    std::string source;
    std::size_t max_source_bytes;
    const char* message;
  } cases[] = {
      {"unterminated block comment",
       "kernel void f(global int* x) { x[0] = 1; } /* oops", 64u << 20,
       "line 1:51: unterminated block comment"},
      {"malformed exponent", "kernel void f(global float* x) { x[0] = 1.5e+; }",
       64u << 20, "line 1:46: malformed exponent in float literal"},
      {"unexpected character", "kernel void f(global int* x) { x[0] = 1 @ 2; }",
       64u << 20, "line 1:42: unexpected character '@'"},
      {"unterminated function", "kernel void f(global int* x) { x[0] = 1;", 64u << 20,
       "line 1:41: expected } (end of block), got '<eof>'"},
      {"unknown callee", "kernel void f(global int* x) { x[0] = nosuch(1); }", 64u << 20,
       "line 1:39: call to unknown function 'nosuch'"},
      {"wrong argument count",
       "float h(float a, float b) { return a + b; }\n"
       "kernel void f(global float* x) { x[0] = h(x[0]); }",
       64u << 20, "line 2:41: wrong number of arguments to 'h'"},
      {"nesting budget",
       "kernel void f(global float* x) { x[0] = " + deep + "1.0f" + undeep + "; }",
       64u << 20, "line 1:296: nesting exceeds the depth budget of 256"},
      {"max_source_bytes",
       "kernel void f(global int* x) { x[0] = 1; }\n"
       "kernel void g(global int* y) { y[0] = 2; }",
       64, "SourceFeeder: source exceeds the max_source_bytes budget (64)"},
  };
  for (const auto& c : cases) {
    rcl::StreamOptions options;
    options.max_source_bytes = c.max_source_bytes;
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096}, c.source.size()}) {
      const auto result = rcl::extract_features_chunked(c.source, chunk, {}, options);
      ASSERT_FALSE(result.ok()) << c.name << " chunk=" << chunk;
      EXPECT_EQ(result.error().message, c.message) << c.name << " chunk=" << chunk;
    }
  }
}
