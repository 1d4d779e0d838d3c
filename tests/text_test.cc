// Unit tests for src/text: tokenization, TF-IDF, feature hashing.
#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "text/hashing.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace dust::text {
namespace {

TEST(TokenizerTest, WordTokensLowercaseAndSplit) {
  auto tokens = WordTokens("River Park, USA 773-0380");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"river", "park", "usa", "773", "0380"}));
}

TEST(TokenizerTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens(" ,;- ").empty());
}

TEST(TokenizerTest, CharNgramsFastTextConvention) {
  auto grams = CharNgrams("park", 3);
  EXPECT_EQ(grams,
            (std::vector<std::string>{"<pa", "par", "ark", "rk>"}));
}

TEST(TokenizerTest, CharNgramsShortWordKeptWhole) {
  auto grams = CharNgrams("ab", 4);
  EXPECT_EQ(grams, (std::vector<std::string>{"<ab>"}));
}

TEST(TokenizerTest, WordByteIsCctypeOfTheCLocale) {
  // The table must equal <cctype> in the "C" locale (the process default),
  // so tokens are what they were when <cctype> classified them, and stay so
  // under any locale a host program sets.
  for (int c = 0; c < 256; ++c) {
    int expected = std::isalnum(c) ? std::tolower(c) : 0;
    EXPECT_EQ(WordByte(static_cast<char>(c)), expected) << "byte " << c;
  }
}

TEST(TokenizerTest, WordTokensOfEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(WordTokens(all),
            (std::vector<std::string>{"0123456789",
                                      "abcdefghijklmnopqrstuvwxyz",
                                      "abcdefghijklmnopqrstuvwxyz"}));
  EXPECT_EQ(WordTokens(std::string("ab\0CD\xE9z", 7)),
            (std::vector<std::string>{"ab", "cd", "z"}));
}

TEST(TokenizerTest, AppendWordTokensAppends) {
  std::vector<std::string> tokens = {"x"};
  AppendWordTokens("River Park", &tokens);
  AppendWordTokens("", &tokens);
  AppendWordTokens("USA", &tokens);
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"x", "river", "park", "usa"}));
}

TEST(TokenizerTest, ApproxTokenCount) {
  EXPECT_EQ(ApproxTokenCount("a b  c"), 3u);
  EXPECT_EQ(ApproxTokenCount(""), 0u);
  EXPECT_EQ(ApproxTokenCount("  x  "), 1u);
}

TEST(TokenizerTest, ApproxTokenCountSpaceIsCctypeOfTheCLocale) {
  // Every byte separates tokens exactly when <cctype> in the "C" locale
  // (the process default) calls it space, under any locale a host sets.
  for (int c = 0; c < 256; ++c) {
    const bool space = std::isspace(c) != 0;
    const std::string alone(1, static_cast<char>(c));
    const std::string between = "a" + alone + "b";
    EXPECT_EQ(ApproxTokenCount(alone), space ? 0u : 1u) << "byte " << c;
    EXPECT_EQ(ApproxTokenCount(between), space ? 2u : 1u) << "byte " << c;
  }
}

TEST(HashingTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(HashString("park", 1), HashString("park", 1));
  EXPECT_NE(HashString("park", 1), HashString("park", 2));
  EXPECT_NE(HashString("park", 1), HashString("lark", 1));
}

TEST(HashingTest, IncrementalFormEqualsHashString) {
  const std::string s = "##chip|##pewa";
  for (uint64_t seed : {0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    const uint64_t basis = HashBasis(seed);
    EXPECT_EQ(HashFinish(HashBytes(basis, s)), HashString(s, seed));
    for (size_t cut = 0; cut <= s.size(); ++cut) {
      uint64_t h = HashBytes(basis, std::string_view(s).substr(0, cut));
      for (char c : s.substr(cut)) {
        h = HashByte(h, static_cast<unsigned char>(c));
      }
      EXPECT_EQ(HashFinish(h), HashString(s, seed));
    }
  }
  EXPECT_EQ(HashFinish(HashBasis(3)), HashString("", 3));
}

TEST(HashingTest, IndexIsModuloAndSignIsTopBit) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    uint64_t h = rng.NextU64();
    for (size_t dim : {1, 2, 7, 64, 100, 4096}) {
      EXPECT_EQ(HashIndex(h, dim), h % dim);
    }
    EXPECT_EQ(HashSign(h), (h >> 63) ? 1.0f : -1.0f);
  }
}

TEST(TfidfTest, IdfOrdersRareAboveCommon) {
  std::vector<std::vector<std::string>> docs = {
      {"park", "river"}, {"park", "lake"}, {"park", "hill"}};
  TfidfModel model(docs);
  EXPECT_GT(model.Idf("river"), model.Idf("park"));
  EXPECT_GT(model.Idf("unseen"), model.Idf("river"));
  EXPECT_EQ(model.num_documents(), 3u);
}

TEST(TfidfTest, WeightsCombineTfAndIdf) {
  std::vector<std::vector<std::string>> docs = {{"a", "b"}, {"a", "c"}};
  TfidfModel model(docs);
  auto weights = model.Weights({"a", "a", "b"});
  // "a" has tf 2/3 but low idf; "b" tf 1/3 high idf.
  EXPECT_GT(weights.at("b"), 0.0f);
  EXPECT_GT(weights.at("a"), 0.0f);
}

TEST(TfidfTest, TopTokensHonorsLimitAndRanksRareFirst) {
  std::vector<std::vector<std::string>> docs = {
      {"common", "rare1"}, {"common", "rare2"}, {"common"}};
  TfidfModel model(docs);
  // Equal term frequency: the rare token's higher IDF must win.
  auto top = model.TopTokens({"common", "rare1"}, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], "rare1");
}

TEST(TfidfTest, TopTokensDeduplicates) {
  TfidfModel model(std::vector<std::vector<std::string>>{{"x"}});
  auto top = model.TopTokens({"x", "x", "x"}, 10);
  EXPECT_EQ(top.size(), 1u);
}

TEST(TfidfTest, TopTokensDeterministicTies) {
  TfidfModel model(std::vector<std::vector<std::string>>{{"a", "b"}});
  auto t1 = model.TopTokens({"a", "b"}, 2);
  auto t2 = model.TopTokens({"b", "a"}, 2);
  EXPECT_EQ(t1, t2);  // lexicographic tie-break
}

}  // namespace
}  // namespace dust::text
