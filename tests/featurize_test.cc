// Exact oracle for the streamed feature hashing of the hashed encoders and
// the DUST model's frozen features.
//
// The reference below is the build-the-strings-then-hash featurization:
// <cctype> word tokens, character n-gram / subword-piece / piece-bigram
// strings, and per-string FNV-1a + SplitMix64 hashing into a dense or
// std::map-merged sparse vector. embed::ForEachFeatureHash must reproduce
// it bit for bit: HashedEncoder::Embed and DustModel::Featurize are compared
// with memcmp, at noise 0 and at every family's default noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "datagen/tus_generator.h"
#include "embed/column_embedder.h"
#include "embed/embedder.h"
#include "embed/hashed_encoders.h"
#include "nn/dust_model.h"
#include "table/serialize.h"
#include "text/hashing.h"
#include "text/tfidf.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dust::embed {
namespace {

// --- reference featurization (strings first, then hashes) ----------------

uint64_t RefHashString(std::string_view s, uint64_t seed) {
  uint64_t h = 14695981039346656037ULL ^ SplitMix64(seed);
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return SplitMix64(h);
}

std::vector<std::string> RefWordTokens(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  };
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      cur += static_cast<char>(std::tolower(c));
    } else {
      flush();
    }
  }
  flush();
  return out;
}

std::vector<std::string> RefCharNgrams(std::string_view s, size_t n) {
  std::vector<std::string> out;
  for (const std::string& word : RefWordTokens(s)) {
    std::string padded = "<" + word + ">";
    if (padded.size() <= n) {
      out.push_back(padded);
      continue;
    }
    for (size_t i = 0; i + n <= padded.size(); ++i) {
      out.push_back(padded.substr(i, n));
    }
  }
  return out;
}

std::vector<std::string> RefSubwordPieces(std::string_view s,
                                          size_t max_piece) {
  std::vector<std::string> out;
  for (const std::string& word : RefWordTokens(s)) {
    if (word.size() <= max_piece) {
      out.push_back(word);
      continue;
    }
    size_t pos = 0;
    bool first = true;
    while (pos < word.size()) {
      size_t len = std::min(max_piece, word.size() - pos);
      std::string piece = word.substr(pos, len);
      if (!first) piece = "##" + piece;
      out.push_back(piece);
      pos += len;
      first = false;
    }
  }
  return out;
}

std::vector<std::string> RefFamilyFeatures(ModelFamily family,
                                           const std::string& text) {
  std::vector<std::string> features;
  switch (family) {
    case ModelFamily::kFastText:
      features = RefWordTokens(text);
      for (auto& g : RefCharNgrams(text, 3)) features.push_back(std::move(g));
      for (auto& g : RefCharNgrams(text, 4)) features.push_back(std::move(g));
      break;
    case ModelFamily::kGlove:
    case ModelFamily::kSbert:
      features = RefWordTokens(text);
      break;
    case ModelFamily::kBert:
      features = RefSubwordPieces(text, 4);
      break;
    case ModelFamily::kRoberta:
      for (const std::string& word : RefWordTokens(text)) {
        std::vector<std::string> pieces = RefSubwordPieces(word, 6);
        for (size_t i = 0; i + 1 < pieces.size(); ++i) {
          features.push_back(pieces[i] + "|" + pieces[i + 1]);
        }
        for (auto& piece : pieces) features.push_back(std::move(piece));
      }
      break;
  }
  return features;
}

std::vector<float> RefHashTokensToVector(const std::vector<std::string>& tokens,
                                         size_t dim, uint64_t seed) {
  std::vector<float> out(dim, 0.0f);
  for (const std::string& token : tokens) {
    uint64_t h = RefHashString(token, seed);
    out[h % dim] += (h >> 63) ? 1.0f : -1.0f;
  }
  return out;
}

text::SparseVector RefHashTokensSparse(const std::vector<std::string>& tokens,
                                       size_t dim, uint64_t seed) {
  std::map<uint32_t, float> acc;
  for (const std::string& token : tokens) {
    uint64_t h = RefHashString(token, seed);
    acc[static_cast<uint32_t>(h % dim)] += (h >> 63) ? 1.0f : -1.0f;
  }
  text::SparseVector sv;
  for (const auto& [idx, val] : acc) {
    if (val == 0.0f) continue;
    sv.indices.push_back(idx);
    sv.values.push_back(val);
  }
  return sv;
}

uint64_t RefFamilySeed(ModelFamily family, uint64_t seed) {
  return SplitMix64(seed ^ FamilySeedConstant(family));
}

la::Vec RefEmbed(ModelFamily family, const EmbedderConfig& config,
                 const std::string& text) {
  const uint64_t seed = RefFamilySeed(family, config.seed);
  std::vector<std::string> features = RefFamilyFeatures(family, text);
  la::Vec v = RefHashTokensToVector(features, config.dim, seed);
  if (family == ModelFamily::kSbert) la::NormalizeInPlace(&v);
  if (config.noise_level > 0.0f) {
    la::NormalizeInPlace(&v);
    Rng rng(RefHashString(text, seed ^ 0xA015EULL));
    float context = 1.0f + static_cast<float>(features.size()) / 6.0f;
    float effective = config.noise_level * (0.3f + 0.7f / context);
    float scale = effective / std::sqrt(static_cast<float>(config.dim));
    for (float& x : v) x += scale * static_cast<float>(rng.NextGaussian());
  }
  la::NormalizeInPlace(&v);
  return v;
}

std::vector<std::string> RefColumnTokens(const table::Column& column) {
  std::vector<std::string> tokens = RefWordTokens(column.name);
  for (const table::Value& v : column.values) {
    if (v.is_null()) continue;
    for (auto& t : RefWordTokens(v.text())) tokens.push_back(std::move(t));
  }
  return tokens;
}

// Column-level EmbedTables as it was: tokenize for the corpus, tokenize
// again per column, TF-IDF top tokens over the cap, join, embed.
std::vector<std::vector<la::Vec>> RefEmbedTables(
    ModelFamily family, const EmbedderConfig& config,
    const std::vector<const table::Table*>& tables, size_t token_limit) {
  std::vector<std::vector<std::string>> docs;
  for (const table::Table* t : tables) {
    for (const table::Column& c : t->columns()) {
      docs.push_back(RefColumnTokens(c));
    }
  }
  text::TfidfModel tfidf(docs);
  std::vector<std::vector<la::Vec>> out;
  for (const table::Table* t : tables) {
    std::vector<la::Vec> cols;
    for (const table::Column& c : t->columns()) {
      std::vector<std::string> tokens = RefColumnTokens(c);
      if (tokens.size() > token_limit) {
        tokens = tfidf.TopTokens(tokens, token_limit);
      }
      cols.push_back(RefEmbed(family, config, Join(tokens, " ")));
    }
    out.push_back(std::move(cols));
  }
  return out;
}

// --- inputs ----------------------------------------------------------------

constexpr ModelFamily kFamilies[] = {
    ModelFamily::kFastText, ModelFamily::kGlove, ModelFamily::kBert,
    ModelFamily::kRoberta, ModelFamily::kSbert};

std::vector<std::string> EdgeTexts() {
  std::vector<std::string> texts = {
      "",
      " ",
      " \t\n\r\v\f ",
      ",;-!?()[]{}<>|#'\"/\\",
      "PARK NAME RIVER",
      "River PARK, uSa",
      "0123456789 773 731-0380 12.5",
      "[CLS] Park Name Chippewa Park [SEP] City Brandon, MN [SEP]",
      "a|b ##c <d> e##f",
  };
  // Words of length 1..20, alone, capitalised, and all in one text: covers
  // the piece boundaries 4/5, 8/9 (BERT), 6/7, 12/13, 18/19 (RoBERTa) and
  // the n-gram padding edge ("<w>" of length n - 1, n, n + 1).
  std::string ladder;
  for (size_t len = 1; len <= 20; ++len) {
    std::string word;
    for (size_t i = 0; i < len; ++i) {
      word += static_cast<char>(i % 3 == 2 ? '0' + (i + len) % 10
                                           : 'a' + (i * 7 + len) % 26);
    }
    texts.push_back(word);
    std::string upper = word;
    upper[0] = static_cast<char>(std::toupper(upper[0]));
    texts.push_back(upper + "-" + word);
    ladder += word + (len % 2 ? " " : ", ");
  }
  texts.push_back(ladder);
  std::string high;
  for (int c = 0x80; c <= 0xFF; ++c) {
    high += static_cast<char>(c);
    if (c % 7 == 0) high += "Ab9";
  }
  texts.push_back(high);
  texts.push_back("caf\xE9 na\xEFve \xC3\xA9t\xC3\xA9 gro\xDFst");
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) all_bytes += static_cast<char>(c);
  texts.push_back(all_bytes);
  texts.push_back(std::string("ab\0cd ef\0\0GH", 13));
  texts.push_back(std::string(1, '\0'));
  const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";
  Rng rng(20260101);
  std::string big;
  while (big.size() < 10000) {
    size_t len = 1 + rng.NextBelow(20);
    for (size_t i = 0; i < len; ++i) big += kAlphabet[rng.NextBelow(40)];
    big += " ,.-\t"[rng.NextBelow(5)];
  }
  texts.push_back(big);
  texts.push_back(std::string(10000, 'Q'));
  return texts;
}

const datagen::Benchmark& Tus() {
  static const datagen::Benchmark* b = [] {
    datagen::TusConfig config;
    config.num_queries = 2;
    config.unionable_per_query = 6;
    config.distractors_per_base = 1;
    config.base_rows = 60;
    config.seed = 3;
    return new datagen::Benchmark(datagen::GenerateTus(config));
  }();
  return *b;
}

std::vector<std::string> TusTexts() {
  std::vector<std::string> texts;
  for (const datagen::GeneratedTable& g : Tus().lake) {
    for (size_t r = 0; r < g.data.num_rows(); ++r) {
      texts.push_back(table::SerializeTableRow(g.data, r));
    }
    for (const table::Column& c : g.data.columns()) {
      std::vector<std::string> tokens = ColumnTokens(c);
      if (tokens.size() > 512) tokens.resize(512);
      texts.push_back(Join(tokens, " "));
    }
  }
  return texts;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool BitEqual(const text::SparseVector& a, const text::SparseVector& b) {
  return a.indices == b.indices && BitEqual(a.values, b.values);
}

std::vector<uint64_t> StreamHashes(ModelFamily family, std::string_view text,
                                   uint64_t seed) {
  std::vector<uint64_t> out;
  size_t count = ForEachFeatureHash(family, text, seed,
                                    [&](uint64_t h) { out.push_back(h); });
  EXPECT_EQ(count, out.size());
  return out;
}

void ExpectEmbedMatchesReference(const std::vector<std::string>& texts) {
  for (ModelFamily family : kFamilies) {
    for (size_t dim : {1, 7, 64}) {
      for (bool noisy : {false, true}) {
        EmbedderConfig config = DefaultConfigFor(family, dim, 99);
        if (!noisy) config.noise_level = 0.0f;
        HashedEncoder encoder(family, config);
        size_t mismatches = 0;
        for (const std::string& text : texts) {
          if (!BitEqual(encoder.Embed(text), RefEmbed(family, config, text)) &&
              ++mismatches <= 3) {
            ADD_FAILURE() << ModelFamilyName(family) << " dim " << dim
                          << " noise " << config.noise_level << " text["
                          << text.size() << "] \"" << text.substr(0, 60)
                          << "\"";
          }
        }
        EXPECT_EQ(mismatches, 0u);
      }
    }
  }
}

// --- the stream ------------------------------------------------------------

TEST(FeatureStreamTest, HashesEqualReferenceFeatureStrings) {
  std::vector<std::string> texts = EdgeTexts();
  for (const std::string& t : TusTexts()) texts.push_back(t);
  for (ModelFamily family : kFamilies) {
    const uint64_t seed = RefFamilySeed(family, 1234);
    for (const std::string& text : texts) {
      std::vector<uint64_t> expected;
      for (const std::string& f : RefFamilyFeatures(family, text)) {
        expected.push_back(RefHashString(f, seed));
      }
      ASSERT_EQ(StreamHashes(family, text, seed), expected)
          << ModelFamilyName(family) << " \"" << text.substr(0, 60) << "\"";
    }
  }
}

TEST(FeatureStreamTest, EmbedBitIdenticalOnEdgeTexts) {
  ExpectEmbedMatchesReference(EdgeTexts());
}

TEST(FeatureStreamTest, EmbedBitIdenticalOnTusTuplesAndColumns) {
  ExpectEmbedMatchesReference(TusTexts());
}

TEST(FeatureStreamTest, FeaturizeBitIdenticalToSparseReference) {
  std::vector<std::string> texts = EdgeTexts();
  for (const std::string& t : TusTexts()) texts.push_back(t);
  for (ModelFamily family : kFamilies) {
    for (size_t feature_dim : {1, 7, 64, 4096}) {
      nn::DustModelConfig config;
      config.family = family;
      config.feature_dim = feature_dim;
      config.hidden_dim = 4;
      config.embedding_dim = 4;
      nn::DustModel model(config);
      const uint64_t seed = RefFamilySeed(family, config.seed);
      for (const std::string& text : texts) {
        text::SparseVector expected = RefHashTokensSparse(
            RefFamilyFeatures(family, text), feature_dim, seed);
        ASSERT_TRUE(BitEqual(model.Featurize(text), expected))
            << ModelFamilyName(family) << " dim " << feature_dim << " \""
            << text.substr(0, 60) << "\"";
      }
    }
  }
}

TEST(FeatureStreamTest, ColumnLevelEmbedTablesBitIdenticalToReference) {
  // Longer columns so that some exceed the 512-token cap and go through
  // TF-IDF top-token selection.
  datagen::TusConfig tus;
  tus.num_queries = 1;
  tus.unionable_per_query = 20;
  tus.distractors_per_base = 0;
  tus.base_rows = 400;
  tus.seed = 5;
  datagen::Benchmark b = datagen::GenerateTus(tus);
  std::vector<const table::Table*> tables = {&b.queries[0].data};
  for (size_t idx : b.unionable[0]) tables.push_back(&b.lake[idx].data);
  size_t over_cap = 0;
  for (const table::Table* t : tables) {
    for (const table::Column& c : t->columns()) {
      over_cap += ColumnTokens(c).size() > 512;
    }
  }
  ASSERT_GT(over_cap, 0u);
  for (ModelFamily family : {ModelFamily::kRoberta, ModelFamily::kFastText}) {
    EmbedderConfig config = DefaultConfigFor(family, 64, 7);
    ColumnEmbedder embedder(MakeEmbedder(family, config),
                            ColumnSerialization::kColumnLevel);
    auto got = embedder.EmbedTables(tables);
    auto expected = RefEmbedTables(family, config, tables, 512);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t t = 0; t < got.size(); ++t) {
      ASSERT_EQ(got[t].size(), expected[t].size());
      for (size_t c = 0; c < got[t].size(); ++c) {
        EXPECT_TRUE(BitEqual(got[t][c], expected[t][c]))
            << ModelFamilyName(family) << " table " << t << " column " << c;
      }
    }
  }
}

// Moved from TokenizerTest.SubwordPiecesSplitLongWords.
TEST(FeatureStreamTest, BertSplitsLongWordsIntoMarkedPieces) {
  EXPECT_EQ(StreamHashes(ModelFamily::kBert, "chippewa", 5),
            (std::vector<uint64_t>{text::HashString("chip", 5),
                                   text::HashString("##pewa", 5)}));
}

// Moved from TokenizerTest.SubwordPiecesKeepShortWords.
TEST(FeatureStreamTest, RobertaKeepsShortWordsWhole) {
  EXPECT_EQ(StreamHashes(ModelFamily::kRoberta, "park usa", 5),
            (std::vector<uint64_t>{text::HashString("park", 5),
                                   text::HashString("usa", 5)}));
  EXPECT_EQ(StreamHashes(ModelFamily::kRoberta, "Chippewa", 5),
            (std::vector<uint64_t>{text::HashString("chippe|##wa", 5),
                                   text::HashString("chippe", 5),
                                   text::HashString("##wa", 5)}));
}

TEST(FeatureStreamTest, FastTextWordsThenPaddedNgrams) {
  EXPECT_EQ(StreamHashes(ModelFamily::kFastText, "ab", 5),
            (std::vector<uint64_t>{text::HashString("ab", 5),
                                   text::HashString("<ab", 5),
                                   text::HashString("ab>", 5),
                                   text::HashString("<ab>", 5)}));
}

// Moved from EmbedderTest.FamilyFeaturesDifferByFamily.
TEST(FeatureStreamTest, FeatureCountsDifferByFamily) {
  auto count = [](ModelFamily family) {
    return ForEachFeatureHash(family, "chippewa park", 1, [](uint64_t) {});
  };
  EXPECT_EQ(count(ModelFamily::kGlove), 2u);
  EXPECT_GT(count(ModelFamily::kBert), 2u);  // "chippewa" splits into pieces
}

// Moved from HashingTest.VectorAdditive: a text's features are its words'
// features, one word after another.
TEST(FeatureStreamTest, StreamIsConcatenationOverWords) {
  for (ModelFamily family : {ModelFamily::kGlove, ModelFamily::kBert,
                             ModelFamily::kRoberta}) {
    std::vector<uint64_t> a = StreamHashes(family, "riverside", 9);
    std::vector<uint64_t> b = StreamHashes(family, "b", 9);
    a.insert(a.end(), b.begin(), b.end());
    EXPECT_EQ(StreamHashes(family, "riverside b", 9), a);
  }
}

// Moved from HashingTest.VectorDeterministic.
TEST(FeatureStreamTest, EmbedDeterministicAndSeedSensitive) {
  EmbedderConfig config;
  config.dim = 16;
  config.seed = 7;
  HashedEncoder a(ModelFamily::kGlove, config);
  HashedEncoder same(ModelFamily::kGlove, config);
  config.seed = 8;
  HashedEncoder other(ModelFamily::kGlove, config);
  EXPECT_EQ(a.Embed("a b c"), same.Embed("a b c"));
  EXPECT_NE(a.Embed("a b c"), other.Embed("a b c"));
}

nn::DustModel GloveModel(size_t feature_dim) {
  nn::DustModelConfig config;
  config.family = ModelFamily::kGlove;
  config.feature_dim = feature_dim;
  return nn::DustModel(config);
}

// Moved from HashingTest.SparseMergesDuplicates and
// HashingTest.WeightedVector (a repeated feature now carries the weight).
TEST(FeatureStreamTest, FeaturizeMergesDuplicates) {
  nn::DustModel model = GloveModel(64);
  text::SparseVector x = model.Featurize("x");
  text::SparseVector xx = model.Featurize("x x");
  ASSERT_EQ(x.indices.size(), 1u);
  EXPECT_EQ(xx.indices, x.indices);
  EXPECT_EQ(xx.values[0], 2.0f * x.values[0]);
  text::SparseVector sv = model.Featurize("a a b");
  bool found_two = false;
  for (float v : sv.values) found_two |= v == 2.0f || v == -2.0f;
  EXPECT_TRUE(found_two);
  for (size_t i = 1; i < sv.indices.size(); ++i) {
    EXPECT_LT(sv.indices[i - 1], sv.indices[i]);
  }
}

// Moved from HashingTest.SparseMatchesDense: the sparse features scattered
// into a dense vector are the noiseless encoder's vector before normalizing.
TEST(FeatureStreamTest, FeaturizeMatchesDenseEmbed) {
  nn::DustModel model = GloveModel(128);
  text::SparseVector sv = model.Featurize("park name river park");
  la::Vec rebuilt(128, 0.0f);
  for (size_t k = 0; k < sv.indices.size(); ++k) {
    rebuilt[sv.indices[k]] = sv.values[k];
  }
  la::NormalizeInPlace(&rebuilt);
  EmbedderConfig config;
  config.dim = 128;
  config.seed = model.config().seed;
  HashedEncoder encoder(ModelFamily::kGlove, config);
  EXPECT_EQ(encoder.Embed("park name river park"), rebuilt);
}

}  // namespace
}  // namespace dust::embed
