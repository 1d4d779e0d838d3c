// Unit tests for src/embed: encoder zoo, column embedders, Starmie encoder,
// tuple encoders.
#include <gtest/gtest.h>

#include "embed/column_embedder.h"
#include "embed/embedder.h"
#include "embed/starmie_encoder.h"
#include "embed/tuple_encoder.h"
#include "la/distance.h"

namespace dust::embed {
namespace {

using la::CosineSimilarity;
using la::Norm;
using table::Table;
using table::Value;

EmbedderConfig NoiselessConfig(size_t dim = 32) {
  EmbedderConfig config;
  config.dim = dim;
  config.noise_level = 0.0f;
  return config;
}

TEST(EmbedderTest, Deterministic) {
  auto e = MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig());
  EXPECT_EQ(e->Embed("River Park USA"), e->Embed("River Park USA"));
}

TEST(EmbedderTest, UnitNorm) {
  auto e = MakeEmbedder(ModelFamily::kBert, DefaultConfigFor(ModelFamily::kBert, 32));
  la::Vec v = e->Embed("Hyde Park Jenny Rishi UK");
  EXPECT_NEAR(Norm(v), 1.0f, 1e-4);
}

TEST(EmbedderTest, EmptyTextGivesZeroVector) {
  auto e = MakeEmbedder(ModelFamily::kGlove, NoiselessConfig());
  EXPECT_NEAR(Norm(e->Embed("")), 0.0f, 1e-6);
}

TEST(EmbedderTest, SimilarTextsCloserThanUnrelated) {
  auto e = MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(64));
  la::Vec park1 = e->Embed("Park Name River Park Supervisor Vera Onate");
  la::Vec park2 = e->Embed("Park Name Hyde Park Supervisor Jenny Rishi");
  la::Vec painting = e->Embed("Painting Northern Lake Medium Oil on canvas");
  EXPECT_GT(CosineSimilarity(park1, park2), CosineSimilarity(park1, painting));
}

TEST(EmbedderTest, FamiliesEmbedIntoUnrelatedSpaces) {
  auto bert = MakeEmbedder(ModelFamily::kBert, NoiselessConfig(64));
  auto roberta = MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(64));
  la::Vec a = bert->Embed("River Park USA");
  la::Vec b = roberta->Embed("River Park USA");
  // Cross-family similarity of the same text should be far from 1.
  EXPECT_LT(std::abs(CosineSimilarity(a, b)), 0.8f);
}

TEST(EmbedderTest, NoiseLevelPerturbsButPreservesIdentity) {
  EmbedderConfig noisy = NoiselessConfig(64);
  noisy.noise_level = 0.5f;
  auto e = MakeEmbedder(ModelFamily::kSbert, noisy);
  // Same text twice: identical (noise is deterministic per text).
  EXPECT_EQ(e->Embed("abc def"), e->Embed("abc def"));
}

TEST(EmbedderTest, FamilyNames) {
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kFastText), "FastText");
  EXPECT_STREQ(ModelFamilyName(ModelFamily::kSbert), "sBERT");
}

Table MakeParkTable() {
  Table t("parks");
  EXPECT_TRUE(t.AddColumn("Park Name",
                          {Value("River Park"), Value("Hyde Park")}).ok());
  EXPECT_TRUE(t.AddColumn("Country", {Value("USA"), Value("UK")}).ok());
  EXPECT_TRUE(t.AddColumn("Acres", {Value("12.5"), Value("30.2")}).ok());
  return t;
}

TEST(ColumnEmbedderTest, CellLevelAveragesCells) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kGlove, NoiselessConfig(32)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kCellLevel);
  Table t = MakeParkTable();
  la::Vec v = embedder.EmbedColumn(t.column(1), nullptr);
  // Average of Embed("USA") and Embed("UK"), normalized.
  la::Vec expected = la::Mean({enc->Embed("USA"), enc->Embed("UK")});
  la::NormalizeInPlace(&expected);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], expected[i], 1e-5);
}

TEST(ColumnEmbedderTest, CellLevelSkipsNulls) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kGlove, NoiselessConfig(32)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kCellLevel);
  table::Column c;
  c.name = "x";
  c.values = {Value("USA"), Value::Null()};
  la::Vec v = embedder.EmbedColumn(c, nullptr);
  la::Vec expected = la::Normalized(enc->Embed("USA"));
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], expected[i], 1e-5);
}

TEST(ColumnEmbedderTest, ColumnLevelUsesTokenLimit) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(32)));
  ColumnEmbedder small(enc, ColumnSerialization::kColumnLevel, 2);
  ColumnEmbedder large(enc, ColumnSerialization::kColumnLevel, 512);
  Table t = MakeParkTable();
  // With a tiny token limit the embedding differs from the full one.
  la::Vec limited = small.EmbedColumn(t.column(0), nullptr);
  la::Vec full = large.EmbedColumn(t.column(0), nullptr);
  EXPECT_NE(limited, full);
}

TEST(ColumnEmbedderTest, EmbedTablesShapes) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kSbert, NoiselessConfig(16)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kColumnLevel);
  Table a = MakeParkTable();
  Table b = MakeParkTable();
  auto all = embedder.EmbedTables({&a, &b});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].size(), 3u);
  EXPECT_EQ(all[0][0].size(), 16u);
}

TEST(ColumnEmbedderTest, OverCapColumnDependsOnCompanionTables) {
  // The TF-IDF corpus is every column of one EmbedTables call, so which
  // tokens an over-cap column keeps depends on the tables embedded with it.
  // This is why Algorithm 1 embeds lake columns per query: the corpus is the
  // query plus the tables retrieved for it.
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(32)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kColumnLevel, 4);
  Table a("a");
  ASSERT_TRUE(a.AddColumn("x", {Value("alpha beta gamma"),
                                Value("delta epsilon zeta")}).ok());
  ASSERT_TRUE(a.AddColumn("z", {Value("under"), Value("cap")}).ok());
  Table common_ab("b");
  ASSERT_TRUE(common_ab.AddColumn("y", {Value("alpha beta")}).ok());
  Table common_ez("c");
  ASSERT_TRUE(common_ez.AddColumn("y", {Value("epsilon zeta")}).ok());
  auto with_ab = embedder.EmbedTables({&a, &common_ab});
  auto with_ez = embedder.EmbedTables({&a, &common_ez});
  // 7 tokens over a cap of 4: kept are {delta epsilon gamma x} beside
  // common_ab, {alpha beta delta gamma} beside common_ez.
  EXPECT_NE(with_ab[0][0], with_ez[0][0]);
  EXPECT_EQ(with_ab[0][0], enc->Embed("delta epsilon gamma x"));
  EXPECT_EQ(with_ez[0][0], enc->Embed("alpha beta delta gamma"));
  // A column within the cap keeps all its tokens whatever the corpus.
  EXPECT_EQ(with_ab[0][1], with_ez[0][1]);
  EXPECT_EQ(with_ab[0][1], enc->Embed("z under cap"));
}

TEST(ColumnEmbedderTest, NameIncludesSerializationAndModel) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kBert, NoiselessConfig(16)));
  ColumnEmbedder embedder(enc, ColumnSerialization::kCellLevel);
  EXPECT_EQ(embedder.name(), "Cell-level BERT");
}

TEST(StarmieEncoderTest, SameTableColumnsPulledTogether) {
  // The table-context mixing must make same-table columns more similar
  // than the pure content embeddings would be (the Sec. 6.2.4 failure
  // mode for alignment).
  StarmieConfig config;
  config.dim = 32;
  StarmieEncoder starmie(config);
  Table t = MakeParkTable();
  std::vector<la::Vec> ctx = starmie.EncodeTable(t);
  ASSERT_EQ(ctx.size(), 3u);

  auto enc = std::shared_ptr<TextEmbedder>(MakeEmbedder(
      ModelFamily::kRoberta,
      DefaultConfigFor(ModelFamily::kRoberta, 32, config.seed ^ 0x57A2ULL)));
  ColumnEmbedder pure(enc, ColumnSerialization::kColumnLevel);
  la::Vec pure0 = pure.EmbedColumn(t.column(0), nullptr);
  la::Vec pure1 = pure.EmbedColumn(t.column(1), nullptr);

  EXPECT_GT(CosineSimilarity(ctx[0], ctx[1]), CosineSimilarity(pure0, pure1));
}

TEST(StarmieEncoderTest, NumericColumnsMostlyContext) {
  StarmieConfig config;
  config.dim = 32;
  StarmieEncoder starmie(config);
  Table t = MakeParkTable();
  std::vector<la::Vec> ctx = starmie.EncodeTable(t);
  // The numeric "Acres" column should sit closer to the other columns
  // (it is dominated by table context) than the name column is to country.
  float numeric_to_name = CosineSimilarity(ctx[2], ctx[0]);
  EXPECT_GT(numeric_to_name, 0.2f);
}

TEST(TupleEncoderTest, PretrainedEncodesSerializedText) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(32)));
  PretrainedTupleEncoder tuple_encoder(enc);
  EXPECT_EQ(tuple_encoder.dim(), 32u);
  la::Vec direct = enc->Embed("[CLS] A x [SEP]");
  la::Vec via = tuple_encoder.EncodeSerialized("[CLS] A x [SEP]");
  EXPECT_EQ(direct, via);
}

TEST(TupleEncoderTest, EncodeTableRowsOnePerRow) {
  auto enc = std::shared_ptr<TextEmbedder>(
      MakeEmbedder(ModelFamily::kRoberta, NoiselessConfig(32)));
  PretrainedTupleEncoder tuple_encoder(enc);
  Table t = MakeParkTable();
  auto rows = tuple_encoder.EncodeTableRows(t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0], rows[1]);
}

}  // namespace
}  // namespace dust::embed
