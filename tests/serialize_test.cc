#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "graph/graph_builder.h"
#include "kb/complemented_kb.h"
#include "kb/knowledgebase.h"
#include "reach/distance_label_index.h"
#include "reach/transitive_closure.h"
#include "reach/two_hop_index.h"
#include "util/random.h"
#include "util/serialize.h"

namespace mel {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class TempFile {
 public:
  explicit TempFile(const char* name) : path_(TempPath(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

graph::DirectedGraph RandomGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder b(n);
  for (uint32_t i = 0; i < edges; ++i) {
    b.AddEdge(static_cast<graph::NodeId>(rng.Uniform(n)),
              static_cast<graph::NodeId>(rng.Uniform(n)));
  }
  return std::move(b).Build();
}

// ------------------------------------------------------- writer/reader

TEST(BinaryIoTest, RoundTripScalarsAndVectors) {
  TempFile file("mel_io_roundtrip.bin");
  {
    BinaryWriter writer(file.path());
    writer.WriteU8(7);
    writer.WriteU32(123456);
    writer.WriteU64(1ull << 40);
    writer.WriteFloat(2.5f);
    writer.WriteDouble(3.25);
    writer.WriteString("hello world");
    writer.WriteVector(std::vector<uint32_t>{1, 2, 3});
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(file.path());
  EXPECT_EQ(reader.ReadU8(), 7);
  EXPECT_EQ(reader.ReadU32(), 123456u);
  EXPECT_EQ(reader.ReadU64(), 1ull << 40);
  EXPECT_FLOAT_EQ(reader.ReadFloat(), 2.5f);
  EXPECT_DOUBLE_EQ(reader.ReadDouble(), 3.25);
  EXPECT_EQ(reader.ReadString(), "hello world");
  EXPECT_EQ(reader.ReadVector<uint32_t>(),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(reader.status().ok());
}

TEST(BinaryIoTest, MissingFileReportsNotFound) {
  BinaryReader reader("/nonexistent/dir/file.bin");
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
  BinaryWriter writer("/nonexistent/dir/file.bin");
  EXPECT_EQ(writer.Finish().code(), StatusCode::kNotFound);
}

TEST(BinaryIoTest, TruncatedFileReportsOutOfRange) {
  TempFile file("mel_io_truncated.bin");
  {
    BinaryWriter writer(file.path());
    writer.WriteU32(1);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(file.path());
  reader.ReadU32();
  EXPECT_TRUE(reader.status().ok());
  reader.ReadU64();  // past the end
  EXPECT_EQ(reader.status().code(), StatusCode::kOutOfRange);
}

TEST(BinaryIoTest, CorruptVectorLengthRejected) {
  TempFile file("mel_io_badlen.bin");
  {
    BinaryWriter writer(file.path());
    writer.WriteU64(~0ull);  // absurd element count
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(file.path());
  auto v = reader.ReadVector<uint32_t>();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(reader.status().ok());
}

// ---------------------------------------------------- index round trips

TEST(IndexSerializationTest, TransitiveClosureRoundTrip) {
  auto g = RandomGraph(50, 200, 3);
  auto original = reach::TransitiveClosureIndex::Build(
      &g, 5, reach::TransitiveClosureIndex::Construction::kIncremental);
  ASSERT_TRUE(original.InsertEdge(0, 49) || true);  // exercise overlay

  TempFile file("mel_tc_index.bin");
  ASSERT_TRUE(original.Save(file.path()).ok());
  auto loaded = reach::TransitiveClosureIndex::Load(file.path(), &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(original.Distance(u, v), loaded.value().Distance(u, v));
      ASSERT_FLOAT_EQ(original.ScoreOnly(u, v), loaded.value().ScoreOnly(u, v));
    }
  }
  // Overlay survives: inserting the same edge again is rejected.
  if (!g.HasEdge(0, 49)) {
    EXPECT_FALSE(loaded.value().InsertEdge(0, 49));
  }
}

TEST(IndexSerializationTest, TwoHopRoundTrip) {
  auto g = RandomGraph(60, 240, 4);
  auto original = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel_2hop_index.bin");
  ASSERT_TRUE(original.Save(file.path()).ok());
  auto loaded = reach::TwoHopIndex::Load(file.path(), &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(original.TotalLabelEntries(),
            loaded.value().TotalLabelEntries());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto a = original.Query(u, v);
      auto b = loaded.value().Query(u, v);
      ASSERT_EQ(a.distance, b.distance);
      ASSERT_EQ(a.followees, b.followees);
    }
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

// Arena serialization is canonical: Save -> Load -> Save must reproduce
// the file byte for byte (the load path is a block read plus offset
// validation, no re-derivation that could reorder anything).
TEST(IndexSerializationTest, TwoHopSaveLoadSaveBytesIdentical) {
  auto g = RandomGraph(60, 240, 9);
  auto original = reach::TwoHopIndex::Build(&g, 5);
  TempFile first("mel_2hop_first.bin");
  TempFile second("mel_2hop_second.bin");
  ASSERT_TRUE(original.Save(first.path()).ok());
  auto loaded = reach::TwoHopIndex::Load(first.path(), &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().Save(second.path()).ok());
  std::string a = ReadFileBytes(first.path());
  std::string b = ReadFileBytes(second.path());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Edgeless graph: every label list is empty, so all offsets collapse to
// zero and the arenas are empty blocks — the round trip must survive it.
TEST(IndexSerializationTest, TwoHopEmptyLabelRoundTrip) {
  graph::GraphBuilder b(7);
  auto g = std::move(b).Build();
  auto original = reach::TwoHopIndex::Build(&g, 5);
  EXPECT_EQ(original.NumFolloweeIds(), 0u);
  TempFile file("mel_2hop_empty.bin");
  TempFile resave("mel_2hop_empty2.bin");
  ASSERT_TRUE(original.Save(file.path()).ok());
  auto loaded = reach::TwoHopIndex::Load(file.path(), &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().NumInEntries(), 0u);
  EXPECT_EQ(loaded.value().NumOutEntries(), 0u);
  for (graph::NodeId u = 0; u < 7; ++u) {
    for (graph::NodeId v = 0; v < 7; ++v) {
      EXPECT_EQ(loaded.value().ScoreOnly(u, v), u == v ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(loaded.value().Save(resave.path()).ok());
  EXPECT_EQ(ReadFileBytes(file.path()), ReadFileBytes(resave.path()));
}

// Hand-made 2-hop arenas for a 3-node graph with no labels; tests
// break one arena at a time.
struct TwoHopArenas {
  std::vector<uint64_t> in_offsets{0, 0, 0, 0};
  std::vector<reach::TwoHopIndex::InLabel> in_entries;
  std::vector<uint64_t> out_offsets{0, 0, 0, 0};
  std::vector<reach::TwoHopIndex::OutSpan> out_entries;
  std::vector<uint64_t> followee_offsets{0};
  std::vector<graph::NodeId> followee_arena;
};

// Wraps the arenas in a MEL3 container as TwoHopIndex::Save would. The
// block checksums come out valid, so only the loader's structural and
// content checks can reject the file.
void WriteTwoHopMel3(const std::string& path, const TwoHopArenas& a) {
  constexpr uint32_t kTwoHopInnerMagic = 0x4d454c32;  // "MEL2"
  const Mel3BlockDesc blocks[] = {
      Mel3BlockDesc::Of<uint64_t>(Mel3BlockKind::kInOffsets, a.in_offsets),
      Mel3BlockDesc::Of<reach::TwoHopIndex::InLabel>(
          Mel3BlockKind::kInEntries, a.in_entries),
      Mel3BlockDesc::Of<uint64_t>(Mel3BlockKind::kOutOffsets, a.out_offsets),
      Mel3BlockDesc::Of<reach::TwoHopIndex::OutSpan>(
          Mel3BlockKind::kOutEntries, a.out_entries),
      Mel3BlockDesc::Of<uint64_t>(Mel3BlockKind::kFolloweeOffsets,
                                  a.followee_offsets),
      Mel3BlockDesc::Of<graph::NodeId>(Mel3BlockKind::kFolloweeArena,
                                       a.followee_arena),
  };
  ASSERT_TRUE(WriteMel3File(path, kTwoHopInnerMagic, /*inner_version=*/2,
                            /*num_nodes=*/3, /*max_hops=*/5, blocks)
                  .ok());
}

// Well-formed containers with broken offset arrays: the loader must
// reject them instead of indexing out of bounds.
TEST(IndexSerializationTest, TwoHopCorruptOffsetsRejected) {
  auto g = RandomGraph(3, 6, 10);
  struct Case {
    const char* name;
    std::vector<uint64_t> in_offsets;
  };
  // Expected shape for n=3 with no entries: {0, 0, 0, 0}.
  const Case cases[] = {
      {"back exceeds arena", {0, 0, 0, 9}},
      {"non-monotone", {0, 2, 1, 0}},
      {"wrong length", {0, 0, 0}},
  };
  for (const Case& c : cases) {
    TempFile file("mel_2hop_corrupt.bin");
    TwoHopArenas arenas;
    arenas.in_offsets = c.in_offsets;
    WriteTwoHopMel3(file.path(), arenas);
    auto loaded = reach::TwoHopIndex::Load(file.path(), &g);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << c.name;
    EXPECT_NE(loaded.status().message().find("offsets"), std::string::npos)
        << c.name << ": " << loaded.status().ToString();
  }
}

TEST(IndexSerializationTest, TwoHopOutOfRangeNodeIdRejected) {
  auto g = RandomGraph(3, 6, 10);
  TempFile file("mel_2hop_badnode.bin");
  TwoHopArenas arenas;
  arenas.in_offsets = {0, 1, 1, 1};
  // Node id 7 does not exist in a 3-node graph.
  arenas.in_entries = {{7, 1}};
  WriteTwoHopMel3(file.path(), arenas);
  auto loaded = reach::TwoHopIndex::Load(file.path(), &g);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("node id"), std::string::npos)
      << loaded.status().ToString();
}

TEST(IndexSerializationTest, DistanceLabelRoundTrip) {
  auto g = RandomGraph(50, 200, 11);
  auto original = reach::DistanceLabelIndex::Build(&g, 5);
  TempFile file("mel_dli_index.bin");
  TempFile resave("mel_dli_index2.bin");
  ASSERT_TRUE(original.Save(file.path()).ok());
  auto loaded = reach::DistanceLabelIndex::Load(file.path(), &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(original.Distance(u, v), loaded.value().Distance(u, v));
      ASSERT_EQ(original.ScoreOnly(u, v), loaded.value().ScoreOnly(u, v));
      ASSERT_EQ(original.ScoreOnly(u, v), loaded.value().ScoreOnly(u, v));
    }
  }
  ASSERT_TRUE(loaded.value().Save(resave.path()).ok());
  EXPECT_EQ(ReadFileBytes(file.path()), ReadFileBytes(resave.path()));
}

TEST(IndexSerializationTest, DistanceLabelRejectsForeignFiles) {
  auto g = RandomGraph(30, 100, 12);
  auto two_hop = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel_dli_foreign.bin");
  ASSERT_TRUE(two_hop.Save(file.path()).ok());
  // A 2-hop file is not a distance-label file (distinct magics).
  auto loaded = reach::DistanceLabelIndex::Load(file.path(), &g);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // Truncation is caught by the MEL3 file-size check.
  auto dli = reach::DistanceLabelIndex::Build(&g, 5);
  ASSERT_TRUE(dli.Save(file.path()).ok());
  auto size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), size / 2);
  auto truncated = reach::DistanceLabelIndex::Load(file.path(), &g);
  EXPECT_FALSE(truncated.ok());
}

TEST(IndexSerializationTest, WrongMagicRejected) {
  TempFile file("mel_wrong_magic.bin");
  {
    BinaryWriter writer(file.path());
    writer.WriteU32(0xdeadbeef);
    writer.WriteU32(1);
    writer.WriteU32(10);
    writer.WriteU32(5);
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto g = RandomGraph(10, 20, 5);
  auto tc = reach::TransitiveClosureIndex::Load(file.path(), &g);
  EXPECT_FALSE(tc.ok());
  EXPECT_EQ(tc.status().code(), StatusCode::kInvalidArgument);
  auto hop = reach::TwoHopIndex::Load(file.path(), &g);
  EXPECT_FALSE(hop.ok());
}

TEST(IndexSerializationTest, NodeCountMismatchRejected) {
  auto g = RandomGraph(30, 100, 6);
  auto index = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel_mismatch.bin");
  ASSERT_TRUE(index.Save(file.path()).ok());
  auto other = RandomGraph(31, 100, 7);
  auto loaded = reach::TwoHopIndex::Load(file.path(), &other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- knowledgebase files

kb::Knowledgebase MakeSmallKb() {
  kb::Knowledgebase kbase;
  auto player = kbase.AddEntity("Michael Jordan",
                                kb::EntityCategory::kPerson,
                                {"basketball", "bulls"});
  auto country = kbase.AddEntity("Jordan", kb::EntityCategory::kLocation,
                                 {"country", "amman"});
  auto bulls = kbase.AddEntity("Chicago Bulls",
                               kb::EntityCategory::kCompany,
                               {"basketball", "chicago"});
  kbase.AddSurfaceForm("jordan", player, 10);
  kbase.AddSurfaceForm("jordan", country, 4);
  kbase.AddSurfaceForm("bulls", bulls, 6);
  kbase.AddHyperlink(bulls, player);
  kbase.AddHyperlink(player, bulls);
  kbase.Finalize();
  return kbase;
}

TEST(KbSerializationTest, RoundTrip) {
  kb::Knowledgebase original = MakeSmallKb();
  TempFile file("mel_kb.bin");
  ASSERT_TRUE(original.Save(file.path()).ok());
  auto loaded = kb::Knowledgebase::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const kb::Knowledgebase& kb2 = loaded.value();

  EXPECT_EQ(kb2.num_entities(), original.num_entities());
  EXPECT_EQ(kb2.num_surface_forms(), original.num_surface_forms());
  EXPECT_TRUE(kb2.finalized());
  auto cands = kb2.Candidates("jordan");
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].anchor_count, 10u);
  EXPECT_EQ(kb2.entity(0).name, "Michael Jordan");
  EXPECT_EQ(kb2.entity(1).category, kb::EntityCategory::kLocation);
  // Descriptions share the interned vocabulary ("basketball").
  EXPECT_EQ(kb2.entity(0).description[0], kb2.entity(2).description[0]);
  // Hyperlinks survive.
  ASSERT_EQ(kb2.Inlinks(0).size(), 1u);
  EXPECT_EQ(kb2.Inlinks(0)[0], 2u);
}

TEST(KbSerializationTest, UnfinalizedRejected) {
  kb::Knowledgebase kbase;
  kbase.AddEntity("x", kb::EntityCategory::kPerson, {});
  TempFile file("mel_kb_unfinalized.bin");
  EXPECT_EQ(kbase.Save(file.path()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CkbSerializationTest, RoundTrip) {
  kb::Knowledgebase kbase = MakeSmallKb();
  kb::ComplementedKnowledgebase original(&kbase);
  original.AddLink(0, kb::Posting{1, 10, 500});
  original.AddLink(0, kb::Posting{2, 11, 100});
  original.AddLink(2, kb::Posting{3, 10, 300});

  TempFile file("mel_ckb.bin");
  ASSERT_TRUE(original.Save(file.path()).ok());
  auto loaded = kb::ComplementedKnowledgebase::Load(file.path(), &kbase);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().TotalLinks(), 3u);
  EXPECT_EQ(loaded.value().LinkedTweetCount(0), 2u);
  EXPECT_EQ(loaded.value().UserTweetCount(0, 10), 1u);
  auto postings = loaded.value().Postings(0);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].time, 100);  // stored sorted
}

TEST(CkbSerializationTest, EntityCountMismatchRejected) {
  kb::Knowledgebase kbase = MakeSmallKb();
  kb::ComplementedKnowledgebase original(&kbase);
  TempFile file("mel_ckb_mismatch.bin");
  ASSERT_TRUE(original.Save(file.path()).ok());
  kb::Knowledgebase other;
  other.AddEntity("only one", kb::EntityCategory::kPerson, {});
  other.Finalize();
  auto loaded = kb::ComplementedKnowledgebase::Load(file.path(), &other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IndexSerializationTest, TruncatedIndexRejected) {
  auto g = RandomGraph(30, 100, 8);
  auto index = reach::TransitiveClosureIndex::Build(
      &g, 5, reach::TransitiveClosureIndex::Construction::kIncremental);
  TempFile file("mel_truncated_index.bin");
  ASSERT_TRUE(index.Save(file.path()).ok());
  // Chop the file in half.
  auto size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), size / 2);
  auto loaded = reach::TransitiveClosureIndex::Load(file.path(), &g);
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace mel
