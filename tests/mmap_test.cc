// MEL3 container + MmapFile + zero-copy index load coverage: mapping
// basics, mapped-vs-built query identity, corruption rejection, span
// lifetime across destruction/re-mapping, and concurrent read-only
// queries against one shared mapping (runs under TSan via verify.sh).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"
#include "reach/distance_label_index.h"
#include "reach/two_hop_index.h"
#include "util/mmap_file.h"
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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>{});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Re-seals the header checksum after a deliberate header/table edit, so
// corruption tests hit the specific validation they target instead of
// tripping the checksum first.
void ResealHeaderChecksum(std::string& bytes) {
  ASSERT_GE(bytes.size(), sizeof(Mel3Header));
  auto* h = reinterpret_cast<Mel3Header*>(bytes.data());
  const size_t covered =
      sizeof(Mel3Header) + h->block_count * sizeof(Mel3BlockRecord);
  ASSERT_GE(bytes.size(), covered);
  h->header_checksum = 0;
  h->header_checksum = Mel3Checksum(bytes.data(), covered);
}

// ------------------------------------------------------------ MmapFile

TEST(MmapFileTest, MissingFileReportsError) {
  auto file = util::MmapFile::Open("/nonexistent/dir/file.mel3");
  EXPECT_FALSE(file.ok());
}

TEST(MmapFileTest, MapsBytesReadOnly) {
  TempFile file("mel_mmap_bytes.bin");
  WriteFileBytes(file.path(), "hello mapping");
  auto mapped = util::MmapFile::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().size(), 13u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                            mapped.value().data()),
                        mapped.value().size()),
            "hello mapping");
}

TEST(MmapFileTest, EmptyFileMapsToNullView) {
  TempFile file("mel_mmap_empty.bin");
  WriteFileBytes(file.path(), "");
  auto mapped = util::MmapFile::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().size(), 0u);
}

TEST(MmapFileTest, MoveTransfersTheMapping) {
  TempFile file("mel_mmap_move.bin");
  WriteFileBytes(file.path(), "abcd");
  auto mapped = util::MmapFile::Open(file.path());
  ASSERT_TRUE(mapped.ok());
  util::MmapFile moved = std::move(mapped).value();
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(moved.bytes()[0], 'a');
  util::MmapFile moved_again = std::move(moved);
  EXPECT_EQ(moved_again.size(), 4u);
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(MmapFileTest, AdviceOptionsApplyAndRename) {
  TempFile file("mel_mmap_advice.bin");
  WriteFileBytes(file.path(), std::string(8192, 'x'));
  util::MmapFile::Options opts;
  opts.advice = util::MmapFile::Advice::kSequential;
  opts.prefault = true;
  auto mapped = util::MmapFile::Open(file.path(), opts);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().advice(), util::MmapFile::Advice::kSequential);
  EXPECT_TRUE(
      mapped.value().Advise(util::MmapFile::Advice::kWillNeed).ok());
  EXPECT_STREQ(util::MmapFile::AdviceName(util::MmapFile::Advice::kRandom),
               "random");
}

// ----------------------------------------------- MEL3 mapped round trips

TEST(Mel3ContainerTest, TwoHopMappedMatchesBuiltExactly) {
  auto g = RandomGraph(60, 240, 4);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_2hop_mapped.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().IsMapped());
  EXPECT_GT(mapped.value().MappedBytes(), 0u);
  EXPECT_EQ(mapped.value().TotalLabelEntries(), built.TotalLabelEntries());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto a = built.Query(u, v);
      auto b = mapped.value().Query(u, v);
      ASSERT_EQ(a.distance, b.distance);
      ASSERT_EQ(a.followees, b.followees);
      ASSERT_EQ(built.ScoreOnly(u, v), mapped.value().ScoreOnly(u, v));
      ASSERT_EQ(built.ScoreOnly(u, v), mapped.value().ScoreOnly(u, v));
    }
  }
}

TEST(Mel3ContainerTest, DistanceLabelMappedMatchesBuiltExactly) {
  auto g = RandomGraph(50, 200, 11);
  auto built = reach::DistanceLabelIndex::Build(&g, 5);
  TempFile file("mel3_dli_mapped.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  auto mapped = reach::DistanceLabelIndex::LoadMapped(file.path(), &g);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().IsMapped());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(built.Distance(u, v), mapped.value().Distance(u, v));
      ASSERT_EQ(built.ScoreOnly(u, v), mapped.value().ScoreOnly(u, v));
    }
  }
}

// A mapped index re-saves to the identical container: the zero-copy view
// carries exactly the bytes the writer laid out.
TEST(Mel3ContainerTest, MappedResaveIsByteIdentical) {
  auto g = RandomGraph(40, 160, 21);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile first("mel3_resave_a.mel3");
  TempFile second("mel3_resave_b.mel3");
  ASSERT_TRUE(built.Save(first.path()).ok());
  auto mapped = reach::TwoHopIndex::LoadMapped(first.path(), &g);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped.value().Save(second.path()).ok());
  EXPECT_EQ(ReadFileBytes(first.path()), ReadFileBytes(second.path()));
}

TEST(Mel3ContainerTest, CopyingLoadOwnsItsArenas) {
  auto g = RandomGraph(40, 160, 22);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_copyload.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  auto loaded = reach::TwoHopIndex::Load(file.path(), &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().IsMapped());
  EXPECT_EQ(loaded.value().MappedBytes(), 0u);
  // The file is gone; the owned copy keeps answering.
  std::remove(file.path().c_str());
  EXPECT_EQ(loaded.value().ScoreOnly(1, 2), built.ScoreOnly(1, 2));
}

TEST(Mel3ContainerTest, VerifyChecksumsOptionAcceptsIntactFile) {
  auto g = RandomGraph(40, 160, 23);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_verify_ok.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  util::MmapLoadOptions opts;
  opts.verify_checksums = true;
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g, opts);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().IsMapped());
}

// Bare pre-MEL3 files are no longer an index format: both loads reject
// them.
TEST(Mel3ContainerTest, LegacyMel2FileRejected) {
  auto g = RandomGraph(3, 6, 10);
  TempFile file("mel3_legacy_mel2.bin");
  {
    BinaryWriter writer(file.path());
    writer.WriteU32(0x4d454c32);  // "MEL2"
    writer.WriteU32(2);           // version
    writer.WriteU32(3);           // node count
    writer.WriteU32(5);           // max hops
    writer.WriteVector(std::vector<uint64_t>{0, 1, 1, 1});
    writer.WriteVector(std::vector<reach::TwoHopIndex::InLabel>{{1, 1}});
    writer.WriteVector(std::vector<uint64_t>{0, 0, 1, 1});
    writer.WriteVector(std::vector<reach::TwoHopIndex::OutSpan>{{0, 1}});
    writer.WriteVector(std::vector<uint64_t>{0, 1});
    writer.WriteVector(std::vector<graph::NodeId>{2});
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto loaded = reach::TwoHopIndex::Load(file.path(), &g);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(reach::TwoHopIndex::LoadMapped(file.path(), &g).ok());
}

TEST(Mel3ContainerTest, LegacyMeldFileRejected) {
  auto g = RandomGraph(3, 6, 10);
  TempFile file("mel3_legacy_meld.bin");
  {
    BinaryWriter writer(file.path());
    writer.WriteU32(0x4d454c44);  // "MELD"
    writer.WriteU32(1);           // version
    writer.WriteU32(3);           // node count
    writer.WriteU32(5);           // max hops
    writer.WriteVector(std::vector<uint64_t>{0, 1, 1, 1});
    writer.WriteVector(
        std::vector<reach::DistanceLabelIndex::Label>{{1, 1}});
    writer.WriteVector(std::vector<uint64_t>{0, 0, 0, 0});
    writer.WriteVector(std::vector<reach::DistanceLabelIndex::Label>{});
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto loaded = reach::DistanceLabelIndex::Load(file.path(), &g);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(reach::DistanceLabelIndex::LoadMapped(file.path(), &g).ok());
}

// ------------------------------------------------------ corrupt files

class Mel3CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = RandomGraph(30, 120, 31);
    index_ = std::make_unique<reach::TwoHopIndex>(
        reach::TwoHopIndex::Build(&g_, 5));
  }

  graph::DirectedGraph g_;
  std::unique_ptr<reach::TwoHopIndex> index_;
};

TEST_F(Mel3CorruptionTest, TruncatedHeaderRejected) {
  TempFile file("mel3_trunc_header.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  WriteFileBytes(file.path(), bytes.substr(0, sizeof(Mel3Header) / 2));
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("truncated"),
            std::string::npos);
  // The copying load funnels through the same validation.
  EXPECT_FALSE(reach::TwoHopIndex::Load(file.path(), &g_).ok());
}

TEST_F(Mel3CorruptionTest, TruncatedPayloadRejected) {
  TempFile file("mel3_trunc_payload.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  auto size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), size / 2);
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(Mel3CorruptionTest, MisalignedBlockOffsetRejected) {
  TempFile file("mel3_misaligned.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  auto* rec = reinterpret_cast<Mel3BlockRecord*>(
      bytes.data() + sizeof(Mel3Header));
  rec[0].offset += 8;  // off the sector boundary
  ResealHeaderChecksum(bytes);
  WriteFileBytes(file.path(), bytes);
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("misaligned"),
            std::string::npos);
}

TEST_F(Mel3CorruptionTest, HeaderChecksumMismatchRejected) {
  TempFile file("mel3_bad_header_sum.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  // Flip a block-table byte without resealing.
  bytes[sizeof(Mel3Header) + 3] ^= 0x5a;
  WriteFileBytes(file.path(), bytes);
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("checksum"),
            std::string::npos);
}

TEST_F(Mel3CorruptionTest, BlockChecksumMismatchRejected) {
  TempFile file("mel3_bad_block_sum.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  const auto* rec = reinterpret_cast<const Mel3BlockRecord*>(
      bytes.data() + sizeof(Mel3Header));
  ASSERT_GT(rec[1].length, 0u);  // in-entries payload
  bytes[rec[1].offset] ^= 0x01;
  WriteFileBytes(file.path(), bytes);
  // Payload corruption is invisible to the trusting default load...
  util::MmapLoadOptions trusting;
  EXPECT_TRUE(
      reach::TwoHopIndex::LoadMapped(file.path(), &g_, trusting).ok());
  // ...caught by verify_checksums and by the copying load.
  util::MmapLoadOptions verifying;
  verifying.verify_checksums = true;
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_, verifying);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("checksum"),
            std::string::npos);
  EXPECT_FALSE(reach::TwoHopIndex::Load(file.path(), &g_).ok());
}

TEST_F(Mel3CorruptionTest, ForeignMagicRejected) {
  TempFile file("mel3_foreign.mel3");
  {
    BinaryWriter writer(file.path());
    writer.WriteU32(0xdeadbeef);
    writer.WriteU32(1);
    for (int i = 0; i < 14; ++i) writer.WriteU32(0);  // pad past 64 B
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
}

// A DLI container is not a 2-hop container even though both are MEL3.
TEST_F(Mel3CorruptionTest, WrongInnerMagicRejected) {
  auto dli = reach::DistanceLabelIndex::Build(&g_, 5);
  TempFile file("mel3_inner_mismatch.mel3");
  ASSERT_TRUE(dli.Save(file.path()).ok());
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("different index kind"),
            std::string::npos);
  EXPECT_FALSE(reach::TwoHopIndex::Load(file.path(), &g_).ok());
}

TEST_F(Mel3CorruptionTest, FileSizeMismatchRejected) {
  TempFile file("mel3_size_mismatch.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  WriteFileBytes(file.path(), bytes + std::string(4096, '\0'));
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("size"), std::string::npos);
}

TEST_F(Mel3CorruptionTest, NodeCountMismatchRejected) {
  TempFile file("mel3_nodecount.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  auto other = RandomGraph(31, 120, 32);
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &other);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(Mel3CorruptionTest, CorruptOffsetsRejectedEvenWithoutVerify) {
  TempFile file("mel3_bad_offsets.mel3");
  ASSERT_TRUE(index_->Save(file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  const auto* rec = reinterpret_cast<const Mel3BlockRecord*>(
      bytes.data() + sizeof(Mel3Header));
  // Blow up the last in-offsets entry so the prefix sum overruns the
  // entry arena; offsets are always validated because span binding
  // depends on them for memory safety.
  ASSERT_EQ(rec[0].kind, uint32_t(Mel3BlockKind::kInOffsets));
  auto* offsets = reinterpret_cast<uint64_t*>(bytes.data() + rec[0].offset);
  offsets[rec[0].count - 1] = ~0ull;
  // Reseal the block checksum too: this must fail on offset validation,
  // not checksum, in the trusting load.
  auto* mut_rec = reinterpret_cast<Mel3BlockRecord*>(
      bytes.data() + sizeof(Mel3Header));
  mut_rec[0].checksum =
      Mel3Checksum(bytes.data() + rec[0].offset, rec[0].length);
  ResealHeaderChecksum(bytes);
  WriteFileBytes(file.path(), bytes);
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("offsets"), std::string::npos);
}

// --------------------------------------------------- span lifetime

TEST(MmapLifetimeTest, MappingOutlivesLoadScope) {
  auto g = RandomGraph(40, 160, 41);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_lifetime.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  // Move the mapped index out of the load scope; the shared mapping
  // travels with it.
  auto mapped = [&] {
    auto loaded = reach::TwoHopIndex::LoadMapped(file.path(), &g);
    EXPECT_TRUE(loaded.ok());
    return std::move(loaded).value();
  }();
  EXPECT_TRUE(mapped.IsMapped());
  EXPECT_EQ(mapped.ScoreOnly(1, 2), built.ScoreOnly(1, 2));
}

TEST(MmapLifetimeTest, CopiedIndexSharesTheMapping) {
  auto g = RandomGraph(40, 160, 42);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_copy_share.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  auto loaded = reach::TwoHopIndex::LoadMapped(file.path(), &g);
  ASSERT_TRUE(loaded.ok());
  auto copy = std::make_unique<reach::TwoHopIndex>(loaded.value());
  // Destroy the original; the copy's shared_ptr keeps the pages alive.
  { auto destroyed = std::move(loaded).value(); }
  EXPECT_TRUE(copy->IsMapped());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(copy->ScoreOnly(u, 0), built.ScoreOnly(u, 0));
  }
}

TEST(MmapLifetimeTest, RemapSameFileTwiceIndependentLifetimes) {
  auto g = RandomGraph(40, 160, 43);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_remap.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  auto first = reach::TwoHopIndex::LoadMapped(file.path(), &g);
  auto second = reach::TwoHopIndex::LoadMapped(file.path(), &g);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().in_labels(0).data(),
            second.value().in_labels(0).data());
  // Destroy the first mapping; the second keeps answering.
  { auto destroyed = std::move(first).value(); }
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(second.value().ScoreOnly(u, 1), built.ScoreOnly(u, 1));
  }
}

TEST(MmapLifetimeTest, UnlinkedFileKeepsServing) {
  auto g = RandomGraph(40, 160, 44);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_unlink.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g);
  ASSERT_TRUE(mapped.ok());
  std::remove(file.path().c_str());  // pages live until munmap
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(mapped.value().ScoreOnly(u, 2), built.ScoreOnly(u, 2));
  }
}

// Republishing an index over a path that a live reader has mapped must
// not pull the pages out from under it. WriteMel3File used to truncate
// the target in place, and the next query on the old mapping faulted
// past the new, shorter file (SIGBUS). It now renames a fresh inode
// over the path, so the old mapping keeps answering from the old bytes
// while new loads see the new file.
TEST(MmapLifetimeTest, RepublishUnderLiveMappingKeepsOldInode) {
  auto big_graph = RandomGraph(2000, 8000, 45);
  auto big = reach::TwoHopIndex::Build(&big_graph, 5);
  auto small_graph = RandomGraph(50, 150, 46);
  auto small = reach::TwoHopIndex::Build(&small_graph, 5);
  TempFile file("mel3_republish.mel3");
  ASSERT_TRUE(big.Save(file.path()).ok());
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &big_graph);
  ASSERT_TRUE(mapped.ok());

  ASSERT_TRUE(small.Save(file.path()).ok());
  for (graph::NodeId u = 1900; u < 2000; ++u) {
    for (graph::NodeId v : {graph::NodeId{0}, graph::NodeId{1999}, u}) {
      ASSERT_EQ(mapped.value().ScoreOnly(u, v), big.ScoreOnly(u, v))
          << u << "->" << v;
    }
  }
  auto reloaded = reach::TwoHopIndex::LoadMapped(file.path(), &small_graph);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(ReadFileBytes(file.path()).size(), reloaded.value().MappedBytes());
  // The temp file was renamed away, not left beside the target.
  const auto dir = std::filesystem::path(file.path()).parent_path();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().rfind(
                  "mel3_republish.mel3.tmp.", 0),
              std::string::npos)
        << entry.path();
  }
}

// ----------------------------------------- concurrent mapped queries

// Read-only queries on one shared mapped index from many threads; TSan
// (verify.sh stage three) checks the zero-copy path stays data-race
// free. Expected values are computed single-threaded first.
TEST(MmapConcurrencyTest, ParallelQueriesOnSharedMapping) {
  auto g = RandomGraph(60, 300, 51);
  auto built = reach::TwoHopIndex::Build(&g, 5);
  TempFile file("mel3_concurrent.mel3");
  ASSERT_TRUE(built.Save(file.path()).ok());
  auto mapped = reach::TwoHopIndex::LoadMapped(file.path(), &g);
  ASSERT_TRUE(mapped.ok());
  const reach::TwoHopIndex& index = mapped.value();

  const uint32_t n = g.num_nodes();
  std::vector<double> expected(n * n);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = 0; v < n; ++v) {
      expected[u * n + v] = built.ScoreOnly(u, v);
    }
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (graph::NodeId u = t; u < n; u += kThreads) {
        for (graph::NodeId v = 0; v < n; ++v) {
          if (index.ScoreOnly(u, v) != expected[u * n + v] ||
              index.ScoreOnly(u, v) != expected[u * n + v]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

}  // namespace
}  // namespace mel
