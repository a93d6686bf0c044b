#ifndef MEL_UTIL_SERIALIZE_H_
#define MEL_UTIL_SERIALIZE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace mel {

/// \brief Little-endian binary writer for index files.
///
/// Failures are sticky: any write after an I/O error is a no-op and
/// Finish() reports the first failure.
class BinaryWriter {
 public:
  /// Opens (truncates) the file for writing.
  explicit BinaryWriter(const std::string& path);

  void WriteU8(uint8_t v) { WriteRaw(&v, 1); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteFloat(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  /// Length-prefixed byte string.
  void WriteString(const std::string& s);

  /// Length-prefixed vector of fixed-width elements, written as one raw
  /// block after the length.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(T));
  }

  /// Raw bytes, no length prefix — the MEL3 writer lays blocks out at
  /// precomputed offsets and pads between them explicitly.
  void WriteBytes(const void* data, size_t size) { WriteRaw(data, size); }

  /// Writes zero bytes until `offset` (absolute from file start). It is
  /// an error to seek backwards.
  void PadTo(uint64_t offset);

  uint64_t bytes_written() const { return bytes_written_; }

  /// Flushes and closes; returns the first error, if any.
  Status Finish();

 private:
  void WriteRaw(const void* data, size_t size);

  std::ofstream out_;
  Status status_;
  uint64_t bytes_written_ = 0;
};

/// \brief Little-endian binary reader matching BinaryWriter.
///
/// Failures (including truncated files) are sticky; callers check
/// status() once after reading.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  float ReadFloat();
  double ReadDouble();
  std::string ReadString();

  /// Reads a vector written by WriteVector: one length read plus one raw
  /// read for the payload. Returns an empty vector on error; status() is
  /// sticky.
  template <typename T>
  std::vector<T> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out;
    uint64_t size = ReadU64();
    // Guard against absurd sizes from corrupt headers.
    if (!status_.ok() || size > kMaxElements) {
      if (status_.ok()) {
        status_ = Status::InvalidArgument("corrupt vector length");
      }
      return out;
    }
    out.resize(size);
    if (size > 0) ReadRaw(out.data(), size * sizeof(T));
    if (!status_.ok()) out.clear();
    return out;
  }

  const Status& status() const { return status_; }

  static constexpr uint64_t kMaxElements = 1ull << 33;

 private:
  void ReadRaw(void* data, size_t size);

  std::ifstream in_;
  Status status_;
};

// ---------------------------------------------------------------------------
// MEL3 — sector-aligned on-disk index container (docs/ARCHITECTURE.md).
//
// Layout:
//   [Mel3Header (64 B, fixed offset 0)]
//   [Mel3BlockRecord x block_count]
//   ...zero padding...
//   [block payload]   <- every payload starts at a 4096-byte multiple
//   ...zero padding...
//   [block payload]
//   ...zero padding to header.file_size (itself 4096-aligned)...
//
// The header + block table are covered by `header_checksum`; each block
// payload carries its own checksum in its table record. A zero-copy
// loader validates the header and table only (one page), binds
// `std::span` views at the recorded offsets, and never touches payload
// pages until queries fault them in. Sector alignment means every
// payload begins on a page boundary, so arena element alignment holds
// for any trivially-copyable element type and paging I/O is never
// split across blocks.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kMel3Magic = 0x4d454c33;  // "MEL3"
inline constexpr uint32_t kMel3Version = 1;
inline constexpr uint64_t kMel3Alignment = 4096;
inline constexpr uint32_t kMel3MaxBlocks = 64;

/// Identifies what an arena block holds. Kinds are per-inner-format:
/// the 2-hop cover writes all six, the distance-label ablation the
/// first four.
enum class Mel3BlockKind : uint32_t {
  kInOffsets = 1,
  kInEntries = 2,
  kOutOffsets = 3,
  kOutEntries = 4,
  kFolloweeOffsets = 5,
  kFolloweeArena = 6,
};

/// Fixed 64-byte container header at file offset 0. `inner_magic` /
/// `inner_version` carry the wrapped index format (the pre-MEL3 "MEL2" /
/// "MELD" magics live on as inner magics).
struct Mel3Header {
  uint32_t magic;              // kMel3Magic
  uint32_t container_version;  // kMel3Version
  uint32_t inner_magic;        // e.g. "MEL2" (2-hop) or "MELD" (DLI)
  uint32_t inner_version;
  uint32_t num_nodes;
  uint32_t max_hops;
  uint32_t block_count;
  uint32_t reserved = 0;
  uint64_t file_size;        // total bytes incl. trailing padding
  uint64_t header_checksum;  // over header (this field zeroed) + table
  uint64_t reserved2[2] = {0, 0};
};
static_assert(sizeof(Mel3Header) == 64, "MEL3 header is a fixed 64 bytes");

/// One entry of the block table following the header.
struct Mel3BlockRecord {
  uint64_t offset;    // from file start; multiple of kMel3Alignment
  uint64_t length;    // payload bytes == count * elem_size
  uint64_t count;     // element count
  uint32_t elem_size; // sizeof the element type
  uint32_t kind;      // Mel3BlockKind
  uint64_t checksum;  // Mel3Checksum of the payload bytes
};
static_assert(sizeof(Mel3BlockRecord) == 40, "MEL3 record is 40 bytes");

/// Fast 64-bit content checksum (word-at-a-time multiply/xor mix; not
/// cryptographic — guards against truncation and bit rot, not malice).
uint64_t Mel3Checksum(const void* data, size_t size);

/// Describes one arena to be written into a MEL3 container.
struct Mel3BlockDesc {
  Mel3BlockKind kind;
  uint32_t elem_size;
  uint64_t count;
  const void* data;

  template <typename T>
  static Mel3BlockDesc Of(Mel3BlockKind kind, std::span<const T> span) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Mel3BlockDesc{kind, static_cast<uint32_t>(sizeof(T)),
                         span.size(), span.data()};
  }
};

/// Writes a complete MEL3 container: header, block table, then each
/// block zero-padded out to the next sector boundary. Deterministic for
/// identical inputs (padding is all zeros), so save -> load -> save is
/// byte-identical. The file is replaced atomically — written to a temp
/// file beside it, fsynced, renamed over `path`, and the directory
/// fsynced — so live mappings of the previous file stay valid.
Status WriteMel3File(const std::string& path, uint32_t inner_magic,
                     uint32_t inner_version, uint32_t num_nodes,
                     uint32_t max_hops,
                     std::span<const Mel3BlockDesc> blocks);

/// \brief Parsed, structurally-validated view over a mapped MEL3 file.
///
/// `Parse` validates the header and block table (magic, versions, sizes,
/// sector alignment, bounds, table checksum) without reading any block
/// payload. Spans returned by `Block` point straight into the mapping;
/// the view shares ownership of the `MmapFile` and callers keep either
/// the view or their own `shared_ptr` alive for as long as spans are in
/// use.
class Mel3View {
 public:
  /// `expect_inner_magic` rejects containers wrapping a different index
  /// kind (a DLI file is not a 2-hop file even inside MEL3).
  static Result<Mel3View> Parse(
      std::shared_ptr<const util::MmapFile> file,
      uint32_t expect_inner_magic);

  const Mel3Header& header() const { return header_; }
  const std::shared_ptr<const util::MmapFile>& file() const {
    return file_;
  }

  /// Table record for `kind`, or nullptr when the container has none.
  const Mel3BlockRecord* Find(Mel3BlockKind kind) const;

  /// Zero-copy typed view of a block. Missing blocks and element-size
  /// mismatches are corrupt-container errors.
  template <typename T>
  Result<std::span<const T>> Block(Mel3BlockKind kind) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const Mel3BlockRecord* rec = Find(kind);
    if (rec == nullptr) {
      return Status::InvalidArgument("MEL3 container missing block kind " +
                                     std::to_string(uint32_t(kind)));
    }
    if (rec->elem_size != sizeof(T)) {
      return Status::InvalidArgument(
          "MEL3 block element size mismatch for kind " +
          std::to_string(uint32_t(kind)));
    }
    return std::span<const T>(
        reinterpret_cast<const T*>(file_->data() + rec->offset),
        static_cast<size_t>(rec->count));
  }

  /// Full payload verification: checksums every block against its table
  /// record. Touches every page (sequential-advised), so only the
  /// copying load and `verify_checksums` mapped loads call it.
  Status VerifyBlockChecksums() const;

 private:
  std::shared_ptr<const util::MmapFile> file_;
  Mel3Header header_;
  std::vector<Mel3BlockRecord> table_;
};

/// \brief Minimal streaming JSON writer for exported reports (metrics
/// snapshots, benchmark sidecar files).
///
/// Commas and nesting are managed automatically; keys are escaped. Only
/// the subset needed by the library is supported: objects, string /
/// integer / double / bool values. Arrays of scalars go through
/// BeginArray/EndArray.
class JsonWriter {
 public:
  /// The stream must outlive the writer.
  explicit JsonWriter(std::ostream* out) : out_(out) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits the key of the next value inside an object.
  void Key(std::string_view key);

  void Value(uint64_t v);
  void Value(int64_t v);
  void Value(double v);  // non-finite values are emitted as null
  void Value(std::string_view v);
  void Value(bool v);

  /// Convenience: Key(key) followed by Value(v).
  template <typename T>
  void KeyValue(std::string_view key, T v) {
    Key(key);
    Value(v);
  }

 private:
  void Separate();  // emits "," between siblings
  void WriteEscaped(std::string_view s);

  std::ostream* out_;
  // One flag per open container: true until the first child is written.
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

}  // namespace mel

#endif  // MEL_UTIL_SERIALIZE_H_
