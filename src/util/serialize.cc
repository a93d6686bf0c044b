#include "util/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace mel {

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_.is_open()) {
    status_ = Status::NotFound("cannot open for writing: " + path);
  }
}

void BinaryWriter::WriteRaw(const void* data, size_t size) {
  if (!status_.ok()) return;
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_.good()) {
    status_ = Status::Internal("write failed");
    return;
  }
  bytes_written_ += size;
}

void BinaryWriter::PadTo(uint64_t offset) {
  if (!status_.ok()) return;
  if (offset < bytes_written_) {
    status_ = Status::Internal("PadTo would seek backwards");
    return;
  }
  static constexpr char kZeros[4096] = {};
  uint64_t remaining = offset - bytes_written_;
  while (remaining > 0 && status_.ok()) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(remaining, sizeof(kZeros)));
    WriteRaw(kZeros, chunk);
    remaining -= chunk;
  }
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  if (!s.empty()) WriteRaw(s.data(), s.size());
}

Status BinaryWriter::Finish() {
  if (status_.ok()) {
    out_.flush();
    if (!out_.good()) status_ = Status::Internal("flush failed");
  }
  out_.close();
  return status_;
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_.is_open()) {
    status_ = Status::NotFound("cannot open for reading: " + path);
  }
}

void BinaryReader::ReadRaw(void* data, size_t size) {
  if (!status_.ok()) return;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (in_.gcount() != static_cast<std::streamsize>(size)) {
    status_ = Status::OutOfRange("unexpected end of file");
  }
}

uint8_t BinaryReader::ReadU8() {
  uint8_t v = 0;
  ReadRaw(&v, 1);
  return v;
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

float BinaryReader::ReadFloat() {
  float v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

double BinaryReader::ReadDouble() {
  double v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

std::string BinaryReader::ReadString() {
  uint64_t size = ReadU64();
  if (!status_.ok() || size > kMaxElements) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument("corrupt string length");
    }
    return {};
  }
  std::string s(size, '\0');
  if (size > 0) ReadRaw(s.data(), size);
  if (!status_.ok()) s.clear();
  return s;
}

// ------------------------------------------------------------------ MEL3

uint64_t Mel3Checksum(const void* data, size_t size) {
  // 8 bytes per step with a multiply/xor-shift mix (xorshift-multiply in
  // the style of splitmix64). Word-wise so checksumming runs at memory
  // bandwidth rather than byte-at-a-time FNV speed.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0x9e3779b97f4a7c15ull ^ size;
  while (size >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h ^= w;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    p += 8;
    size -= 8;
  }
  if (size > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, size);
    h ^= w;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return h;
}

namespace {

uint64_t AlignUp(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

/// Serializes the header (checksum field zeroed) plus the table into one
/// buffer — the byte range `header_checksum` covers on disk.
std::vector<uint8_t> HeaderAndTableBytes(
    const Mel3Header& header, std::span<const Mel3BlockRecord> table) {
  Mel3Header h = header;
  h.header_checksum = 0;
  std::vector<uint8_t> bytes(sizeof(Mel3Header) +
                             table.size() * sizeof(Mel3BlockRecord));
  std::memcpy(bytes.data(), &h, sizeof(h));
  if (!table.empty()) {
    std::memcpy(bytes.data() + sizeof(h), table.data(),
                table.size() * sizeof(Mel3BlockRecord));
  }
  return bytes;
}

/// fsync(2) of a file or directory by path.
Status FsyncPath(const std::string& path, int extra_flags) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | extra_flags);
  const bool ok = fd >= 0 && ::fsync(fd) == 0;
  const int err = errno;
  if (fd >= 0) ::close(fd);
  if (!ok) {
    return Status::Internal("fsync failed: " + path + ": " +
                            std::strerror(err));
  }
  return Status::OK();
}

}  // namespace

Status WriteMel3File(const std::string& path, uint32_t inner_magic,
                     uint32_t inner_version, uint32_t num_nodes,
                     uint32_t max_hops,
                     std::span<const Mel3BlockDesc> blocks) {
  if (blocks.size() > kMel3MaxBlocks) {
    return Status::InvalidArgument("too many MEL3 blocks");
  }
  // Lay the blocks out first: payloads at ascending sector-aligned
  // offsets, file padded out to a whole sector at the end.
  std::vector<Mel3BlockRecord> table(blocks.size());
  uint64_t cursor = AlignUp(
      sizeof(Mel3Header) + blocks.size() * sizeof(Mel3BlockRecord),
      kMel3Alignment);
  for (size_t i = 0; i < blocks.size(); ++i) {
    const Mel3BlockDesc& b = blocks[i];
    Mel3BlockRecord& rec = table[i];
    rec.offset = cursor;
    rec.length = b.count * b.elem_size;
    rec.count = b.count;
    rec.elem_size = b.elem_size;
    rec.kind = static_cast<uint32_t>(b.kind);
    rec.checksum = Mel3Checksum(b.data, static_cast<size_t>(rec.length));
    cursor = AlignUp(cursor + rec.length, kMel3Alignment);
  }

  Mel3Header header = {};
  header.magic = kMel3Magic;
  header.container_version = kMel3Version;
  header.inner_magic = inner_magic;
  header.inner_version = inner_version;
  header.num_nodes = num_nodes;
  header.max_hops = max_hops;
  header.block_count = static_cast<uint32_t>(blocks.size());
  header.file_size = cursor;
  header.header_checksum = Mel3Checksum(
      HeaderAndTableBytes(header, table).data(),
      sizeof(Mel3Header) + table.size() * sizeof(Mel3BlockRecord));

  // Atomic republish: the bytes go to a temp file in the target's
  // directory, which is fsynced and then renamed over the target. A
  // reader that mapped the old file keeps its inode and pages (rewriting
  // in place would truncate them under it: SIGBUS on the next fault),
  // and a crash leaves the old file or the new one, never a torn mix.
  static std::atomic<uint64_t> temp_seq{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                           "." + std::to_string(temp_seq.fetch_add(1));
  BinaryWriter writer(temp);
  writer.WriteBytes(&header, sizeof(header));
  if (!table.empty()) {
    writer.WriteBytes(table.data(),
                      table.size() * sizeof(Mel3BlockRecord));
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    writer.PadTo(table[i].offset);
    if (table[i].length > 0) {
      writer.WriteBytes(blocks[i].data,
                        static_cast<size_t>(table[i].length));
    }
  }
  writer.PadTo(header.file_size);
  Status status = writer.Finish();
  if (status.ok()) status = FsyncPath(temp, 0);
  if (status.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::Internal("cannot rename " + temp + " over " + path +
                              ": " + std::strerror(errno));
  }
  if (!status.ok()) {
    std::remove(temp.c_str());
    return status;
  }
  // Makes the rename itself durable.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  return FsyncPath(dir.empty() ? "." : dir.string(), O_DIRECTORY);
}

Result<Mel3View> Mel3View::Parse(
    std::shared_ptr<const util::MmapFile> file,
    uint32_t expect_inner_magic) {
  if (file == nullptr) {
    return Status::InvalidArgument("null mapping");
  }
  if (file->size() < sizeof(Mel3Header)) {
    return Status::InvalidArgument("truncated MEL3 header");
  }
  Mel3View view;
  std::memcpy(&view.header_, file->data(), sizeof(Mel3Header));
  const Mel3Header& h = view.header_;
  if (h.magic != kMel3Magic) {
    return Status::InvalidArgument("not a MEL3 container");
  }
  if (h.container_version != kMel3Version) {
    return Status::InvalidArgument("unsupported MEL3 container version " +
                                   std::to_string(h.container_version));
  }
  if (h.block_count > kMel3MaxBlocks) {
    return Status::InvalidArgument("corrupt MEL3 block count");
  }
  const uint64_t table_end =
      sizeof(Mel3Header) + uint64_t{h.block_count} * sizeof(Mel3BlockRecord);
  if (table_end > file->size()) {
    return Status::InvalidArgument("truncated MEL3 block table");
  }
  if (h.file_size != file->size()) {
    return Status::InvalidArgument(
        "MEL3 file size mismatch (header says " +
        std::to_string(h.file_size) + ", file is " +
        std::to_string(file->size()) + " bytes)");
  }
  view.table_.resize(h.block_count);
  if (h.block_count > 0) {
    std::memcpy(view.table_.data(), file->data() + sizeof(Mel3Header),
                h.block_count * sizeof(Mel3BlockRecord));
  }
  const auto covered = HeaderAndTableBytes(view.header_, view.table_);
  if (Mel3Checksum(covered.data(), covered.size()) != h.header_checksum) {
    return Status::InvalidArgument("corrupt MEL3 header checksum");
  }
  for (const Mel3BlockRecord& rec : view.table_) {
    if (rec.offset % kMel3Alignment != 0) {
      return Status::InvalidArgument("misaligned MEL3 block offset");
    }
    if (rec.elem_size == 0 || rec.length != rec.count * rec.elem_size) {
      return Status::InvalidArgument("corrupt MEL3 block length");
    }
    if (rec.offset > file->size() ||
        rec.length > file->size() - rec.offset) {
      return Status::InvalidArgument("MEL3 block out of bounds");
    }
  }
  if (h.inner_magic != expect_inner_magic) {
    return Status::InvalidArgument(
        "MEL3 container wraps a different index kind");
  }
  view.file_ = std::move(file);
  return view;
}

const Mel3BlockRecord* Mel3View::Find(Mel3BlockKind kind) const {
  for (const Mel3BlockRecord& rec : table_) {
    if (rec.kind == static_cast<uint32_t>(kind)) return &rec;
  }
  return nullptr;
}

Status Mel3View::VerifyBlockChecksums() const {
  for (const Mel3BlockRecord& rec : table_) {
    const uint64_t got = Mel3Checksum(file_->data() + rec.offset,
                                      static_cast<size_t>(rec.length));
    if (got != rec.checksum) {
      return Status::InvalidArgument(
          "MEL3 block checksum mismatch (kind " +
          std::to_string(rec.kind) + ")");
    }
  }
  return Status::OK();
}

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted the separator
  }
  if (!first_in_scope_.empty()) {
    if (!first_in_scope_.back()) *out_ << ',';
    first_in_scope_.back() = false;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  *out_ << '{';
  first_in_scope_.push_back(true);
}

void JsonWriter::EndObject() {
  first_in_scope_.pop_back();
  *out_ << '}';
}

void JsonWriter::BeginArray() {
  Separate();
  *out_ << '[';
  first_in_scope_.push_back(true);
}

void JsonWriter::EndArray() {
  first_in_scope_.pop_back();
  *out_ << ']';
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  *out_ << '"';
  WriteEscaped(key);
  *out_ << "\":";
  pending_key_ = true;
}

void JsonWriter::Value(uint64_t v) {
  Separate();
  *out_ << v;
}

void JsonWriter::Value(int64_t v) {
  Separate();
  *out_ << v;
}

void JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    *out_ << "null";
    return;
  }
  // %.17g round-trips doubles but is noisy; metrics exports are read by
  // humans and plotting scripts, so 6 significant digits suffice.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out_ << buf;
}

void JsonWriter::Value(std::string_view v) {
  Separate();
  *out_ << '"';
  WriteEscaped(v);
  *out_ << '"';
}

void JsonWriter::Value(bool v) {
  Separate();
  *out_ << (v ? "true" : "false");
}

void JsonWriter::WriteEscaped(std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out_ << "\\\"";
        break;
      case '\\':
        *out_ << "\\\\";
        break;
      case '\n':
        *out_ << "\\n";
        break;
      case '\t':
        *out_ << "\\t";
        break;
      case '\r':
        *out_ << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out_ << buf;
        } else {
          *out_ << c;
        }
    }
  }
}

}  // namespace mel
