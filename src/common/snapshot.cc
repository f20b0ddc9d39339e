#include "common/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>

namespace tsd {
namespace {

constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kTableEntrySize = 32;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// `<path>.tmp.<pid>.<n>`, n counting writers process-wide: no two live
/// writers share a temporary, even when they save the same path.
std::string TemporaryPathFor(const std::string& path) {
  static std::atomic<std::uint64_t> next_writer{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(next_writer.fetch_add(1, std::memory_order_relaxed));
}

/// Encodes one section-table entry at `out` (32 bytes).
void EncodeTableEntry(std::uint64_t tag, std::uint64_t offset,
                      std::uint64_t length, std::uint64_t checksum,
                      std::byte* out) {
  EncodeU64Le(tag, out);
  EncodeU64Le(offset, out + 8);
  EncodeU64Le(length, out + 16);
  EncodeU64Le(checksum, out + 24);
}

}  // namespace

std::string SnapshotTagName(std::uint64_t tag) {
  std::string name;
  for (int i = 0; i < 8; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    if (c == '\0') break;
    name.push_back((c >= 0x20 && c < 0x7F) ? c : '?');
  }
  return name.empty() ? "(empty)" : name;
}

std::uint64_t Checksum64(std::span<const std::byte> bytes) {
  // FNV-1a-style mixing over four independent 8-byte-word lanes, folded at
  // the end. The four lanes run without a loop-carried dependency between
  // them, so the multiplies pipeline and the pass stays far below the mmap
  // fast path's budget even on multi-GB snapshots. Byte-order-independent
  // on the only hosts that can open a snapshot (little-endian, enforced by
  // the header's endian marker). This is an integrity check against torn
  // writes and bit rot, not a MAC.
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t lanes[4] = {kBasis, kBasis + 1, kBasis + 2, kBasis + 3};
  const std::size_t words = bytes.size() / 8;
  const std::size_t blocks = words / 4;
  const std::byte* p = bytes.data();
  for (std::size_t i = 0; i < blocks; ++i) {
    for (int lane = 0; lane < 4; ++lane) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      p += 8;
      lanes[lane] = (lanes[lane] ^ word) * kPrime;
    }
  }
  // Remaining whole words, then tail bytes, through lane 0 sequentially.
  for (std::size_t w = blocks * 4; w < words; ++w) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    p += 8;
    lanes[0] = (lanes[0] ^ word) * kPrime;
  }
  for (std::size_t i = words * 8; i < bytes.size(); ++i) {
    lanes[0] = (lanes[0] ^ std::to_integer<std::uint8_t>(bytes[i])) * kPrime;
  }
  // Fold the lanes and the length (the lane split alone would let inputs of
  // different lengths collide trivially).
  std::uint64_t hash = kBasis ^ (bytes.size() * kPrime);
  for (const std::uint64_t lane : lanes) {
    hash = (hash ^ lane) * kPrime;
    hash ^= hash >> 32;
  }
  return hash;
}

// ---------------------------------------------------------------- writer

SnapshotWriter::SnapshotWriter(const std::string& path)
    : path_(path), temp_path_(TemporaryPathFor(path)) {
  TSD_CHECK_MSG(HostIsLittleEndian(),
                "snapshot writing requires a little-endian host");
  out_.open(temp_path_, std::ios::binary | std::ios::trunc);
  TSD_CHECK_MSG(out_.good(), "cannot open file for writing: " << path);
  // Header placeholder; Finish() seeks back and fills it in.
  const char zeros[kHeaderSize] = {};
  out_.write(zeros, kHeaderSize);
  cursor_ = kHeaderSize;
}

SnapshotWriter::~SnapshotWriter() {
  // Until Finish() renames it into place the temporary is all this writer
  // has created, so an abandoned save leaves `path_` as it was.
  if (!temp_path_.empty()) {
    out_.close();
    ::unlink(temp_path_.c_str());
  }
  // Forgetting Finish() is misuse, flagged in debug builds, but not while an
  // exception unwinds through the save: the throw would terminate.
  if (std::uncaught_exceptions() == 0) TSD_DCHECK(finished_);
}

void SnapshotWriter::PadToAlignment() {
  static const char zeros[kSnapshotAlignment] = {};
  const std::size_t misalign = cursor_ % kSnapshotAlignment;
  if (misalign != 0) {
    const std::size_t pad = kSnapshotAlignment - misalign;
    out_.write(zeros, static_cast<std::streamsize>(pad));
    cursor_ += pad;
  }
}

void SnapshotWriter::AddBytes(std::uint64_t tag,
                              std::span<const std::byte> bytes) {
  TSD_CHECK_MSG(!finished_, "AddBytes after Finish");
  for (const Section& section : sections_) {
    TSD_CHECK_MSG(section.tag != tag,
                  "duplicate snapshot section '" << SnapshotTagName(tag)
                                                 << "'");
  }
  PadToAlignment();
  Section section;
  section.tag = tag;
  section.offset = cursor_;
  section.length = bytes.size();
  section.checksum = Checksum64(bytes);
  sections_.push_back(section);
  if (!bytes.empty()) {
    out_.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    cursor_ += bytes.size();
  }
  TSD_CHECK_MSG(out_.good(), "write failed: " << path_);
}

void SnapshotWriter::Finish() {
  TSD_CHECK_MSG(!finished_, "Finish called twice");
  finished_ = true;
  PadToAlignment();
  const std::uint64_t table_offset = cursor_;

  std::vector<std::byte> table(sections_.size() * kTableEntrySize);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    EncodeTableEntry(s.tag, s.offset, s.length, s.checksum,
                     table.data() + i * kTableEntrySize);
  }
  if (!table.empty()) {
    out_.write(reinterpret_cast<const char*>(table.data()),
               static_cast<std::streamsize>(table.size()));
    cursor_ += table.size();
  }

  std::byte header[kHeaderSize] = {};
  EncodeU64Le(kSnapshotMagic, header);
  EncodeU32Le(kSnapshotFormatVersion, header + 8);
  // Written via native memcpy on this (little-endian, checked in the
  // constructor) host; a reader on a host with different endianness
  // decodes a different value and refuses the file.
  std::memcpy(header + 12, &kSnapshotEndianMarker, 4);
  EncodeU64Le(cursor_, header + 16);  // file_size
  EncodeU64Le(table_offset, header + 24);
  EncodeU32Le(static_cast<std::uint32_t>(sections_.size()), header + 32);
  // header + 36: reserved, zero.
  EncodeU64Le(Checksum64(table), header + 40);

  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header), kHeaderSize);
  out_.close();
  TSD_CHECK_MSG(out_.good(), "write failed: " << path_);

  // Unlink first: on ext4 a rename over an existing file forces write-back
  // of the new one (auto_da_alloc), hundreds of milliseconds; onto a free
  // name it does not.
  ::unlink(path_.c_str());
  const bool renamed = std::rename(temp_path_.c_str(), path_.c_str()) == 0;
  TSD_CHECK_MSG(renamed, "cannot move the snapshot into place: "
                             << path_ << ": " << std::strerror(errno));
  temp_path_.clear();
}

// ---------------------------------------------------------------- reader

bool SnapshotReader::Open(const std::string& path, SnapshotReader* out,
                          std::string* error, const Options& options) {
  *out = SnapshotReader();
  if (!HostIsLittleEndian()) {
    SetError(error, "snapshot loading requires a little-endian host");
    return false;
  }
  auto file = std::make_shared<MappedFile>();
  if (!MappedFile::Open(path, file.get(), error)) return false;
  const std::span<const std::byte> bytes = file->bytes();

  if (bytes.size() < kHeaderSize) {
    SetError(error, "'" + path + "': truncated snapshot (" +
                        std::to_string(bytes.size()) +
                        " bytes, header needs 64)");
    return false;
  }
  const std::uint64_t magic = DecodeU64Le(bytes.data());
  if (magic != kSnapshotMagic) {
    SetError(error, "'" + path + "': not a TSD snapshot (bad magic)");
    return false;
  }
  const std::uint32_t version = DecodeU32Le(bytes.data() + 8);
  if (version != kSnapshotFormatVersion) {
    SetError(error, "'" + path + "': unsupported snapshot format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotFormatVersion) + ")");
    return false;
  }
  std::uint32_t endian_marker = 0;
  std::memcpy(&endian_marker, bytes.data() + 12, 4);
  if (endian_marker != kSnapshotEndianMarker) {
    SetError(error, "'" + path +
                        "': snapshot was written on a host with different "
                        "endianness");
    return false;
  }
  const std::uint64_t file_size = DecodeU64Le(bytes.data() + 16);
  if (file_size != bytes.size()) {
    SetError(error, "'" + path + "': file size mismatch (header says " +
                        std::to_string(file_size) + ", file has " +
                        std::to_string(bytes.size()) +
                        " bytes) — truncated or trailing garbage");
    return false;
  }
  const std::uint64_t table_offset = DecodeU64Le(bytes.data() + 24);
  const std::uint32_t section_count = DecodeU32Le(bytes.data() + 32);
  const std::uint64_t table_checksum = DecodeU64Le(bytes.data() + 40);
  if (section_count > kSnapshotMaxSections) {
    SetError(error, "'" + path + "': implausible section count " +
                        std::to_string(section_count));
    return false;
  }
  const std::uint64_t table_bytes =
      std::uint64_t{section_count} * kTableEntrySize;
  if (table_offset % kSnapshotAlignment != 0 ||
      table_offset < kHeaderSize || table_offset > bytes.size() ||
      table_bytes > bytes.size() - table_offset) {
    SetError(error, "'" + path + "': section table out of bounds");
    return false;
  }
  const std::span<const std::byte> table =
      bytes.subspan(table_offset, table_bytes);
  if (Checksum64(table) != table_checksum) {
    SetError(error, "'" + path + "': section table checksum mismatch");
    return false;
  }

  std::vector<Section> sections;
  sections.reserve(section_count);
  ByteCursor cursor(table);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    Section section = {};
    std::uint64_t checksum = 0;
    // The table span was bounds-checked above, so these reads cannot fail;
    // the cursor keeps the parse bounds-checked by construction anyway.
    if (!cursor.ReadU64Le(&section.tag) ||
        !cursor.ReadU64Le(&section.offset) ||
        !cursor.ReadU64Le(&section.length) || !cursor.ReadU64Le(&checksum)) {
      SetError(error, "'" + path + "': section table truncated");
      return false;
    }
    const std::string name = SnapshotTagName(section.tag);
    if (section.offset % kSnapshotAlignment != 0 ||
        section.offset < kHeaderSize || section.offset > bytes.size() ||
        section.length > bytes.size() - section.offset) {
      SetError(error, "'" + path + "': section '" + name +
                          "' out of bounds (offset " +
                          std::to_string(section.offset) + ", length " +
                          std::to_string(section.length) + ", file " +
                          std::to_string(bytes.size()) + ")");
      return false;
    }
    if (section.offset + section.length > table_offset) {
      SetError(error, "'" + path + "': section '" + name +
                          "' overlaps the section table");
      return false;
    }
    for (const Section& other : sections) {
      if (section.tag == other.tag) {
        SetError(error,
                 "'" + path + "': duplicate section '" + name + "'");
        return false;
      }
      const bool disjoint =
          section.offset >= other.offset + other.length ||
          other.offset >= section.offset + section.length;
      if (!disjoint) {
        SetError(error, "'" + path + "': section '" + name +
                            "' overlaps section '" +
                            SnapshotTagName(other.tag) + "'");
        return false;
      }
    }
    if (options.verify_checksums &&
        Checksum64(bytes.subspan(section.offset, section.length)) !=
            checksum) {
      SetError(error,
               "'" + path + "': checksum mismatch in section '" + name + "'");
      return false;
    }
    sections.push_back(section);
  }

  out->file_ = std::move(file);
  out->sections_ = std::move(sections);
  return true;
}

const SnapshotReader::Section* SnapshotReader::FindSection(
    std::uint64_t tag) const {
  for (const Section& section : sections_) {
    if (section.tag == tag) return &section;
  }
  return nullptr;
}

bool SnapshotReader::ReadBytes(std::uint64_t tag,
                               std::span<const std::byte>* out,
                               std::string* error) const {
  const Section* section = FindSection(tag);
  if (section == nullptr) {
    SetError(error,
             "snapshot has no section '" + SnapshotTagName(tag) + "'");
    return false;
  }
  *out = file_->bytes().subspan(section->offset, section->length);
  return true;
}

bool SnapshotReader::ReadScalars(std::uint64_t tag,
                                 std::span<std::uint64_t> out,
                                 std::string* error) const {
  std::span<const std::uint64_t> values;
  if (!Read<std::uint64_t>(tag, &values, error)) return false;
  if (values.size() != out.size()) {
    SetError(error, "section '" + SnapshotTagName(tag) + "': expected " +
                        std::to_string(out.size()) + " scalars, found " +
                        std::to_string(values.size()));
    return false;
  }
  std::copy(values.begin(), values.end(), out.begin());
  return true;
}

}  // namespace tsd
