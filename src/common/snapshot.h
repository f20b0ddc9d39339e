// Zero-copy index snapshots: the versioned on-disk container format and the
// owned-or-mapped flat array it deserializes into.
//
// ## Format (version 1)
//
// A snapshot is a single file holding named byte sections, laid out so that
// loading is open + mmap + validate + bind spans — no parsing, no pointer
// fixup, no per-element work. All scalar fields are explicit little-endian
// fixed-width integers; all payload sections are 64-byte aligned (cache
// line / any SIMD alignment a kernel could want):
//
//   [0, 64)                      header
//   [64, table_offset)           payload sections, 64-byte aligned,
//                                zero-padded in between
//   [table_offset, +32*count)    section table
//
//   header (fixed 64 bytes, trailing bytes zero):
//     u64  magic          "TSDSNAP1" (bytes 54 53 44 53 4E 41 50 31)
//     u32  format_version  kSnapshotFormatVersion
//     u32  endian_marker   0x01020304, written via native memcpy: a reader
//                          that decodes a different value was produced on a
//                          host with different endianness and must refuse
//                          (the bulk arrays below are memcpy'd native)
//     u64  file_size       total bytes; must equal the real file size
//     u64  table_offset    64-byte aligned
//     u32  section_count
//     u32  reserved        zero
//     u64  table_checksum  Checksum64 of the section-table bytes
//
//   section table entry (32 bytes):
//     u64  tag             section name, 8 ASCII bytes (SnapshotTag)
//     u64  offset          64-byte aligned, >= 64
//     u64  length          payload bytes
//     u64  checksum        Checksum64 of the payload bytes
//
// Sections are typed arrays of trivially copyable fixed-width elements; an
// object (graph CSR, TSD forest, GCT supernode slices) is a handful of
// sections sharing a tag prefix plus one small "meta" section of u64
// scalars. Because every per-vertex slice in those objects is already a
// flat offset-indexed range, binding the mapped bytes behind FlatArray
// spans reproduces the exact in-memory representation the builders create.
//
// ## Versioning policy
//
// kSnapshotFormatVersion names the CONTAINER layout above. Object section
// schemas (which tags an object writes and what their elements mean) are
// versioned per object through a "ver" slot in the object's meta section.
// Readers must reject, with a diagnostic, any container version or object
// version they do not know — a snapshot is a cache, so the loud fallback is
// always "rebuild from the edge list". Within one version, a saved
// snapshot's bytes are a pure function of the object contents (sections are
// written in a fixed order with zero padding), which is what the
// save→load→save byte-identity test asserts.
//
// ## Saving
//
// SnapshotWriter never writes its path in place. It streams into a fresh
// temporary in the same directory, `<path>.tmp.<pid>.<n>`, and Finish()
// closes it, unlinks the old path, and renames the temporary over it. Every
// process that has the old file mapped keeps the old inode and therefore
// its pages; truncating in place instead would raise SIGBUS in all of them.
// The unlink comes first because on ext4 a rename over an existing file
// forces write-back of the new one (auto_da_alloc), a stall of hundreds of
// milliseconds. A reader that opens in the short gap between unlink and
// rename gets the ordinary "cannot open" load failure (tsdtool's loud
// rebuild fallback). A writer destroyed without Finish(), e.g. by an
// exception mid-save, removes its temporary and leaves the old snapshot as
// it was. A symlink at `path` is replaced, not followed, and the new file
// takes the umask's mode, not the old file's. Durability is out of scope:
// nothing is fsync'd, so a power loss may lose a save (a snapshot is a
// cache; see above).
//
// ## Reader discipline
//
// SnapshotReader::Open never trusts an on-disk length: every offset/length
// is bounds-checked against the real file size before use, sections may not
// overlap the header, the table, or each other, and section payloads are
// checksummed by default. Every failure is reported by return value with a
// diagnostic — a corrupt snapshot is a clean load failure, never a crash,
// an over-read, or an attacker-sized allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mmap_file.h"
#include "common/serialize.h"

namespace tsd {

inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E53445354ULL;
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;
inline constexpr std::uint32_t kSnapshotEndianMarker = 0x01020304;
inline constexpr std::size_t kSnapshotAlignment = 64;
/// A section table above this is rejected before anything is allocated.
inline constexpr std::uint32_t kSnapshotMaxSections = 4096;

/// Builds a section tag from up to 8 ASCII characters ("graf.off").
constexpr std::uint64_t SnapshotTag(const char* name) {
  std::uint64_t tag = 0;
  for (int i = 0; i < 8 && name[i] != '\0'; ++i) {
    tag |= static_cast<std::uint64_t>(static_cast<unsigned char>(name[i]))
           << (8 * i);
  }
  return tag;
}

/// Renders a tag back to its ASCII name (for diagnostics).
std::string SnapshotTagName(std::uint64_t tag);

/// 64-bit integrity checksum over a byte range: FNV-1a-style mixing over
/// four interleaved 8-byte-word lanes folded with the length at the end.
/// Stateless, stable across platforms that can open a snapshot (the format
/// is little-endian only), and fast enough to verify whole files on the
/// mmap load path — exactly enough to catch torn writes and bit rot. Not a
/// MAC.
std::uint64_t Checksum64(std::span<const std::byte> bytes);

/// A flat immutable array backed by EITHER an owned std::vector (built in
/// memory) OR a borrowed read-only region (bound into a mapped snapshot).
/// Accessors are span-shaped either way, so index/graph code is agnostic to
/// where the bytes live. Whoever binds a view is responsible for keeping
/// the backing mapping alive (the owning object holds the MappedFile).
template <typename T>
class FlatArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  FlatArray() = default;

  FlatArray(const FlatArray& other) { *this = other; }
  FlatArray& operator=(const FlatArray& other) {
    if (this == &other) return *this;
    if (other.owns()) {
      owned_ = other.owned_;
      view_ = owned_;
    } else {
      owned_.clear();
      view_ = other.view_;
    }
    return *this;
  }

  FlatArray(FlatArray&& other) noexcept { *this = std::move(other); }
  FlatArray& operator=(FlatArray&& other) noexcept {
    if (this == &other) return *this;
    const bool owned = other.owns();
    owned_ = std::move(other.owned_);
    view_ = owned ? std::span<const T>(owned_) : other.view_;
    other.owned_.clear();
    other.view_ = {};
    return *this;
  }

  /// Takes ownership of a built vector.
  FlatArray& operator=(std::vector<T> values) {
    owned_ = std::move(values);
    view_ = owned_;
    return *this;
  }

  /// Binds a borrowed read-only view (a mapped snapshot section). Any
  /// previously owned storage is released.
  void BindView(std::span<const T> view) {
    owned_.clear();
    owned_.shrink_to_fit();
    view_ = view;
  }

  /// True when the elements live in owned memory (false: borrowed view).
  bool owns() const { return view_.empty() || view_.data() == owned_.data(); }

  std::span<const T> span() const { return view_; }
  const T* data() const { return view_.data(); }
  const T* begin() const { return view_.data(); }
  const T* end() const { return view_.data() + view_.size(); }
  std::size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T& operator[](std::size_t i) const {
    TSD_DCHECK(i < view_.size());
    return view_[i];
  }
  const T& back() const {
    TSD_DCHECK(!view_.empty());
    return view_[view_.size() - 1];
  }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
};

/// Streams a snapshot to disk: header placeholder, 64-byte aligned payload
/// sections in AddArray order, section table, then the finalized header.
/// The bytes go to a temporary that Finish() renames over `path` ("Saving"
/// above). The writer runs on the trusted save path, so I/O failures and
/// API misuse (duplicate tags, Finish twice) throw tsd::CheckError.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const std::string& path);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Appends one typed array section. Tags must be unique within a file.
  template <typename T>
  void AddArray(std::uint64_t tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddBytes(tag, std::as_bytes(values));
  }

  /// Appends a small section of u64 scalars (object metadata).
  void AddScalars(std::uint64_t tag, std::span<const std::uint64_t> values) {
    AddArray<std::uint64_t>(tag, values);
  }

  void AddBytes(std::uint64_t tag, std::span<const std::byte> bytes);

  /// Writes the section table and header, closes the temporary and renames
  /// it over the path. Must be called exactly once; without it the path is
  /// left untouched.
  void Finish();

 private:
  struct Section {
    std::uint64_t tag;
    std::uint64_t offset;
    std::uint64_t length;
    std::uint64_t checksum;
  };

  void PadToAlignment();

  std::string path_;
  std::string temp_path_;  // empty once Finish() has renamed it into place
  std::ofstream out_;
  std::vector<Section> sections_;
  std::uint64_t cursor_ = 0;
  bool finished_ = false;
};

/// Opens and fully validates a snapshot, then hands out zero-copy spans
/// into the mapping. Copyable: copies share the underlying mapping. An
/// object loaded from a reader must keep `mapping()` alive for as long as
/// it uses the spans.
class SnapshotReader {
 public:
  struct Options {
    /// Verify every section's checksum at open. Costs one pass over the
    /// file (still orders of magnitude cheaper than an index rebuild);
    /// disable only for benchmarking the pure page-table path.
    bool verify_checksums = true;
  };

  SnapshotReader() = default;

  /// Maps `path` and validates the container: magic, version, endianness,
  /// file size, table bounds and checksum, per-section alignment, bounds,
  /// overlap, duplicate tags, payload checksums. On failure returns false
  /// with a diagnostic in `*error` and leaves `*out` empty.
  [[nodiscard]] static bool Open(const std::string& path, SnapshotReader* out,
                                 std::string* error, const Options& options);
  [[nodiscard]] static bool Open(const std::string& path, SnapshotReader* out,
                                 std::string* error) {
    return Open(path, out, error, Options());
  }

  bool Has(std::uint64_t tag) const { return FindSection(tag) != nullptr; }

  /// Binds a typed zero-copy view of one section. Fails (false + `*error`)
  /// when the section is missing or its byte length is not a multiple of
  /// sizeof(T).
  template <typename T>
  [[nodiscard]] bool Read(std::uint64_t tag, std::span<const T>* out,
                          std::string* error) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::span<const std::byte> bytes;
    if (!ReadBytes(tag, &bytes, error)) return false;
    if (bytes.size() % sizeof(T) != 0) {
      if (error != nullptr) {
        *error = "section '" + SnapshotTagName(tag) + "': length " +
                 std::to_string(bytes.size()) +
                 " is not a multiple of element size " +
                 std::to_string(sizeof(T));
      }
      return false;
    }
    // The mapping is page-aligned and offsets are 64-byte aligned, so the
    // reinterpret below is aligned for any fixed-width element type.
    *out = {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
    return true;
  }

  /// Reads a meta section of exactly `out.size()` u64 scalars.
  [[nodiscard]] bool ReadScalars(std::uint64_t tag,
                                 std::span<std::uint64_t> out,
                                 std::string* error) const;

  [[nodiscard]] bool ReadBytes(std::uint64_t tag,
                               std::span<const std::byte>* out,
                               std::string* error) const;

  /// The shared mapping backing every span this reader hands out.
  const std::shared_ptr<const MappedFile>& mapping() const { return file_; }

  std::size_t file_size() const { return file_ ? file_->size() : 0; }
  std::size_t num_sections() const { return sections_.size(); }

 private:
  struct Section {
    std::uint64_t tag;
    std::uint64_t offset;
    std::uint64_t length;
  };

  const Section* FindSection(std::uint64_t tag) const;

  std::shared_ptr<const MappedFile> file_;
  std::vector<Section> sections_;
};

}  // namespace tsd
