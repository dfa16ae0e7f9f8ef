#ifndef PBSM_STORAGE_HEAP_FILE_H_
#define PBSM_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace pbsm {

/// Object identifier: the physical address of a record in a heap file.
///
/// OIDs order records by physical placement — sorting OIDs sorts disk
/// accesses, which is exactly what the refinement step exploits.
struct Oid {
  uint32_t page_no = 0;
  uint32_t slot = 0;

  uint64_t Encode() const {
    return (static_cast<uint64_t>(page_no) << 32) | slot;
  }
  static Oid Decode(uint64_t v) {
    return Oid{static_cast<uint32_t>(v >> 32), static_cast<uint32_t>(v)};
  }

  friend bool operator==(const Oid& a, const Oid& b) {
    return a.page_no == b.page_no && a.slot == b.slot;
  }
  friend bool operator<(const Oid& a, const Oid& b) {
    return a.Encode() < b.Encode();
  }
};

/// A slotted-page heap file of variable-length records.
///
/// Page layout: [u16 slot_count][u16 free_offset][slot dir ...][... data].
/// Slot i stores {u16 offset, u16 length}; deleted slots are not supported
/// (the workloads are append-only, as in the paper's bulk-loaded relations).
class HeapFile {
 public:
  /// Creates a new, empty heap file named `name`.
  static Result<HeapFile> Create(BufferPool* pool, const std::string& name);

  /// Wraps an existing file id (e.g. reopened relation).
  HeapFile(BufferPool* pool, FileId file, uint32_t num_pages,
           uint64_t num_records)
      : pool_(pool),
        file_(file),
        num_pages_(num_pages),
        num_records_(num_records) {}

  /// Appends a record; returns its OID. Fails if the record cannot fit on an
  /// empty page.
  Result<Oid> Append(const char* data, size_t size);
  Result<Oid> Append(const std::string& record) {
    return Append(record.data(), record.size());
  }

  /// Reads the record at `oid` into `out` (replacing its contents). A
  /// copying wrapper over FetchView.
  Status Fetch(Oid oid, std::string* out) const;

  /// Zero-copy read: points `*data` / `*size` at the record's bytes inside
  /// the page pinned by `*page`. `*page` is the caller's page-run cursor: it
  /// is re-pinned only when `oid` lies on a different page than the one it
  /// holds, so a run of same-page OIDs (refinement's sorted fetches) costs
  /// one pool round-trip. The bytes stay valid while `*page` keeps the pin.
  /// A bad page or slot returns OutOfRange.
  Status FetchView(Oid oid, PageHandle* page, const char** data,
                   size_t* size) const;

  /// Full-file scan: invokes `fn(oid, data, size)` for every record in
  /// physical order. `fn` returns a Status; a non-OK status aborts the scan.
  template <typename Fn>
  Status Scan(Fn fn) const;

  /// Scans only pages [first_page, end_page) — the unit the parallel filter
  /// step uses to range-split a relation across worker threads.
  template <typename Fn>
  Status ScanPages(uint32_t first_page, uint32_t end_page, Fn fn) const;

  /// Pull-style sequential cursor over all records in physical order.
  /// Holds at most one pinned page between calls.
  class Cursor {
   public:
    explicit Cursor(const HeapFile* heap) : heap_(heap) {}

    /// Reads the next record; returns false at end of file.
    Result<bool> Next(Oid* oid, std::string* record);

   private:
    const HeapFile* heap_;
    uint32_t page_no_ = 0;
    uint32_t slot_ = 0;
    PageHandle page_;
  };

  Cursor NewCursor() const { return Cursor(this); }

  FileId file() const { return file_; }
  uint32_t num_pages() const { return num_pages_; }
  uint64_t num_records() const { return num_records_; }
  uint64_t bytes() const {
    return static_cast<uint64_t>(num_pages_) * kPageSize;
  }

  /// Maximum record payload an empty page can hold.
  static constexpr size_t MaxRecordSize() {
    return kPageSize - kHeaderSize - kSlotSize;
  }

 private:
  static constexpr size_t kHeaderSize = 4;  // slot_count + free_offset.
  static constexpr size_t kSlotSize = 4;    // offset + length.

  static uint16_t GetU16(const char* p);
  static void PutU16(char* p, uint16_t v);

  BufferPool* pool_ = nullptr;
  FileId file_ = kInvalidFileId;
  uint32_t num_pages_ = 0;
  uint64_t num_records_ = 0;
};

template <typename Fn>
Status HeapFile::Scan(Fn fn) const {
  return ScanPages(0, num_pages_, fn);
}

template <typename Fn>
Status HeapFile::ScanPages(uint32_t first_page, uint32_t end_page,
                           Fn fn) const {
  if (end_page > num_pages_) end_page = num_pages_;
  for (uint32_t page_no = first_page; page_no < end_page; ++page_no) {
    PBSM_ASSIGN_OR_RETURN(PageHandle page,
                          pool_->FetchPage(PageId{file_, page_no}));
    const char* base = page.data();
    const uint16_t slots = GetU16(base);
    for (uint16_t s = 0; s < slots; ++s) {
      const char* slot_ptr = base + kHeaderSize + s * kSlotSize;
      const uint16_t off = GetU16(slot_ptr);
      const uint16_t len = GetU16(slot_ptr + 2);
      PBSM_RETURN_IF_ERROR(fn(Oid{page_no, s}, base + off, len));
    }
  }
  return Status::OK();
}

}  // namespace pbsm

#endif  // PBSM_STORAGE_HEAP_FILE_H_
