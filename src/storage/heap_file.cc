#include "storage/heap_file.h"

#include <cstring>

#include "common/metrics.h"

namespace pbsm {

uint16_t HeapFile::GetU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void HeapFile::PutU16(char* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }

Result<HeapFile> HeapFile::Create(BufferPool* pool, const std::string& name) {
  PBSM_ASSIGN_OR_RETURN(const FileId file, pool->disk()->CreateFile(name));
  return HeapFile(pool, file, 0, 0);
}

Result<Oid> HeapFile::Append(const char* data, size_t size) {
  static Counter* const appends =
      MetricsRegistry::Global().GetCounter("storage.heapfile.appends");
  appends->Add();
  if (size > MaxRecordSize()) {
    return Status::InvalidArgument("record of " + std::to_string(size) +
                                   " bytes exceeds page capacity");
  }
  const uint16_t need = static_cast<uint16_t>(size);

  // Try the last page first; records are append-only.
  if (num_pages_ > 0) {
    const uint32_t page_no = num_pages_ - 1;
    PBSM_ASSIGN_OR_RETURN(PageHandle page,
                          pool_->FetchPage(PageId{file_, page_no}));
    char* base = page.mutable_data();
    const uint16_t slots = GetU16(base);
    const uint16_t free_off = GetU16(base + 2);
    const size_t dir_end = kHeaderSize + (slots + 1) * kSlotSize;
    if (free_off >= need && static_cast<size_t>(free_off - need) >= dir_end) {
      const uint16_t new_off = free_off - need;
      std::memcpy(base + new_off, data, size);
      char* slot_ptr = base + kHeaderSize + slots * kSlotSize;
      PutU16(slot_ptr, new_off);
      PutU16(slot_ptr + 2, need);
      PutU16(base, slots + 1);
      PutU16(base + 2, new_off);
      ++num_records_;
      return Oid{page_no, slots};
    }
  }

  // Start a new page.
  PBSM_ASSIGN_OR_RETURN(PageHandle page, pool_->NewPage(file_));
  if (page.id().page_no != num_pages_) {
    // A previous Append allocated a page on disk but failed before this
    // counter advanced (e.g. a transient fault mid-call). Appending into
    // the later page would desynchronise OIDs from physical pages and make
    // every subsequent Fetch read the wrong record — refuse instead.
    return Status::Internal(
        "heap file page desync after failed append: expected page " +
        std::to_string(num_pages_) + ", allocated " +
        std::to_string(page.id().page_no));
  }
  ++num_pages_;
  char* base = page.mutable_data();
  const uint16_t new_off = static_cast<uint16_t>(kPageSize - need);
  std::memcpy(base + new_off, data, size);
  PutU16(base + kHeaderSize, new_off);
  PutU16(base + kHeaderSize + 2, need);
  PutU16(base, 1);
  PutU16(base + 2, new_off);
  ++num_records_;
  return Oid{num_pages_ - 1, 0};
}

Result<bool> HeapFile::Cursor::Next(Oid* oid, std::string* record) {
  while (page_no_ < heap_->num_pages_) {
    if (!page_.valid() || page_.id().page_no != page_no_) {
      PBSM_ASSIGN_OR_RETURN(
          page_, heap_->pool_->FetchPage(PageId{heap_->file_, page_no_}));
    }
    const char* base = page_.data();
    const uint16_t slots = GetU16(base);
    if (slot_ >= slots) {
      ++page_no_;
      slot_ = 0;
      page_ = PageHandle();
      continue;
    }
    const char* slot_ptr = base + kHeaderSize + slot_ * kSlotSize;
    const uint16_t off = GetU16(slot_ptr);
    const uint16_t len = GetU16(slot_ptr + 2);
    record->assign(base + off, len);
    *oid = Oid{page_no_, slot_};
    ++slot_;
    return true;
  }
  return false;
}

Status HeapFile::Fetch(Oid oid, std::string* out) const {
  PageHandle page;
  const char* data = nullptr;
  size_t size = 0;
  PBSM_RETURN_IF_ERROR(FetchView(oid, &page, &data, &size));
  out->assign(data, size);
  return Status::OK();
}

Status HeapFile::FetchView(Oid oid, PageHandle* page, const char** data,
                           size_t* size) const {
  static Counter* const fetches =
      MetricsRegistry::Global().GetCounter("storage.heapfile.fetches");
  fetches->Add();
  if (oid.page_no >= num_pages_) {
    return Status::OutOfRange("OID page beyond heap file");
  }
  const PageId id{file_, oid.page_no};
  if (!page->valid() || page->id() != id) {
    // Unpin first: a one-frame pool must be able to serve the next page.
    page->Release();
    PBSM_ASSIGN_OR_RETURN(*page, pool_->FetchPage(id));
  }
  const char* base = page->data();
  const uint16_t slots = GetU16(base);
  if (oid.slot >= slots) {
    return Status::OutOfRange("OID slot beyond page directory");
  }
  const char* slot_ptr = base + kHeaderSize + oid.slot * kSlotSize;
  *data = base + GetU16(slot_ptr);
  *size = GetU16(slot_ptr + 2);
  return Status::OK();
}

}  // namespace pbsm
