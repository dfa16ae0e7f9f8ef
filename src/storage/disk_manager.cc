#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"

namespace pbsm {

DiskManager::DiskManager(std::string directory, DiskModel model)
    : directory_(std::move(directory)), model_(model) {
  ::mkdir(directory_.c_str(), 0755);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  m_reads_ = metrics.GetCounter("storage.disk.reads");
  m_writes_ = metrics.GetCounter("storage.disk.writes");
  m_seq_reads_ = metrics.GetCounter("storage.disk.seq_reads");
  m_seq_writes_ = metrics.GetCounter("storage.disk.seq_writes");
  m_torn_pages_ = metrics.GetCounter("io.torn_pages_detected");
}

DiskManager::~DiskManager() {
  for (auto& [id, state] : files_) {
    if (state.fd >= 0) ::close(state.fd);
  }
}

Result<FileId> DiskManager::OpenNewFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  const FileId id = next_file_id_++;
  FileState state;
  state.fd = fd;
  state.path = path;
  files_.emplace(id, std::move(state));
  return id;
}

Result<FileId> DiskManager::CreateFile(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return OpenNewFile(directory_ + "/" + name);
}

Result<FileId> DiskManager::CreateTempFile() {
  std::lock_guard<std::mutex> lock(mutex_);
  return OpenNewFile(directory_ + "/tmp_" + std::to_string(temp_counter_++) +
                     ".spool");
}

Status DiskManager::DeleteFile(FileId file) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("file id " + std::to_string(file));
  }
  ::close(it->second.fd);
  ::unlink(it->second.path.c_str());
  files_.erase(it);
  return Status::OK();
}

DiskManager::FileState* DiskManager::GetFile(FileId file) {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second;
}

const DiskManager::FileState* DiskManager::GetFile(FileId file) const {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second;
}

void DiskManager::Account(PageId id, bool is_write) {
  const bool sequential = has_last_access_ && last_access_.file == id.file &&
                          id.page_no == last_access_.page_no + 1;
  if (is_write) {
    ++stats_.writes;
    m_writes_->Add();
    if (sequential) {
      ++stats_.sequential_writes;
      m_seq_writes_->Add();
    }
  } else {
    ++stats_.reads;
    m_reads_->Add();
    if (sequential) {
      ++stats_.sequential_reads;
      m_seq_reads_->Add();
    }
  }
  stats_.modeled_seconds += model_.PageCost(sequential);
  last_access_ = id;
  has_last_access_ = true;
}

Result<uint32_t> DiskManager::AllocatePage(FileId file) {
  std::lock_guard<std::mutex> lock(mutex_);
  FileState* state = GetFile(file);
  if (state == nullptr) {
    return Status::NotFound("file id " + std::to_string(file));
  }
  if (fault_injector_ != nullptr) {
    FaultInjector::Decision d =
        fault_injector_->Decide(FaultOp::kAllocate, PageId{file, 0});
    if (!d.status.ok()) return d.status;
  }
  const uint32_t page_no = state->num_pages();
  state->page_checksums.emplace_back();  // Allocated, never written.
  // The page is materialized lazily; ftruncate extends with zeros.
  if (::ftruncate(state->fd,
                  static_cast<off_t>(state->num_pages()) * kPageSize) != 0) {
    state->page_checksums.pop_back();
    return Status::IoError("ftruncate: " + std::string(std::strerror(errno)));
  }
  return page_no;
}

Status DiskManager::ReadPage(PageId id, char* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  FileState* state = GetFile(id.file);
  if (state == nullptr) {
    return Status::NotFound("file id " + std::to_string(id.file));
  }
  if (id.page_no >= state->num_pages()) {
    return Status::OutOfRange("page " + std::to_string(id.page_no) +
                              " beyond file end");
  }
  if (fault_injector_ != nullptr) {
    FaultInjector::Decision d = fault_injector_->Decide(FaultOp::kRead, id);
    if (!d.status.ok()) return d.status;
  }
  const ssize_t n = ::pread(state->fd, buf, kPageSize,
                            static_cast<off_t>(id.page_no) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("pread returned " + std::to_string(n));
  }
  // Verify against the checksum of the last intended write (if any): a
  // mismatch means the medium holds bytes nobody handed to WritePage — a
  // torn write or bit rot. Not retryable: re-reading yields the same bytes.
  const std::optional<uint32_t>& expected = state->page_checksums[id.page_no];
  if (expected.has_value() && Crc32c(buf, kPageSize) != *expected) {
    m_torn_pages_->Add();
    return Status::Corruption(
        "page checksum mismatch (torn write or bit rot): file " +
        std::to_string(id.file) + " page " + std::to_string(id.page_no));
  }
  Account(id, /*is_write=*/false);
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const char* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  FileState* state = GetFile(id.file);
  if (state == nullptr) {
    return Status::NotFound("file id " + std::to_string(id.file));
  }
  if (id.page_no >= state->num_pages()) {
    return Status::OutOfRange("page " + std::to_string(id.page_no) +
                              " beyond file end");
  }
  size_t bytes_to_write = kPageSize;
  if (fault_injector_ != nullptr) {
    FaultInjector::Decision d = fault_injector_->Decide(FaultOp::kWrite, id);
    if (!d.status.ok()) return d.status;
    if (d.torn) bytes_to_write = d.torn_bytes;
  }
  const ssize_t n = ::pwrite(state->fd, buf, bytes_to_write,
                             static_cast<off_t>(id.page_no) * kPageSize);
  if (n != static_cast<ssize_t>(bytes_to_write)) {
    return Status::IoError("pwrite returned " + std::to_string(n));
  }
  // Record the checksum of the *intended* page contents, torn or not: a
  // torn write reports success (as a crash mid-write would), and the
  // recorded checksum is what later exposes it at read time.
  state->page_checksums[id.page_no] = Crc32c(buf, kPageSize);
  Account(id, /*is_write=*/true);
  return Status::OK();
}

Result<uint32_t> DiskManager::NumPages(FileId file) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const FileState* state = GetFile(file);
  if (state == nullptr) {
    return Status::NotFound("file id " + std::to_string(file));
  }
  return state->num_pages();
}

Result<uint64_t> DiskManager::FileBytes(FileId file) const {
  PBSM_ASSIGN_OR_RETURN(const uint32_t pages, NumPages(file));
  return static_cast<uint64_t>(pages) * kPageSize;
}

}  // namespace pbsm
