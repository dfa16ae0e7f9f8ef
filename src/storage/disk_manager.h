#ifndef PBSM_STORAGE_DISK_MANAGER_H_
#define PBSM_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/fault_injector.h"
#include "storage/page.h"

namespace pbsm {

/// Parameters of the simulated disk used to convert physical page I/O counts
/// into seconds. Defaults approximate the paper's 1996-era 2 GB SCSI Seagate
/// ST12400N: ~11 ms average positioning time, ~3.5 MB/s sustained transfer.
///
/// Modern NVMe hardware would hide the buffer-pool effects the paper studies;
/// costing counted I/Os with period-accurate constants restores the paper's
/// CPU-vs-I/O balance while the real file I/O still exercises the full code
/// path.
struct DiskModel {
  double seek_ms = 11.0;          ///< Average seek + rotational delay.
  double transfer_mb_per_s = 3.5; ///< Sustained sequential transfer rate.

  /// Modeled seconds for one page access.
  double PageCost(bool sequential) const {
    const double transfer_s =
        static_cast<double>(kPageSize) / (transfer_mb_per_s * 1024 * 1024);
    return transfer_s + (sequential ? 0.0 : seek_ms / 1000.0);
  }
};

/// Physical I/O counters plus modeled elapsed time.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sequential_reads = 0;
  uint64_t sequential_writes = 0;
  double modeled_seconds = 0.0;

  uint64_t total() const { return reads + writes; }
  uint64_t random_reads() const { return reads - sequential_reads; }
  uint64_t random_writes() const { return writes - sequential_writes; }

  IoStats& operator-=(const IoStats& o) {
    reads -= o.reads;
    writes -= o.writes;
    sequential_reads -= o.sequential_reads;
    sequential_writes -= o.sequential_writes;
    modeled_seconds -= o.modeled_seconds;
    return *this;
  }
  friend IoStats operator-(IoStats a, const IoStats& b) { return a -= b; }
};

/// Owns the database files and performs all physical page I/O.
///
/// Every read/write is classified sequential (the page immediately follows
/// the previous access on the same device) or random, counted in IoStats,
/// and costed with the DiskModel. The classification is device-wide, not
/// per-file — interleaved access to two files destroys sequentiality exactly
/// as it did on the paper's single data disk.
///
/// Thread-safe: a single mutex serialises file-table mutation, page I/O and
/// stats accounting. Serialising the I/O itself is deliberate — it models
/// the one spindle of the paper's machine, and keeps the device-wide
/// sequentiality classification meaningful under concurrency.
///
/// Fault tolerance: an optional FaultInjector is consulted before every
/// physical operation (deterministic scripted failures for testing), and a
/// CRC-32C checksum of every written page is kept and verified on read, so
/// torn writes surface as Status::Corruption instead of silently feeding
/// garbage to the operators. See DESIGN.md "Fault injection & error
/// propagation".
class DiskManager {
 public:
  /// Files are created under `directory` (created if absent).
  explicit DiskManager(std::string directory, DiskModel model = DiskModel());
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Creates (truncates) a file and returns its id.
  Result<FileId> CreateFile(const std::string& name);

  /// Creates a uniquely named temporary file.
  Result<FileId> CreateTempFile();

  /// Closes and removes the file from disk.
  Status DeleteFile(FileId file);

  /// Appends a zeroed page; returns its page number.
  Result<uint32_t> AllocatePage(FileId file);

  /// Reads page `id` into `buf` (kPageSize bytes).
  Status ReadPage(PageId id, char* buf);

  /// Writes kPageSize bytes from `buf` to page `id`.
  Status WritePage(PageId id, const char* buf);

  /// Number of pages currently allocated in `file`.
  Result<uint32_t> NumPages(FileId file) const;

  /// File size in bytes.
  Result<uint64_t> FileBytes(FileId file) const;

  /// Installs (or clears, with nullptr) a fault injector consulted before
  /// every physical read/write/allocate. Shared ownership so test scenarios
  /// can keep inspecting the injector after handing it over.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    std::lock_guard<std::mutex> lock(mutex_);
    fault_injector_ = std::move(injector);
  }
  std::shared_ptr<FaultInjector> fault_injector() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fault_injector_;
  }

  IoStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = IoStats();
  }
  const DiskModel& model() const { return model_; }

  const std::string& directory() const { return directory_; }

 private:
  struct FileState {
    int fd = -1;
    std::string path;
    /// One entry per allocated page: the CRC-32C of the last *intended*
    /// contents written through WritePage, verified on every ReadPage. A
    /// mismatch means the on-disk bytes diverged from what the writer
    /// handed us (a torn write, injected or real, or bit rot) and surfaces
    /// as Status::Corruption. Pages that were only ftruncate-extended
    /// (allocated, never written) hold nullopt and are not checked. The
    /// size is the file's page count.
    std::vector<std::optional<uint32_t>> page_checksums;

    uint32_t num_pages() const {
      return static_cast<uint32_t>(page_checksums.size());
    }
  };

  Result<FileId> OpenNewFile(const std::string& path);
  FileState* GetFile(FileId file);
  const FileState* GetFile(FileId file) const;
  void Account(PageId id, bool is_write);

  std::string directory_;
  DiskModel model_;
  mutable std::mutex mutex_;
  std::unordered_map<FileId, FileState> files_;
  FileId next_file_id_ = 1;
  uint64_t temp_counter_ = 0;
  IoStats stats_;
  /// Optional deterministic fault source (see fault_injector.h).
  std::shared_ptr<FaultInjector> fault_injector_;
  // Last physical page touched on the (single, shared) device.
  PageId last_access_;
  bool has_last_access_ = false;

  // Global-registry mirrors of stats_, resolved once at construction
  // ("storage.disk.*"; see DESIGN.md "Observability").
  Counter* m_reads_;
  Counter* m_writes_;
  Counter* m_seq_reads_;
  Counter* m_seq_writes_;
  Counter* m_torn_pages_;
};

}  // namespace pbsm

#endif  // PBSM_STORAGE_DISK_MANAGER_H_
