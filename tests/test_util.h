#ifndef PBSM_TESTS_TEST_UTIL_H_
#define PBSM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/key_pointer.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pbsm {

/// Asserts that a Status-returning expression is OK.
#define PBSM_ASSERT_OK(expr)                                 \
  do {                                                       \
    const ::pbsm::Status _st = (expr);                       \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (false)

#define PBSM_EXPECT_OK(expr)                                 \
  do {                                                       \
    const ::pbsm::Status _st = (expr);                       \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (false)

/// Unwraps a Result<T>, asserting success.
#define PBSM_ASSERT_OK_AND_ASSIGN(lhs, expr)                 \
  auto PBSM_CONCAT_TEST_(_res, __LINE__) = (expr);           \
  ASSERT_TRUE(PBSM_CONCAT_TEST_(_res, __LINE__).ok())        \
      << PBSM_CONCAT_TEST_(_res, __LINE__).status().ToString(); \
  lhs = std::move(PBSM_CONCAT_TEST_(_res, __LINE__)).value()

#define PBSM_CONCAT_TEST_(a, b) PBSM_CONCAT_TEST_IMPL_(a, b)
#define PBSM_CONCAT_TEST_IMPL_(a, b) a##b

/// Set of (r_oid, s_oid) candidate pairs, for order-free comparison.
using MbrPairSet = std::set<std::pair<uint64_t, uint64_t>>;

/// The MBR-join oracle: every (r.oid, s.oid) whose MBRs intersect (closed
/// boundaries), found by testing all |r| x |s| pairs with Rect::Intersects.
/// Shares no code with the sweep kernels it checks.
inline MbrPairSet AllPairsMbrJoin(const std::vector<KeyPointer>& r,
                                  const std::vector<KeyPointer>& s) {
  MbrPairSet out;
  for (const KeyPointer& a : r) {
    for (const KeyPointer& b : s) {
      if (a.mbr.Intersects(b.mbr)) out.emplace(a.oid, b.oid);
    }
  }
  return out;
}

/// Creates a unique scratch directory and a DiskManager + BufferPool over
/// it; removes everything on destruction.
class StorageEnv {
 public:
  explicit StorageEnv(size_t pool_bytes = 1 << 20,
                      DiskModel model = DiskModel(),
                      IoRetryPolicy retry = IoRetryPolicy()) {
    char tmpl[] = "/tmp/pbsm_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    dir_ = dir != nullptr ? dir : "/tmp/pbsm_test_fallback";
    disk_ = std::make_unique<DiskManager>(dir_, model);
    pool_ = std::make_unique<BufferPool>(disk_.get(), pool_bytes, retry);
  }
  ~StorageEnv() {
    pool_.reset();
    disk_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  DiskManager* disk() { return disk_.get(); }
  BufferPool* pool() { return pool_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace pbsm

#endif  // PBSM_TESTS_TEST_UTIL_H_
