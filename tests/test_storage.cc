#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

TEST(DiskManagerTest, CreateWriteReadRoundTrip) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file,
                            env.disk()->CreateFile("data"));
  PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t p0, env.disk()->AllocatePage(file));
  EXPECT_EQ(p0, 0u);

  char out[kPageSize];
  std::memset(out, 0xAB, sizeof(out));
  PBSM_ASSERT_OK(env.disk()->WritePage(PageId{file, 0}, out));
  char in[kPageSize] = {};
  PBSM_ASSERT_OK(env.disk()->ReadPage(PageId{file, 0}, in));
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST(DiskManagerTest, ReadBeyondEndFails) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  char buf[kPageSize];
  const Status s = env.disk()->ReadPage(PageId{file, 0}, buf);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(DiskManagerTest, UnknownFileFails) {
  StorageEnv env;
  char buf[kPageSize];
  EXPECT_EQ(env.disk()->ReadPage(PageId{999, 0}, buf).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(env.disk()->DeleteFile(999).code(), StatusCode::kNotFound);
}

TEST(DiskManagerTest, SequentialVsRandomClassification) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  for (int i = 0; i < 10; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t pn, env.disk()->AllocatePage(file));
    (void)pn;
  }
  char buf[kPageSize] = {};
  env.disk()->ResetStats();
  // Forward scan: first read random, rest sequential.
  for (uint32_t p = 0; p < 10; ++p) {
    PBSM_ASSERT_OK(env.disk()->ReadPage(PageId{file, p}, buf));
  }
  EXPECT_EQ(env.disk()->stats().reads, 10u);
  EXPECT_EQ(env.disk()->stats().sequential_reads, 9u);

  env.disk()->ResetStats();
  // Backward scan: all random.
  for (uint32_t p = 10; p-- > 0;) {
    PBSM_ASSERT_OK(env.disk()->ReadPage(PageId{file, p}, buf));
  }
  EXPECT_EQ(env.disk()->stats().sequential_reads, 0u);
}

TEST(DiskManagerTest, ModeledTimeFollowsDiskModel) {
  DiskModel model;
  model.seek_ms = 10.0;
  model.transfer_mb_per_s = 8.0;
  StorageEnv env(1 << 20, model);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t pn, env.disk()->AllocatePage(file));
  (void)pn;
  char buf[kPageSize] = {};
  env.disk()->ResetStats();
  PBSM_ASSERT_OK(env.disk()->WritePage(PageId{file, 0}, buf));
  const double expected =
      0.010 + static_cast<double>(kPageSize) / (8.0 * 1024 * 1024);
  EXPECT_NEAR(env.disk()->stats().modeled_seconds, expected, 1e-9);
  // A sequential access costs transfer only.
  EXPECT_NEAR(model.PageCost(/*sequential=*/true),
              static_cast<double>(kPageSize) / (8.0 * 1024 * 1024), 1e-12);
}

TEST(DiskManagerTest, DeleteFileRemovesIt) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("gone"));
  PBSM_ASSERT_OK(env.disk()->DeleteFile(file));
  char buf[kPageSize];
  EXPECT_FALSE(env.disk()->ReadPage(PageId{file, 0}, buf).ok());
}

// RFC 3720 (iSCSI) appendix B.4 CRC-32C test vectors, plus the classic
// "123456789" check value.
TEST(Crc32cTest, KnownAnswers) {
  const std::string check = "123456789";
  const std::vector<uint8_t> zeros(32, 0x00);
  const std::vector<uint8_t> ones(32, 0xff);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  for (auto* crc : {&Crc32c, &crc32_internal::Crc32cPortable}) {
    EXPECT_EQ(crc(check.data(), check.size()), 0xE3069283u);
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending.data(), ascending.size()), 0x46DD794Eu);
    EXPECT_EQ(crc(nullptr, 0), 0u);
  }
}

// The hardware kernel folds 8 bytes per step and finishes with a byte tail:
// every length 0..64, lengths around one page, and every start offset
// within a word must agree with the byte-table reference.
TEST(Crc32cTest, HardwareMatchesPortable) {
#if PBSM_HAVE_SSE42_CRC32C
  if (!crc32_internal::HardwareCrc32cSupported()) {
    GTEST_SKIP() << "CPU lacks SSE4.2; only the portable kernel runs here";
  }
  std::vector<uint8_t> buf(kPageSize + 16);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + (i >> 8) * 7);
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {kPageSize - 1, kPageSize, kPageSize + 1});
  for (size_t offset = 0; offset <= 7; ++offset) {
    for (const size_t n : lengths) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(n));
      const uint8_t* p = buf.data() + offset;
      EXPECT_EQ(crc32_internal::Crc32cSse42(p, n),
                crc32_internal::Crc32cPortable(p, n));
      EXPECT_EQ(Crc32c(p, n), crc32_internal::Crc32cPortable(p, n));
    }
  }
#else
  GTEST_SKIP() << "no SSE4.2 CRC-32C kernel on this architecture";
#endif
}

TEST(BufferPoolTest, CachesPages) {
  StorageEnv env(16 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  {
    PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(file));
    std::memset(page.mutable_data(), 0x5A, kPageSize);
  }
  env.disk()->ResetStats();
  for (int i = 0; i < 5; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page,
                              env.pool()->FetchPage(PageId{file, 0}));
    EXPECT_EQ(page.data()[100], 0x5A);
  }
  // All hits: no physical reads.
  EXPECT_EQ(env.disk()->stats().reads, 0u);
  EXPECT_GE(env.pool()->hit_count(), 5u);
}

TEST(BufferPoolTest, EvictsAndWritesBackDirtyPages) {
  StorageEnv env(4 * kPageSize);  // Tiny pool: 4 frames.
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  for (int i = 0; i < 10; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(file));
    page.mutable_data()[0] = static_cast<char>(i);
  }
  // Re-read all pages; evicted dirty pages must have been written back.
  for (uint32_t p = 0; p < 10; ++p) {
    PBSM_ASSERT_OK_AND_ASSIGN(
        PageHandle page, env.pool()->FetchPage(PageId{file, p}));
    EXPECT_EQ(page.data()[0], static_cast<char>(p));
  }
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  StorageEnv env(2 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  PBSM_ASSERT_OK_AND_ASSIGN(PageHandle a, env.pool()->NewPage(file));
  PBSM_ASSERT_OK_AND_ASSIGN(PageHandle b, env.pool()->NewPage(file));
  auto c = env.pool()->NewPage(file);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Releasing a pin unblocks allocation.
  a.Release();
  PBSM_ASSERT_OK_AND_ASSIGN(PageHandle d, env.pool()->NewPage(file));
  (void)b;
  (void)d;
}

TEST(BufferPoolTest, FlushAllPersistsDirtyPages) {
  StorageEnv env(8 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  {
    PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(file));
    std::memset(page.mutable_data(), 0x77, kPageSize);
  }
  PBSM_ASSERT_OK(env.pool()->FlushAll());
  // Read through the disk manager directly, bypassing the pool.
  char buf[kPageSize];
  PBSM_ASSERT_OK(env.disk()->ReadPage(PageId{file, 0}, buf));
  EXPECT_EQ(buf[0], 0x77);
}

TEST(BufferPoolTest, DropFileDiscardsFrames) {
  StorageEnv env(8 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  {
    PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(file));
    (void)page;
  }
  PBSM_ASSERT_OK(env.pool()->DropFile(file));
  EXPECT_FALSE(env.pool()->FetchPage(PageId{file, 0}).ok());
}

TEST(BufferPoolTest, DropFileWithPinnedPageFails) {
  StorageEnv env(8 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(file));
  EXPECT_EQ(env.pool()->DropFile(file).code(),
            StatusCode::kFailedPrecondition);
}


TEST(BufferPoolTest, EvictionBatchFlushesSortedDirtyPages) {
  // SHORE behaviour (paper S4.6): when an eviction must write a dirty
  // page, all dirty unpinned pages go out together in sorted order, making
  // most of the writes sequential even if the pages were dirtied randomly.
  StorageEnv env(8 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file, env.disk()->CreateFile("f"));
  // Dirty all 8 frames in a scrambled order.
  const int order[8] = {5, 2, 7, 0, 3, 6, 1, 4};
  for (int i = 0; i < 8; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t pn,
                              env.disk()->AllocatePage(file));
    (void)pn;
  }
  for (const int p : order) {
    PBSM_ASSERT_OK_AND_ASSIGN(
        PageHandle page,
        env.pool()->FetchPage(PageId{file, static_cast<uint32_t>(p)}));
    page.mutable_data()[0] = static_cast<char>(p);
  }
  env.disk()->ResetStats();
  // Trigger one eviction: the batch flush should write all 8 dirty pages,
  // 7 of them classified sequential (pages 0..7 in order).
  PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(file));
  (void)page;
  const IoStats& stats = env.disk()->stats();
  EXPECT_EQ(stats.writes, 8u);
  EXPECT_GE(stats.sequential_writes, 7u);
}

TEST(BufferPoolTest, CursorSurvivesEvictionPressure) {
  // A heap cursor pins one page at a time; concurrent traffic that evicts
  // everything else must not disturb it.
  StorageEnv env(4 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "h"));
  const std::string record(2000, 'r');
  for (int i = 0; i < 40; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append(record));
    (void)oid;
  }
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile other,
                            HeapFile::Create(env.pool(), "noise"));
  HeapFile::Cursor cursor = heap.NewCursor();
  Oid oid;
  std::string out;
  int count = 0;
  while (true) {
    PBSM_ASSERT_OK_AND_ASSIGN(const bool has, cursor.Next(&oid, &out));
    if (!has) break;
    EXPECT_EQ(out.size(), record.size());
    ++count;
    // Interleave unrelated traffic that churns the pool.
    PBSM_ASSERT_OK_AND_ASSIGN(const Oid noise, other.Append("x"));
    (void)noise;
  }
  EXPECT_EQ(count, 40);
}

TEST(BufferPoolTest, PoolRoundsDownToWholePages) {
  StorageEnv env(3 * kPageSize + 100);
  EXPECT_EQ(env.pool()->capacity_pages(), 3u);
  StorageEnv tiny(10);
  EXPECT_EQ(tiny.pool()->capacity_pages(), 1u);  // Minimum one frame.
}

}  // namespace
}  // namespace pbsm
