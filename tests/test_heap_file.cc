#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

TEST(HeapFileTest, AppendFetchRoundTrip) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap,
                            HeapFile::Create(env.pool(), "rel"));
  PBSM_ASSERT_OK_AND_ASSIGN(const Oid a, heap.Append("hello"));
  PBSM_ASSERT_OK_AND_ASSIGN(const Oid b, heap.Append("world!"));
  EXPECT_EQ(heap.num_records(), 2u);
  std::string out;
  PBSM_ASSERT_OK(heap.Fetch(a, &out));
  EXPECT_EQ(out, "hello");
  PBSM_ASSERT_OK(heap.Fetch(b, &out));
  EXPECT_EQ(out, "world!");
}

TEST(HeapFileTest, OidEncodingRoundTrips) {
  const Oid oid{123456, 789};
  EXPECT_EQ(Oid::Decode(oid.Encode()), oid);
  // Encoding preserves physical order.
  const Oid early{1, 500}, late{2, 0};
  EXPECT_LT(early.Encode(), late.Encode());
  const Oid s5{1, 5}, s6{1, 6};
  EXPECT_LT(s5.Encode(), s6.Encode());
}

TEST(HeapFileTest, SpillsAcrossPages) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  const std::string record(1000, 'x');
  std::vector<Oid> oids;
  for (int i = 0; i < 50; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append(record));
    oids.push_back(oid);
  }
  EXPECT_GT(heap.num_pages(), 1u);
  // Every record still fetchable.
  std::string out;
  for (const Oid& oid : oids) {
    PBSM_ASSERT_OK(heap.Fetch(oid, &out));
    EXPECT_EQ(out.size(), record.size());
  }
}

TEST(HeapFileTest, RejectsOversizedRecord) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  const std::string record(kPageSize, 'x');
  auto result = heap.Append(record);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Max-size record fits exactly.
  const std::string max_record(HeapFile::MaxRecordSize(), 'y');
  PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append(max_record));
  std::string out;
  PBSM_ASSERT_OK(heap.Fetch(oid, &out));
  EXPECT_EQ(out, max_record);
}

TEST(HeapFileTest, FetchBadOidFails) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append("x"));
  (void)oid;
  std::string out;
  EXPECT_EQ(heap.Fetch(Oid{5, 0}, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(heap.Fetch(Oid{0, 9}, &out).code(), StatusCode::kOutOfRange);
}

TEST(HeapFileTest, FetchViewPinsEachPageOfARunOnce) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  std::vector<Oid> oids;
  std::vector<std::string> records;
  for (int i = 0; i < 60; ++i) {
    records.push_back(std::string(300 + i, 'a' + i % 26));
    PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append(records.back()));
    oids.push_back(oid);
  }
  ASSERT_GE(heap.num_pages(), 3u);
  const uint64_t hits_before = env.pool()->hit_count();
  PageHandle page;
  uint32_t distinct_pages = 0;
  for (size_t i = 0; i < oids.size(); ++i) {
    if (i == 0 || oids[i].page_no != oids[i - 1].page_no) ++distinct_pages;
    const char* data = nullptr;
    size_t size = 0;
    PBSM_ASSERT_OK(heap.FetchView(oids[i], &page, &data, &size));
    EXPECT_EQ(std::string(data, size), records[i]);
  }
  // Every page is cached, so each re-pin is one hit: exactly one per page.
  EXPECT_EQ(env.pool()->hit_count() - hits_before, distinct_pages);
  EXPECT_EQ(distinct_pages, heap.num_pages());
}

TEST(HeapFileTest, FetchViewBadOidFailsAndHandleResetUnpins) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append("record"));
  PageHandle page;
  const char* data = nullptr;
  size_t size = 0;
  EXPECT_EQ(heap.FetchView(Oid{5, 0}, &page, &data, &size).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(heap.FetchView(Oid{0, 9}, &page, &data, &size).code(),
            StatusCode::kOutOfRange);
  PBSM_ASSERT_OK(heap.FetchView(oid, &page, &data, &size));
  EXPECT_EQ(std::string(data, size), "record");
  // The view's page stays pinned between fetches, bad ones included.
  EXPECT_EQ(heap.FetchView(Oid{0, 9}, &page, &data, &size).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(env.pool()->pinned_frames(), 1u);
  page = PageHandle();
  EXPECT_EQ(env.pool()->pinned_frames(), 0u);
}

TEST(HeapFileTest, ScanVisitsAllRecordsInPhysicalOrder) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  Rng rng(3);
  std::vector<std::string> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(std::string(10 + rng.Uniform(500), 'a' + i % 26));
    PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append(records.back()));
    (void)oid;
  }
  size_t idx = 0;
  uint64_t last_oid = 0;
  PBSM_ASSERT_OK(heap.Scan([&](Oid oid, const char* data,
                               size_t size) -> Status {
    EXPECT_EQ(std::string(data, size), records[idx]);
    if (idx > 0) {
      EXPECT_GT(oid.Encode(), last_oid);
    }
    last_oid = oid.Encode();
    ++idx;
    return Status::OK();
  }));
  EXPECT_EQ(idx, records.size());
}

TEST(HeapFileTest, ScanAbortsOnError) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  for (int i = 0; i < 10; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append("rec"));
    (void)oid;
  }
  int visited = 0;
  const Status s = heap.Scan([&](Oid, const char*, size_t) -> Status {
    if (++visited == 3) return Status::Internal("stop");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(visited, 3);
}

TEST(TupleTest, SerializeParseRoundTrip) {
  Tuple t;
  t.id = 42;
  t.feature_class = 7;
  t.name = "State Highway 151";
  t.geometry = Geometry::MakePolyline({{1, 2}, {3, 4}, {5, 6}});
  const std::string bytes = t.Serialize();
  PBSM_ASSERT_OK_AND_ASSIGN(const Tuple parsed,
                            Tuple::Parse(bytes.data(), bytes.size()));
  EXPECT_EQ(parsed.id, t.id);
  EXPECT_EQ(parsed.feature_class, t.feature_class);
  EXPECT_EQ(parsed.name, t.name);
  EXPECT_EQ(parsed.geometry, t.geometry);
}

TEST(TupleTest, ParseRejectsTruncation) {
  Tuple t;
  t.id = 1;
  t.name = "x";
  t.geometry = Geometry::MakePoint({0, 0});
  const std::string bytes = t.Serialize();
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    EXPECT_FALSE(Tuple::Parse(bytes.data(), cut).ok()) << "cut=" << cut;
  }
}

TEST(TupleTest, RoundTripsThroughHeapFile) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(HeapFile heap, HeapFile::Create(env.pool(), "r"));
  Tuple t;
  t.id = 9;
  t.name = "Lake Mendota";
  t.geometry = Geometry::MakePolygon({{{0, 0}, {2, 0}, {1, 2}}});
  PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append(t.Serialize()));
  std::string out;
  PBSM_ASSERT_OK(heap.Fetch(oid, &out));
  PBSM_ASSERT_OK_AND_ASSIGN(const Tuple parsed,
                            Tuple::Parse(out.data(), out.size()));
  EXPECT_EQ(parsed.name, "Lake Mendota");
  EXPECT_EQ(parsed.geometry, t.geometry);
}

}  // namespace
}  // namespace pbsm
