// Tests of the storage layer: the serialized tuple format's sizes and
// Table V-style storage accounting.
#include <gtest/gtest.h>

#include "storage/serializer.h"
#include "storage/stats.h"

namespace ongoingdb {
namespace {

Tuple MixedTuple() {
  return Tuple({Value::Int64(42), Value::String("bug report"),
                Value::Double(3.5), Value::Bool(true), Value::Time(MD(3, 1)),
                Value::Interval({MD(1, 1), MD(2, 1)}),
                Value::Ongoing(OngoingTimePoint(MD(4, 1), MD(5, 1))),
                Value::Ongoing(OngoingInterval::SinceUntilNow(MD(1, 25)))},
               IntervalSet{{MD(1, 26), MD(8, 16)}, {MD(9, 1), MD(9, 10)}});
}

TEST(SerializerTest, SizeMatchesBuffer) {
  Tuple t = MixedTuple();
  EXPECT_EQ(SerializedTupleSize(t), SerializeTuple(t).size());
}

TEST(SerializerTest, RtSizeGrowsWithCardinality) {
  // One interval: 4 + 16 bytes; each additional interval adds 16.
  EXPECT_EQ(SerializedRtSize(IntervalSet{{0, 10}}), 20u);
  EXPECT_EQ(SerializedRtSize(IntervalSet{{0, 10}, {20, 30}}), 36u);
  EXPECT_EQ(SerializedRtSize(IntervalSet::All()), 20u);
}

TEST(SerializerTest, OngoingPointDoublesFixedPointWidth) {
  // The paper's Table V: using ongoing rather than fixed values doubles
  // the valid-time attribute size.
  Tuple fixed_t({Value::Time(MD(1, 1))});
  Tuple ongoing_t({Value::Ongoing(OngoingTimePoint::Now())});
  size_t fixed_payload = SerializedTupleSize(fixed_t) -
                         SerializedRtSize(fixed_t.rt());
  size_t ongoing_payload = SerializedTupleSize(ongoing_t) -
                           SerializedRtSize(ongoing_t.rt());
  EXPECT_EQ(ongoing_payload - 5, 2 * (fixed_payload - 5));  // minus headers
}

TEST(StorageStatsTest, RtShareShrinksWithTupleWidth) {
  // Table V: the constant RT overhead is significant for small tuples
  // and insignificant for large ones.
  Schema small(std::vector<Attribute>{{"ID", ValueType::kInt64},
                                      {"VT", ValueType::kOngoingInterval}});
  Schema large(std::vector<Attribute>{{"ID", ValueType::kInt64},
                                      {"Text", ValueType::kString},
                                      {"VT", ValueType::kOngoingInterval}});
  OngoingRelation small_r(small), large_r(large);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(small_r.Insert({Value::Int64(i),
                                Value::Ongoing(
                                    OngoingInterval::SinceUntilNow(0))})
                    .ok());
    ASSERT_TRUE(large_r.Insert({Value::Int64(i),
                                Value::String(std::string(900, 'd')),
                                Value::Ongoing(
                                    OngoingInterval::SinceUntilNow(0))})
                    .ok());
  }
  StorageStats small_stats = ComputeStorageStats(small_r);
  StorageStats large_stats = ComputeStorageStats(large_r);
  EXPECT_GT(small_stats.RtShare(), 0.2);   // significant for ~50 B tuples
  EXPECT_LT(large_stats.RtShare(), 0.05);  // insignificant for ~1 kB tuples
  EXPECT_GT(small_stats.OngoingOverFixed(), 1.0);
  EXPECT_LT(small_stats.OngoingOverFixed(), 2.5);
  EXPECT_LT(large_stats.OngoingOverFixed(), 1.1);
}

TEST(StorageStatsTest, TypicalRtCardinalityIsOne) {
  OngoingRelation r(Schema({{"VT", ValueType::kOngoingInterval}}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        r.Insert({Value::Ongoing(OngoingInterval::SinceUntilNow(i))}).ok());
  }
  StorageStats stats = ComputeStorageStats(r);
  EXPECT_EQ(stats.max_rt_cardinality, 1.0);
  EXPECT_EQ(stats.AvgRtBytes(), 20.0);
}

}  // namespace
}  // namespace ongoingdb
