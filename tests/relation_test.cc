// Unit tests for values, schemas, tuples, ongoing relations, and the
// relation-level bind operator, plus the relation contract over sizes
// around the tuple storage's boundaries: copies are independent, the Torp
// modifications equal a rebuild, and range-for walks exactly tuple(i).
#include "relation/relation.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/operations.h"
#include "relation/modifications.h"

namespace ongoingdb {
namespace {

Schema BugSchema() {
  return Schema({{"BID", ValueType::kInt64},
                 {"C", ValueType::kString},
                 {"VT", ValueType::kOngoingInterval}});
}

TEST(ValueTest, TypeTagsAndAccessors) {
  EXPECT_EQ(Value::Int64(7).AsInt64(), 7);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Time(MD(8, 15)).AsTime(), MD(8, 15));
  EXPECT_TRUE(Value::Null().is_null());
  Value iv = Value::Ongoing(OngoingInterval::SinceUntilNow(MD(1, 25)));
  EXPECT_EQ(iv.type(), ValueType::kOngoingInterval);
}

TEST(ValueTest, InstantiateOngoingValues) {
  Value p = Value::Ongoing(OngoingTimePoint::Now());
  Value at = p.Instantiate(MD(8, 15));
  EXPECT_EQ(at.type(), ValueType::kTimePoint);
  EXPECT_EQ(at.AsTime(), MD(8, 15));

  Value iv = Value::Ongoing(OngoingInterval::SinceUntilNow(MD(1, 25)));
  Value iv_at = iv.Instantiate(MD(8, 15));
  EXPECT_EQ(iv_at.type(), ValueType::kFixedInterval);
  EXPECT_EQ(iv_at.AsInterval(), (FixedInterval{MD(1, 25), MD(8, 15)}));

  // Fixed values are unchanged.
  EXPECT_EQ(Value::Int64(3).Instantiate(MD(8, 15)), Value::Int64(3));
}

TEST(ValueTest, OngoingValueEqualMixesFamilies) {
  // fixed timepoint vs now: equal only at that reference time.
  OngoingBoolean eq = OngoingValueEqual(
      Value::Time(MD(10, 17)), Value::Ongoing(OngoingTimePoint::Now()));
  EXPECT_EQ(eq.st(), (IntervalSet{{MD(10, 17), MD(10, 18)}}));
  // different value families are never equal.
  EXPECT_TRUE(OngoingValueEqual(Value::Int64(1), Value::String("1"))
                  .IsAlwaysFalse());
  // identical strings are always equal.
  EXPECT_TRUE(OngoingValueEqual(Value::String("a"), Value::String("a"))
                  .IsAlwaysTrue());
}

TEST(SchemaTest, AddAndLookup) {
  Schema s = BugSchema();
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_TRUE(s.Contains("VT"));
  auto idx = s.IndexOf("C");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(s.IndexOf("missing").ok());
  EXPECT_FALSE(s.AddAttribute("VT", ValueType::kInt64).ok());  // duplicate
}

TEST(SchemaTest, QualifiedLookup) {
  Schema joined = BugSchema().Concat(BugSchema(), "B", "P");
  // Clashing names got qualified.
  EXPECT_TRUE(joined.Contains("B.VT"));
  EXPECT_TRUE(joined.Contains("P.VT"));
  // Unqualified suffix lookup is ambiguous now.
  EXPECT_FALSE(joined.IndexOf("VT").ok());
  EXPECT_TRUE(joined.IndexOf("B.VT").ok());
}

TEST(SchemaTest, InstantiatedSchema) {
  Schema s = BugSchema().Instantiated();
  EXPECT_EQ(s.attribute(2).type, ValueType::kFixedInterval);
  EXPECT_EQ(s.attribute(0).type, ValueType::kInt64);
  EXPECT_TRUE(BugSchema().HasOngoingAttributes());
  EXPECT_FALSE(s.HasOngoingAttributes());
}

TEST(RelationTest, BaseInsertGetsTrivialReferenceTime) {
  OngoingRelation r(BugSchema());
  ASSERT_TRUE(r.Insert({Value::Int64(500), Value::String("Spam filter"),
                        Value::Ongoing(OngoingInterval::SinceUntilNow(
                            MD(1, 25)))})
                  .ok());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.tuple(0).rt().IsAll());
}

TEST(RelationTest, InsertValidatesAgainstSchema) {
  OngoingRelation r(BugSchema());
  // Wrong arity.
  EXPECT_FALSE(r.Insert({Value::Int64(1)}).ok());
  // Wrong type.
  EXPECT_FALSE(r.Insert({Value::String("x"), Value::String("y"),
                         Value::Ongoing(OngoingInterval::SinceUntilNow(0))})
                   .ok());
  // Empty reference time is rejected.
  EXPECT_FALSE(
      r.InsertWithRt({Value::Int64(1), Value::String("c"),
                      Value::Ongoing(OngoingInterval::SinceUntilNow(0))},
                     IntervalSet::Empty())
          .ok());
}

TEST(RelationTest, BindOmitsTuplesOutsideTheirReferenceTime) {
  OngoingRelation r(BugSchema());
  ASSERT_TRUE(
      r.InsertWithRt({Value::Int64(1), Value::String("c"),
                      Value::Ongoing(OngoingInterval::SinceUntilNow(MD(1, 25)))},
                     IntervalSet{{MD(1, 26), MD(8, 16)}})
          .ok());
  // In range: present and instantiated.
  OngoingRelation at = InstantiateRelation(r, MD(5, 1));
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at.tuple(0).value(2).AsInterval(),
            (FixedInterval{MD(1, 25), MD(5, 1)}));
  // Outside: omitted.
  EXPECT_EQ(InstantiateRelation(r, MD(9, 1)).size(), 0u);
  EXPECT_EQ(InstantiateRelation(r, MD(1, 25)).size(), 0u);
}

TEST(RelationTest, CoveredReferenceTimes) {
  OngoingRelation r(BugSchema());
  auto vt = Value::Ongoing(OngoingInterval::SinceUntilNow(0));
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(1), Value::String("a"), vt},
                             IntervalSet{{0, 10}})
                  .ok());
  ASSERT_TRUE(r.InsertWithRt({Value::Int64(2), Value::String("b"), vt},
                             IntervalSet{{5, 20}})
                  .ok());
  EXPECT_EQ(r.CoveredReferenceTimes(), (IntervalSet{{0, 20}}));
}

TEST(RelationTest, InstantiatedRelationsEqualIgnoresDuplicates) {
  OngoingRelation a(BugSchema());
  OngoingRelation b(BugSchema());
  auto vt = Value::Ongoing(OngoingInterval::Fixed(0, 5));
  ASSERT_TRUE(a.Insert({Value::Int64(1), Value::String("x"), vt}).ok());
  ASSERT_TRUE(b.Insert({Value::Int64(1), Value::String("x"), vt}).ok());
  ASSERT_TRUE(b.Insert({Value::Int64(1), Value::String("x"), vt}).ok());
  EXPECT_TRUE(InstantiatedRelationsEqual(a, b));
  ASSERT_TRUE(b.Insert({Value::Int64(2), Value::String("y"), vt}).ok());
  EXPECT_FALSE(InstantiatedRelationsEqual(a, b));
}

// --- The relation contract ---------------------------------------------------
// Sizes 0 and 1, one below, at and one above each power of two from 64 to
// 1,024, and 3,000.
std::vector<size_t> ContractSizes() {
  std::vector<size_t> sizes = {0, 1};
  for (size_t p = 64; p <= 1024; p *= 2) {
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  sizes.push_back(3000);
  return sizes;
}

constexpr size_t kContractVt = 2;

// n distinct rows {ID i, K i % 7, VT}. Every third VT is a fixed
// [s, s + 10), the rest are [s, now), with s in [0, 100): a close at
// tc = 50 leaves some rows valid and makes others never valid.
OngoingRelation ContractRelation(size_t n) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"K", ValueType::kInt64},
                            {"VT", ValueType::kOngoingInterval}}));
  for (size_t i = 0; i < n; ++i) {
    const TimePoint s = static_cast<TimePoint>((i * 37) % 100);
    const OngoingInterval vt = i % 3 == 0
                                   ? OngoingInterval::Fixed(s, s + 10)
                                   : OngoingInterval::SinceUntilNow(s);
    EXPECT_TRUE(r.Insert({Value::Int64(static_cast<int64_t>(i)),
                          Value::Int64(static_cast<int64_t>(i % 7)),
                          Value::Ongoing(vt)})
                    .ok());
  }
  return r;
}

// The rows in index order, read through tuple(i).
std::vector<std::string> Rows(const OngoingRelation& r) {
  std::vector<std::string> rows;
  for (size_t i = 0; i < r.size(); ++i) rows.push_back(r.tuple(i).ToString());
  return rows;
}

std::multiset<std::string> RowSet(const OngoingRelation& r) {
  std::multiset<std::string> rows;
  for (const Tuple& t : r.tuples()) rows.insert(t.ToString());
  return rows;
}

// Range-for visits exactly size() tuples: the ones tuple(i) returns, in
// index order.
void ExpectRangeForWalksIndexOrder(const OngoingRelation& r) {
  size_t i = 0;
  for (const Tuple& t : r.tuples()) {
    ASSERT_LT(i, r.size());
    ASSERT_EQ(&t, &r.tuple(i)) << "position " << i;
    ++i;
  }
  EXPECT_EQ(i, r.size());
}

using Mutation = std::function<void(OngoingRelation*)>;

ModificationFilter KeyIs(int64_t k) {
  return [k](const Tuple& t) { return t.value(1).AsInt64() == k; };
}

std::vector<Value> Rekey(const Tuple& t) {
  std::vector<Value> values = t.values();
  values[1] = Value::Int64(8);
  return values;
}

// Every mutation of the contract, by name. The SwapRemoves are left out
// for n = 0 (there is no row to remove).
std::vector<std::pair<std::string, Mutation>> ContractMutations(size_t n) {
  std::vector<std::pair<std::string, Mutation>> m = {
      {"Insert",
       [](OngoingRelation* r) {
         ASSERT_TRUE(r->Insert({Value::Int64(-1), Value::Int64(3),
                                Value::Ongoing(
                                    OngoingInterval::SinceUntilNow(5))})
                         .ok());
       }},
      {"AppendUnchecked",
       [](OngoingRelation* r) {
         r->AppendUnchecked(Tuple({Value::Int64(-2), Value::Int64(4),
                                   Value::Ongoing(
                                       OngoingInterval::Fixed(1, 2))}));
       }},
      {"TemporalDelete",
       [](OngoingRelation* r) {
         ASSERT_TRUE(TemporalDelete(r, kContractVt, 50, KeyIs(3)).ok());
       }},
      {"TemporalDeleteAll",
       [](OngoingRelation* r) {
         ASSERT_TRUE(TemporalDelete(r, kContractVt, 50,
                                    [](const Tuple&) { return true; })
                         .ok());
       }},
      {"TemporalUpdate",
       [](OngoingRelation* r) {
         ASSERT_TRUE(
             TemporalUpdate(r, kContractVt, 50, KeyIs(3), Rekey).ok());
       }},
  };
  if (n > 0) {
    // The position as a function of the current size: first, middle, last.
    for (const auto& [name, at] :
         {std::pair<std::string, size_t (*)(size_t)>{
              "SwapRemoveFirst", [](size_t) -> size_t { return 0; }},
          {"SwapRemoveMiddle", [](size_t size) { return size / 2; }},
          {"SwapRemoveLast", [](size_t size) { return size - 1; }}}) {
      m.emplace_back(name, [at = at](OngoingRelation* r) {
        if (r->size() > 0) r->SwapRemove(at(r->size()));
      });
    }
  }
  return m;
}

class RelationContractTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RelationContractTest, MutatingEitherSideOfACopyLeavesTheOtherAlone) {
  const size_t n = GetParam();
  for (const auto& [name, mutate] : ContractMutations(n)) {
    SCOPED_TRACE(name);
    {
      const OngoingRelation original = ContractRelation(n);
      const std::vector<std::string> before = Rows(original);
      OngoingRelation copy = original;
      mutate(&copy);
      EXPECT_EQ(Rows(original), before);
      ExpectRangeForWalksIndexOrder(copy);
    }
    {
      OngoingRelation original = ContractRelation(n);
      const std::vector<std::string> before = Rows(original);
      const OngoingRelation copy = original;
      mutate(&original);
      EXPECT_EQ(Rows(copy), before);
      ExpectRangeForWalksIndexOrder(original);
    }
  }
}

TEST_P(RelationContractTest, VersionChainsKeepEveryVersion) {
  // A chain of copies, each mutated once, as a table's published
  // versions are: every earlier version keeps its rows.
  const size_t n = GetParam();
  std::vector<OngoingRelation> versions = {ContractRelation(n)};
  std::vector<std::vector<std::string>> rows = {Rows(versions[0])};
  for (const auto& [name, mutate] : ContractMutations(n)) {
    OngoingRelation next = versions.back();
    mutate(&next);
    rows.push_back(Rows(next));
    versions.push_back(std::move(next));
  }
  for (size_t v = 0; v < versions.size(); ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    EXPECT_EQ(Rows(versions[v]), rows[v]);
    ExpectRangeForWalksIndexOrder(versions[v]);
  }
}

// The Torp modifications by their definition, as a rebuild: a row the
// filter selects is matched when min(end, tc) changes its valid time
// (a row already closed at or before tc stays as it is); a matched
// row's valid time ends at min(end, tc), and the row is dropped if it
// is thereby never valid; an update also adds the updater's row valid
// as [tc, now). Each matched row logs its removal and the insertion of
// what replaces it.
struct Rebuilt {
  size_t matched = 0;
  std::multiset<std::string> rows;
  std::multiset<std::string> deltas;  // "-" or "+" and the tuple
};

Rebuilt RebuildOracle(
    const OngoingRelation& r, TimePoint tc, const ModificationFilter& filter,
    const std::function<std::vector<Value>(const Tuple&)>* updater) {
  Rebuilt out;
  for (size_t i = 0; i < r.size(); ++i) {
    const Tuple& t = r.tuple(i);
    const Result<bool> match = filter(t);
    EXPECT_TRUE(match.ok()) << match.status();
    const OngoingInterval& vt = t.value(kContractVt).AsOngoingInterval();
    const OngoingInterval closed(vt.start(),
                                 Min(vt.end(), OngoingTimePoint::Fixed(tc)));
    if (!match.ok() || !*match || closed == vt) {
      out.rows.insert(t.ToString());
      continue;
    }
    ++out.matched;
    out.deltas.insert("-" + t.ToString());
    if (!closed.IsAlwaysEmpty()) {
      std::vector<Value> values = t.values();
      values[kContractVt] = Value::Ongoing(closed);
      const std::string row = Tuple(std::move(values), t.rt()).ToString();
      out.rows.insert(row);
      out.deltas.insert("+" + row);
    }
    if (updater != nullptr) {
      std::vector<Value> values = (*updater)(t);
      values[kContractVt] = Value::Ongoing(OngoingInterval(
          OngoingTimePoint::Fixed(tc), OngoingTimePoint::Now()));
      const std::string row = Tuple(std::move(values), t.rt()).ToString();
      out.rows.insert(row);
      out.deltas.insert("+" + row);
    }
  }
  return out;
}

std::multiset<std::string> LoggedSince(const OngoingRelation& r,
                                       uint64_t since) {
  std::vector<const Modification*> entries;
  EXPECT_TRUE(r.modification_log()->EntriesSince(since, &entries));
  std::multiset<std::string> deltas;
  for (const Modification* m : entries) {
    deltas.insert((m->kind == Modification::Kind::kRemove ? "-" : "+") +
                  m->tuple.ToString());
  }
  return deltas;
}

TEST_P(RelationContractTest, TorpModificationsEqualTheRebuildOracle) {
  const size_t n = GetParam();
  const std::function<std::vector<Value>(const Tuple&)> rekey = Rekey;
  const ModificationFilter all = [](const Tuple&) { return true; };
  struct Case {
    std::string name;
    TimePoint tc;
    ModificationFilter filter;
    bool update;
  };
  const Case cases[] = {
      {"delete K=3", 50, KeyIs(3), false},
      {"delete every row", 50, all, false},
      {"delete every row, none stays valid", -1, all, false},
      {"update K=3", 50, KeyIs(3), true},
      {"update every row", 50, all, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    OngoingRelation r = ContractRelation(n);
    const Rebuilt expected =
        RebuildOracle(r, c.tc, c.filter, c.update ? &rekey : nullptr);
    r.EnableModificationLog();
    const uint64_t since = r.modification_log()->next_seq();
    Result<size_t> matched =
        c.update ? TemporalUpdate(&r, kContractVt, c.tc, c.filter, rekey)
                 : TemporalDelete(&r, kContractVt, c.tc, c.filter);
    ASSERT_TRUE(matched.ok()) << matched.status();
    EXPECT_EQ(*matched, expected.matched);
    EXPECT_EQ(RowSet(r), expected.rows);
    EXPECT_EQ(LoggedSince(r, since), expected.deltas);
    ExpectRangeForWalksIndexOrder(r);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelationContractTest,
                         ::testing::ValuesIn(ContractSizes()));

}  // namespace
}  // namespace ongoingdb
