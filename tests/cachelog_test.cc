#include <memory>
#include <ostream>
#include <vector>

#include "core/bbox/bbox.h"
#include "core/cachelog/caching_store.h"
#include "core/cachelog/mod_log.h"
#include "core/common/overlay.h"
#include "core/naive/naive.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"
#include "xml/generators.h"

namespace boxes {
namespace {

using testing::TagOrderLids;
using testing::TestDb;

TEST(ModificationLogTest, ReplayAppliesShiftsInRange) {
  ModificationLog log(8);
  log.AppendShift(Label::FromScalar(10), Label::FromScalar(20), +2);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(5), -1);

  Label in_range = Label::FromScalar(15);
  EXPECT_EQ(log.Replay(0, &in_range), ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(in_range.scalar(), 17u);

  Label out_of_range = Label::FromScalar(30);
  EXPECT_EQ(log.Replay(0, &out_of_range),
            ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(out_of_range.scalar(), 30u);
}

TEST(ModificationLogTest, ReplaySkipsAlreadySeenEntries) {
  ModificationLog log(8);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(100), +1);
  const uint64_t t1 = log.now();
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(100), +1);
  Label label = Label::FromScalar(50);
  EXPECT_EQ(log.Replay(t1, &label), ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(label.scalar(), 51u);  // only the second shift applied
}

TEST(ModificationLogTest, InvalidationMakesStale) {
  ModificationLog log(8);
  log.AppendInvalidate(Label::FromScalar(10), Label::FromScalar(20));
  Label inside = Label::FromScalar(12);
  EXPECT_EQ(log.Replay(0, &inside), ModificationLog::ReplayResult::kStale);
  Label outside = Label::FromScalar(25);
  EXPECT_EQ(log.Replay(0, &outside),
            ModificationLog::ReplayResult::kUsable);
}

TEST(ModificationLogTest, OverflowEvictsOldest) {
  ModificationLog log(2);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(9), +1);  // t=1
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(9), +1);  // t=2
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(9), +1);  // t=3
  Label label = Label::FromScalar(5);
  // Cached at t=0: entry 1 has been dropped -> stale.
  EXPECT_EQ(log.Replay(0, &label), ModificationLog::ReplayResult::kStale);
  // Cached at t=1: entries 2..3 are present.
  label = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(1, &label), ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(label.scalar(), 7u);
}

TEST(ModificationLogTest, ZeroCapacityIsBasicCaching) {
  ModificationLog log(0);
  Label label = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(log.now(), &label),
            ModificationLog::ReplayResult::kUsable);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(9), +1);
  EXPECT_EQ(log.Replay(0, &label), ModificationLog::ReplayResult::kStale);
  EXPECT_EQ(log.Replay(log.now(), &label),
            ModificationLog::ReplayResult::kUsable);
}

TEST(ModificationLogTest, OrdinalReplay) {
  ModificationLog log(4);
  log.AppendOrdinalShift(100, +2);
  log.AppendOrdinalShift(50, -1);
  uint64_t below = 40;
  EXPECT_EQ(log.ReplayOrdinal(0, &below),
            ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(below, 40u);
  uint64_t above = 200;
  EXPECT_EQ(log.ReplayOrdinal(0, &above),
            ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(above, 201u);
  // Value-range invalidations do not affect ordinals.
  log.AppendInvalidate(Label::FromScalar(0), Label::FromScalar(1000000));
  uint64_t ordinal = 10;
  EXPECT_EQ(log.ReplayOrdinal(log.now() - 1, &ordinal),
            ModificationLog::ReplayResult::kUsable);
}

TEST(ModificationLogTest, ShiftThatWouldWrapComponentIsStale) {
  // Regression: a negative delta larger than the label's last component
  // wrapped the unsigned component to a huge value instead of reporting
  // the cached value as unrepairable.
  ModificationLog log(8);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(100), -10);
  Label small = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(0, &small), ModificationLog::ReplayResult::kStale);
  // A component large enough to absorb the delta still replays.
  Label large = Label::FromScalar(50);
  EXPECT_EQ(log.Replay(0, &large), ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(large.scalar(), 40u);
}

TEST(ModificationLogTest, OrdinalShiftThatWouldWrapIsStale) {
  ModificationLog log(8);
  log.AppendOrdinalShift(0, -10);
  uint64_t small = 5;
  EXPECT_EQ(log.ReplayOrdinal(0, &small),
            ModificationLog::ReplayResult::kStale);
  uint64_t large = 50;
  EXPECT_EQ(log.ReplayOrdinal(0, &large),
            ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(large, 40u);
}

TEST(ModificationLogTest, EntryExactlyAtEvictionAgeIsStillUsable) {
  // Staleness boundary at the log's capacity k: a value cached k entries
  // ago replays off the full window; one more append evicts the entry it
  // needs and tips it to stale.
  ModificationLog log(3);
  const uint64_t cached_at = log.now();
  for (int i = 0; i < 3; ++i) {
    log.AppendShift(Label::FromScalar(0), Label::FromScalar(100), +1);
  }
  Label label = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(cached_at, &label),
            ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(label.scalar(), 8u);

  log.AppendShift(Label::FromScalar(0), Label::FromScalar(100), +1);
  label = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(cached_at, &label),
            ModificationLog::ReplayResult::kStale);
  // A value re-cached one entry later sits exactly at age k again.
  label = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(cached_at + 1, &label),
            ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(label.scalar(), 8u);
}

TEST(ModificationLogTest, InvalidatedThenRecachedReplaysAgain) {
  // An invalidation poisons only values cached before it; once the caller
  // refreshes (re-caches) at a later timestamp, replay works normally.
  ModificationLog log(8);
  log.AppendInvalidate(Label::FromScalar(10), Label::FromScalar(20));
  Label label = Label::FromScalar(12);
  EXPECT_EQ(log.Replay(0, &label), ModificationLog::ReplayResult::kStale);

  const uint64_t recached_at = log.now();
  log.AppendShift(Label::FromScalar(10), Label::FromScalar(20), +3);
  label = Label::FromScalar(12);
  EXPECT_EQ(log.Replay(recached_at, &label),
            ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(label.scalar(), 15u);
}

TEST(ModificationLogTest, ShiftLandingExactlyOnZeroIsUsable) {
  // Boundary partner of the wrap regression: a negative delta that takes
  // the component exactly to zero is legal; one further is a wrap.
  ModificationLog log(8);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(100), -5);
  Label exact = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(0, &exact), ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(exact.scalar(), 0u);
  Label wraps = Label::FromScalar(4);
  EXPECT_EQ(log.Replay(0, &wraps), ModificationLog::ReplayResult::kStale);
}

TEST(ModificationLogTest, Int64MinShiftDeltaIsHandled) {
  // INT64_MIN cannot be negated in int64_t; the checked shift must not UB.
  ModificationLog log(8);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(UINT64_MAX),
                  INT64_MIN);
  Label label = Label::FromScalar(123);
  EXPECT_EQ(log.Replay(0, &label), ModificationLog::ReplayResult::kStale);
}

TEST(IndexedModificationLogTest, ShiftThatWouldWrapComponentIsStale) {
  // The indexed log shares the staleness rule so that both ReplayLog
  // implementations return identical results.
  IndexedModificationLog log(8);
  log.AppendShift(Label::FromScalar(0), Label::FromScalar(100), -10);
  Label small = Label::FromScalar(5);
  EXPECT_EQ(log.Replay(0, &small), ModificationLog::ReplayResult::kStale);
  Label large = Label::FromScalar(50);
  EXPECT_EQ(log.Replay(0, &large), ModificationLog::ReplayResult::kUsable);
  EXPECT_EQ(large.scalar(), 40u);

  log.AppendOrdinalShift(0, -10);
  uint64_t small_ordinal = 5;
  EXPECT_EQ(log.ReplayOrdinal(0, &small_ordinal),
            ModificationLog::ReplayResult::kStale);
}

// ---------------------------------------------------------------------------
// CachingLabelStore over real schemes

struct SchemeFactory {
  const char* name;
  std::unique_ptr<LabelingScheme> (*make)(PageCache*);
};

// gtest prints the parameter after each test name, and gtest_discover_tests
// copies that text into the ctest name. Print the scheme name: the default
// byte dump shows the struct's pointers, which change with every build and
// every run, so ctest names would never stay the same.
void PrintTo(const SchemeFactory& factory, std::ostream* os) {
  *os << factory.name;
}

std::unique_ptr<LabelingScheme> MakeWBox(PageCache* cache) {
  return std::make_unique<WBox>(cache);
}
std::unique_ptr<LabelingScheme> MakeBBox(PageCache* cache) {
  return std::make_unique<BBox>(cache);
}
std::unique_ptr<LabelingScheme> MakeNaive(PageCache* cache) {
  return std::make_unique<NaiveScheme>(
      cache, NaiveOptions{.gap_bits = 8, .count_bits = 30});
}

class CachingStoreTest
    : public ::testing::TestWithParam<SchemeFactory> {};

/// The central §6 correctness property: after any update stream, a cached
/// lookup (replayed through the log or refreshed) returns exactly what a
/// direct scheme lookup returns.
TEST_P(CachingStoreTest, CachedLookupsAlwaysMatchDirectLookups) {
  TestDb db(/*page_size=*/1024);
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  CachingLabelStore store(scheme.get(), /*log_capacity=*/16);

  const xml::Document doc = xml::MakeTwoLevelDocument(300);
  std::vector<NewElement> lids;
  ASSERT_OK(scheme->BulkLoad(doc, &lids));

  std::vector<CachedLabelRef> refs;
  refs.reserve(lids.size());
  for (const NewElement& e : lids) {
    refs.push_back(store.MakeRef(e.start));
  }
  Random rng(11);
  for (int round = 0; round < 40; ++round) {
    // A few updates...
    for (int u = 0; u < 3; ++u) {
      const size_t victim = 1 + rng.Uniform(lids.size() - 1);
      ASSERT_OK(
          scheme->InsertElementBefore(lids[victim].start).status());
    }
    // ... then reads through the cache, checked against direct lookups.
    for (int r = 0; r < 20; ++r) {
      const size_t index = rng.Uniform(refs.size());
      ASSERT_OK_AND_ASSIGN(const Label via_cache,
                           store.Lookup(&refs[index]));
      ASSERT_OK_AND_ASSIGN(const Label direct,
                           scheme->Lookup(lids[index].start));
      ASSERT_TRUE(via_cache == direct)
          << GetParam().name << " round " << round << " index " << index
          << ": cache=" << via_cache.ToString()
          << " direct=" << direct.ToString();
    }
  }
  // The log must have served a decent share without full lookups.
  EXPECT_GT(store.served_fresh() + store.served_replayed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CachingStoreTest,
    ::testing::Values(SchemeFactory{"wbox", MakeWBox},
                      SchemeFactory{"bbox", MakeBBox},
                      SchemeFactory{"naive", MakeNaive}),
    [](const ::testing::TestParamInfo<SchemeFactory>& info) {
      return std::string(info.param.name);
    });

TEST(CachingStoreIoTest, FreshCacheHitCostsZeroIo) {
  TestDb db;
  WBox wbox(&db.cache);
  CachingLabelStore store(&wbox, 16);
  const xml::Document doc = xml::MakeTwoLevelDocument(500);
  std::vector<NewElement> lids;
  ASSERT_OK(wbox.BulkLoad(doc, &lids));
  CachedLabelRef ref = store.MakeRef(lids[100].start);
  ASSERT_OK(store.Lookup(&ref).status());  // warms the cache
  ASSERT_OK(db.cache.FlushAll());
  db.cache.ResetStats();
  {
    IoScope scope(&db.cache);
    ASSERT_OK(store.Lookup(&ref).status());
  }
  EXPECT_EQ(db.cache.stats().total(), 0u);
  EXPECT_EQ(store.served_fresh(), 1u);
}

TEST(CachingStoreIoTest, ReplayedLookupCostsZeroIo) {
  TestDb db;
  WBox wbox(&db.cache);
  CachingLabelStore store(&wbox, 64);
  const xml::Document doc = xml::MakeTwoLevelDocument(500);
  std::vector<NewElement> lids;
  ASSERT_OK(wbox.BulkLoad(doc, &lids));
  CachedLabelRef ref = store.MakeRef(lids[400].start);
  ASSERT_OK(store.Lookup(&ref).status());
  // A leaf-local insert far before the cached label shifts it by +2; the
  // log replays the effect without touching a page.
  ASSERT_OK(wbox.InsertElementBefore(lids[400].start).status());
  ASSERT_OK(db.cache.FlushAll());
  db.cache.ResetStats();
  {
    IoScope scope(&db.cache);
    ASSERT_OK_AND_ASSIGN(const Label label, store.Lookup(&ref));
    ASSERT_OK_AND_ASSIGN(const Label direct, wbox.Lookup(lids[400].start));
    // Direct lookup inside the scope costs I/O; subtract it by comparing
    // values only.
    EXPECT_TRUE(label == direct);
  }
  EXPECT_EQ(store.served_replayed(), 1u);
}

TEST(CachingStoreTest, BasicCachingInvalidatesOnAnyChange) {
  TestDb db;
  WBox wbox(&db.cache);
  CachingLabelStore store(&wbox, /*log_capacity=*/0);
  const xml::Document doc = xml::MakeTwoLevelDocument(100);
  std::vector<NewElement> lids;
  ASSERT_OK(wbox.BulkLoad(doc, &lids));
  CachedLabelRef ref = store.MakeRef(lids[50].start);
  ASSERT_OK(store.Lookup(&ref).status());
  ASSERT_OK(store.Lookup(&ref).status());
  EXPECT_EQ(store.served_fresh(), 1u);
  ASSERT_OK(wbox.InsertElementBefore(lids[10].start).status());
  ASSERT_OK(store.Lookup(&ref).status());
  EXPECT_EQ(store.served_full(), 2u);  // initial fill + post-update refresh
}

TEST(CachingStoreTest, InvalidatedRefDoesFullFetchThenServesFreshAgain) {
  // Store-level invalidate -> re-cache cycle: a naive-k relabel
  // invalidates every cached label; the next lookup must pay a full fetch
  // (replay is not allowed to repair across an invalidation), after which
  // the refreshed reference serves fresh again.
  TestDb db;
  NaiveOptions options;
  options.gap_bits = 2;
  NaiveScheme naive(&db.cache, options);
  CachingLabelStore store(&naive, /*log_capacity=*/64);
  const xml::Document doc = xml::MakeTwoLevelDocument(100);
  std::vector<NewElement> lids;
  ASSERT_OK(naive.BulkLoad(doc, &lids));
  CachedLabelRef ref = store.MakeRef(lids[50].start);
  ASSERT_OK(store.Lookup(&ref).status());
  EXPECT_EQ(store.served_full(), 1u);

  // Concentrated inserts exhaust the 2-bit gap and force a relabel.
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(naive.InsertElementBefore(lids[50].start).status());
  }
  ASSERT_GT(naive.relabel_count(), 0u);

  ASSERT_OK_AND_ASSIGN(const Label refreshed, store.Lookup(&ref));
  EXPECT_EQ(store.served_full(), 2u);
  ASSERT_OK_AND_ASSIGN(const Label direct, naive.Lookup(lids[50].start));
  EXPECT_TRUE(refreshed == direct);

  const uint64_t fresh_before = store.served_fresh();
  ASSERT_OK(store.Lookup(&ref).status());
  EXPECT_EQ(store.served_fresh(), fresh_before + 1);
}

TEST(CachingStoreTest, OrdinalCaching) {
  TestDb db;
  WBoxOptions options;
  options.maintain_ordinal = true;
  WBox wbox(&db.cache, options);
  CachingLabelStore store(&wbox, 32);
  const xml::Document doc = xml::MakeTwoLevelDocument(200);
  std::vector<NewElement> lids;
  ASSERT_OK(wbox.BulkLoad(doc, &lids));
  const std::vector<Lid> order = TagOrderLids(doc, lids);

  CachedOrdinalRef ref;
  ref.lid = order[300];
  ASSERT_OK_AND_ASSIGN(uint64_t ordinal, store.OrdinalLookup(&ref));
  EXPECT_EQ(ordinal, 300u);
  // Insert an element before tag 100: ordinals >= 100 shift by +2.
  ASSERT_OK(wbox.InsertElementBefore(order[100]).status());
  ASSERT_OK_AND_ASSIGN(ordinal, store.OrdinalLookup(&ref));
  EXPECT_EQ(ordinal, 302u);
  EXPECT_GE(store.served_replayed(), 1u);
  // And the replayed value agrees with the scheme.
  ASSERT_OK_AND_ASSIGN(const uint64_t direct,
                       wbox.OrdinalLookup(order[300]));
  EXPECT_EQ(ordinal, direct);
}

// A scheme has one listener slot. A second observer claiming it would
// silently leave the first serving stale labels, so it must fail loudly.
TEST(CachingStoreDeathTest, SecondListenerOnOneSchemeFailsLoudly) {
  TestDb db;
  WBox wbox(&db.cache);
  CachingLabelStore store(&wbox, 16);
  EXPECT_DEATH({ OverlayedScheme overlay(&wbox, OverlayOptions{}); },
               "BOXES_CHECK");
}

}  // namespace
}  // namespace boxes
