// RepairMap ≡ ModificationLog. One listener feeds every effect of a
// scheme's history into the paper's FIFO log (the oracle) and into a
// RepairMap pinned at the same cut. After every op, every label that was
// live at the cut and has not been deleted since must get the same
// usable/stale outcome, the same label and the same ordinal from both, and
// a usable answer must equal the scheme's own. The cut moves at random
// points and the window is small enough to overflow now and then. Below
// the differential: the FIFO suite's boundary cases, run against the map,
// and the overlay's repair window end to end.

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/bbox/bbox.h"
#include "core/cachelog/mod_log.h"
#include "core/cachelog/repair_map.h"
#include "core/common/overlay.h"
#include "core/naive/naive.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "model_tree.h"
#include "test_util.h"
#include "util/random.h"
#include "xml/generators.h"

namespace boxes::testing {
namespace {

constexpr uint64_t kHistorySeed = 0x4e9a1125ULL;
constexpr int kOps = 1200;
constexpr size_t kCapacity = 256;
constexpr double kPinChance = 1.0 / 64;

/// Feeds each effect into the FIFO and into the map pinned at the cut, and
/// counts invalidation bounds shorter or longer than the labels at the cut.
class Tee : public UpdateListener {
 public:
  Tee() : log_(kCapacity) {}

  void Pin(size_t label_length) {
    cut_ = log_.now();
    map_ = std::make_unique<RepairMap>(kCapacity);
    label_length_ = label_length;
  }

  void OnRangeShift(const Label& lo, const Label& hi, int64_t delta,
                    bool last_component_only) override {
    (void)last_component_only;
    log_.AppendShift(lo, hi, delta);
    map_->Shift(lo, hi, delta);
    ++shifts_;
  }
  void OnInvalidateRange(const Label& lo, const Label& hi) override {
    log_.AppendInvalidate(lo, hi);
    map_->Invalidate(lo, hi);
    shorter_bounds_ += lo.components().size() < label_length_;
    longer_bounds_ += hi.components().size() > label_length_;
  }
  void OnOrdinalShift(uint64_t from, int64_t delta) override {
    log_.AppendOrdinalShift(from, delta);
    map_->ShiftOrdinal(from, delta);
  }

  ReplayResult Replay(Label* label) const { return log_.Replay(cut_, label); }
  ReplayResult ReplayOrdinal(uint64_t* ordinal) const {
    return log_.ReplayOrdinal(cut_, ordinal);
  }
  const RepairMap& map() const { return *map_; }
  uint64_t shifts() const { return shifts_; }
  uint64_t shorter_bounds() const { return shorter_bounds_; }
  uint64_t longer_bounds() const { return longer_bounds_; }

 private:
  ModificationLog log_;
  std::unique_ptr<RepairMap> map_;
  uint64_t cut_ = 0;
  size_t label_length_ = 0;
  uint64_t shifts_ = 0;
  uint64_t shorter_bounds_ = 0;
  uint64_t longer_bounds_ = 0;
};

struct History {
  const char* name;
  std::unique_ptr<LabelingScheme> (*make)(PageCache* cache);
  bool ordinal;
  bool path_labels;  // B-BOX: multi-component labels, subtree invalidations
};

void PrintTo(const History& history, std::ostream* os) { *os << history.name; }

std::unique_ptr<LabelingScheme> MakeWbox(PageCache* cache) {
  return std::make_unique<WBox>(cache);
}
std::unique_ptr<LabelingScheme> MakeWboxOrdinal(PageCache* cache) {
  return std::make_unique<WBox>(cache,
                               WBoxOptions{.maintain_ordinal = true});
}
std::unique_ptr<LabelingScheme> MakeBbox(PageCache* cache) {
  return std::make_unique<BBox>(cache);
}
std::unique_ptr<LabelingScheme> MakeBboxOrdinal(PageCache* cache) {
  return std::make_unique<BBox>(cache, BBoxOptions{.ordinal = true});
}
std::unique_ptr<LabelingScheme> MakeNaive(PageCache* cache) {
  return std::make_unique<NaiveScheme>(
      cache, NaiveOptions{.gap_bits = 8, .count_bits = 40});
}

class RepairMapDifferentialTest : public ::testing::TestWithParam<History> {};

/// One label as it was at the cut.
struct BaseLabel {
  Lid lid;
  Label label;
  uint64_t ordinal;
};

TEST_P(RepairMapDifferentialTest, MatchesFifoReplayAfterEveryOp) {
  const History& history = GetParam();
  TestDb db(/*page_size=*/1024);
  std::unique_ptr<LabelingScheme> scheme = history.make(&db.cache);
  Tee tee;
  scheme->SetUpdateListener(&tee);
  ModelTree model;
  Random rng(kHistorySeed);

  std::vector<BaseLabel> base;
  std::set<Lid> deleted;  // since the cut
  auto pin = [&]() {
    base.clear();
    deleted.clear();
    for (const Lid lid : model.TagOrder()) {
      BaseLabel entry{lid, Label(), 0};
      ASSERT_OK_AND_ASSIGN(entry.label, scheme->Lookup(lid));
      if (history.ordinal) {
        ASSERT_OK_AND_ASSIGN(entry.ordinal, scheme->OrdinalLookup(lid));
      }
      base.push_back(entry);
    }
    tee.Pin(base.front().label.components().size());
  };
  auto note_deleted = [&deleted](const NewElement& lids) {
    deleted.insert(lids.start);
    deleted.insert(lids.end);
  };

  uint64_t stale = 0;
  uint64_t unchanged = 0;
  uint64_t moved = 0;
  auto check = [&]() {
    for (const BaseLabel& entry : base) {
      if (deleted.count(entry.lid) != 0) {
        continue;
      }
      Label replayed = entry.label;
      Label repaired = entry.label;
      const ReplayResult fifo = tee.Replay(&replayed);
      ASSERT_EQ(fifo, tee.map().Repair(&repaired))
          << history.name << " lid " << entry.lid << " at the cut "
          << entry.label.ToString();
      if (fifo == ReplayResult::kStale) {
        ++stale;
      } else {
        ASSERT_EQ(replayed, repaired)
            << history.name << " lid " << entry.lid << " at the cut "
            << entry.label.ToString();
        ASSERT_OK_AND_ASSIGN(const Label truth, scheme->Lookup(entry.lid));
        ASSERT_EQ(truth, repaired) << history.name << " lid " << entry.lid;
        ++(repaired == entry.label ? unchanged : moved);
      }
      if (history.ordinal) {
        uint64_t replayed_ordinal = entry.ordinal;
        uint64_t repaired_ordinal = entry.ordinal;
        const ReplayResult fifo_ordinal = tee.ReplayOrdinal(&replayed_ordinal);
        ASSERT_EQ(fifo_ordinal, tee.map().RepairOrdinal(&repaired_ordinal))
            << history.name << " lid " << entry.lid << " ordinal at the cut "
            << entry.ordinal;
        if (fifo_ordinal == ReplayResult::kUsable) {
          ASSERT_EQ(replayed_ordinal, repaired_ordinal)
              << history.name << " lid " << entry.lid;
          ASSERT_OK_AND_ASSIGN(const uint64_t truth,
                               scheme->OrdinalLookup(entry.lid));
          ASSERT_EQ(truth, repaired_ordinal)
              << history.name << " lid " << entry.lid;
        }
      }
    }
  };

  // The first cut holds the lone root: B-BOX then grows from one level,
  // whose whole-tree invalidation bound is longer than the labels at the
  // cut.
  ASSERT_OK_AND_ASSIGN(const NewElement root, scheme->InsertFirstElement());
  model.SetRoot(root);
  pin();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // The snapshot differential's op mix.
  for (int op = 0; op < kOps; ++op) {
    const double roll = rng.NextDouble();
    if (roll < 0.60 || model.element_count() < 64) {
      const bool before_start = rng.Bernoulli(0.5);
      const int target =
          model.RandomElement(&rng, /*exclude_root=*/before_start);
      if (before_start) {
        ASSERT_OK_AND_ASSIGN(
            const NewElement fresh,
            scheme->InsertElementBefore(model.node(target).lids.start));
        model.InsertBeforeStart(target, fresh);
      } else {
        ASSERT_OK_AND_ASSIGN(
            const NewElement fresh,
            scheme->InsertElementBefore(model.node(target).lids.end));
        model.InsertAsLastChild(target, fresh);
      }
    } else if (roll < 0.82) {
      const int target = model.RandomElement(&rng, /*exclude_root=*/true);
      const NewElement lids = model.node(target).lids;
      ASSERT_OK(scheme->Delete(lids.start));
      ASSERT_OK(scheme->Delete(lids.end));
      model.DeleteElement(target);
      note_deleted(lids);
    } else if (roll < 0.92) {
      const bool before_start = rng.Bernoulli(0.5);
      const int target =
          model.RandomElement(&rng, /*exclude_root=*/before_start);
      const xml::Document doc =
          xml::MakeRandomDocument(rng.UniformRange(2, 8), 4, rng.Next());
      std::vector<NewElement> lids;
      const Lid anchor = before_start ? model.node(target).lids.start
                                      : model.node(target).lids.end;
      ASSERT_OK(scheme->InsertSubtreeBefore(anchor, doc, &lids));
      if (before_start) {
        model.GraftBeforeStart(target, doc, lids);
      } else {
        model.GraftAsLastChild(target, doc, lids);
      }
    } else {
      const int target = model.RandomElement(&rng, /*exclude_root=*/true);
      if (model.SubtreeElementCount(target) > 12) {
        --op;  // reroll; keep the history length
        continue;
      }
      const NewElement root_lids = model.node(target).lids;
      ASSERT_OK(scheme->DeleteSubtree(root_lids.start, root_lids.end));
      for (const NewElement& victim : model.DeleteSubtree(target)) {
        note_deleted(victim);
      }
    }

    check();
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "after op " << op;
    if (rng.Bernoulli(kPinChance)) {
      pin();
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }

  // The history reached every outcome: stale (invalidated or past the
  // window), usable as it was, and, where the scheme shifts labels, moved.
  EXPECT_GT(stale, 0u) << history.name;
  EXPECT_GT(unchanged, 0u) << history.name;
  if (tee.shifts() > 0) {
    EXPECT_GT(moved, 0u) << history.name;
  }
  if (history.path_labels) {
    EXPECT_GT(tee.shorter_bounds(), 0u) << history.name;
    EXPECT_GT(tee.longer_bounds(), 0u) << history.name;
  }
  scheme->SetUpdateListener(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RepairMapDifferentialTest,
    ::testing::Values(History{"wbox", &MakeWbox, false, false},
                      History{"wbox_ordinal", &MakeWboxOrdinal, true, false},
                      History{"bbox", &MakeBbox, false, true},
                      History{"bbox_ordinal", &MakeBboxOrdinal, true, true},
                      History{"naive8", &MakeNaive, false, false}),
    [](const ::testing::TestParamInfo<History>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// The FIFO suite's boundary cases (cachelog_test.cc), against the map

Label Scalar(uint64_t value) { return Label::FromScalar(value); }

/// Repairs `value` (below 2^63) through `map`; the repaired scalar, or -1
/// when stale.
int64_t RepairScalar(const RepairMap& map, uint64_t value) {
  Label label = Scalar(value);
  if (map.Repair(&label) == ReplayResult::kStale) {
    return -1;
  }
  return static_cast<int64_t>(label.scalar());
}

TEST(RepairMapTest, NoEffectLeavesEveryLabelAsItWas) {
  RepairMap map(8);
  EXPECT_EQ(map.effects(), 0u);
  EXPECT_EQ(RepairScalar(map, 42), 42);
  uint64_t ordinal = 7;
  EXPECT_EQ(map.RepairOrdinal(&ordinal), ReplayResult::kUsable);
  EXPECT_EQ(ordinal, 7u);
}

TEST(RepairMapTest, ShiftsCompose) {
  RepairMap map(8);
  map.Shift(Scalar(10), Scalar(20), +2);
  map.Shift(Scalar(15), Scalar(30), +5);  // images of bases 13..20 move on
  EXPECT_EQ(RepairScalar(map, 9), 9);
  EXPECT_EQ(RepairScalar(map, 12), 14);
  EXPECT_EQ(RepairScalar(map, 13), 20);
  EXPECT_EQ(RepairScalar(map, 20), 27);
  EXPECT_EQ(map.effects(), 2u);
}

TEST(RepairMapTest, ShiftLandingExactlyOnZeroIsUsable) {
  RepairMap map(8);
  map.Shift(Scalar(0), Scalar(100), -5);
  EXPECT_EQ(RepairScalar(map, 5), 0);
  EXPECT_EQ(RepairScalar(map, 4), -1);  // one further is a wrap
}

TEST(RepairMapTest, ShiftThatWouldWrapIsStale) {
  RepairMap down(8);
  down.Shift(Scalar(0), Scalar(100), -10);
  EXPECT_EQ(RepairScalar(down, 5), -1);
  EXPECT_EQ(RepairScalar(down, 50), 40);

  RepairMap up(8);
  up.Shift(Scalar(UINT64_MAX - 20), Scalar(UINT64_MAX), +10);
  Label past_top = Scalar(UINT64_MAX - 5);
  EXPECT_EQ(up.Repair(&past_top), ReplayResult::kStale);
  Label top = Scalar(UINT64_MAX - 20);
  ASSERT_EQ(up.Repair(&top), ReplayResult::kUsable);
  EXPECT_EQ(top.scalar(), UINT64_MAX - 10);

  RepairMap extreme(8);
  extreme.Shift(Scalar(0), Scalar(UINT64_MAX), INT64_MIN);
  EXPECT_EQ(RepairScalar(extreme, 123), -1);
  Label high = Scalar(UINT64_MAX);
  ASSERT_EQ(extreme.Repair(&high), ReplayResult::kUsable);
  EXPECT_EQ(high.scalar(), UINT64_MAX / 2);
}

TEST(RepairMapTest, OrdinalShiftsFollowTheFifo) {
  RepairMap map(8);
  map.ShiftOrdinal(100, +2);
  map.ShiftOrdinal(51, -1);  // the ordinal 50 was deleted
  uint64_t below = 40;
  EXPECT_EQ(map.RepairOrdinal(&below), ReplayResult::kUsable);
  EXPECT_EQ(below, 40u);
  uint64_t above = 200;
  EXPECT_EQ(map.RepairOrdinal(&above), ReplayResult::kUsable);
  EXPECT_EQ(above, 201u);
  uint64_t gone = 50;
  EXPECT_EQ(map.RepairOrdinal(&gone), ReplayResult::kStale);
  // Value-range invalidations do not affect ordinals.
  map.Invalidate(Scalar(0), Scalar(1000000));
  uint64_t ordinal = 10;
  EXPECT_EQ(map.RepairOrdinal(&ordinal), ReplayResult::kUsable);
  EXPECT_EQ(ordinal, 10u);

  RepairMap wrap(8);
  wrap.ShiftOrdinal(0, -10);
  uint64_t small = 5;
  EXPECT_EQ(wrap.RepairOrdinal(&small), ReplayResult::kStale);
  uint64_t large = 50;
  EXPECT_EQ(wrap.RepairOrdinal(&large), ReplayResult::kUsable);
  EXPECT_EQ(large, 40u);
}

TEST(RepairMapTest, InvalidateThenShift) {
  // A map pinned before the invalidation reports the range stale for good;
  // one pinned after it repairs the later shift normally.
  RepairMap before(8);
  before.Invalidate(Scalar(10), Scalar(20));
  RepairMap after(8);
  for (RepairMap* map : {&before, &after}) {
    map->Shift(Scalar(10), Scalar(20), +3);
  }
  EXPECT_EQ(RepairScalar(before, 12), -1);
  EXPECT_EQ(RepairScalar(before, 25), 25);
  EXPECT_EQ(RepairScalar(after, 12), 15);
}

TEST(RepairMapTest, OvertakenPointsAreRetired) {
  // Images in (hi, hi + delta] can hold no live label once [lo, hi] moves
  // up onto them (the FIFO would still answer for those dead labels).
  RepairMap map(8);
  map.Shift(Scalar(10), Scalar(20), +2);
  EXPECT_EQ(RepairScalar(map, 20), 22);
  EXPECT_EQ(RepairScalar(map, 21), -1);
  EXPECT_EQ(RepairScalar(map, 22), -1);
  EXPECT_EQ(RepairScalar(map, 23), 23);
  map.Shift(Scalar(30), Scalar(40), -3);
  EXPECT_EQ(RepairScalar(map, 26), 26);
  EXPECT_EQ(RepairScalar(map, 27), -1);
  EXPECT_EQ(RepairScalar(map, 29), -1);
  EXPECT_EQ(RepairScalar(map, 30), 27);
}

TEST(RepairMapTest, ZeroCapacityIsBasicCaching) {
  RepairMap map(0);
  EXPECT_EQ(RepairScalar(map, 5), 5);
  map.Shift(Scalar(0), Scalar(9), +1);
  EXPECT_EQ(RepairScalar(map, 5), -1);
  EXPECT_EQ(RepairScalar(map, 50), -1);
  EXPECT_EQ(RepairScalar(RepairMap(0), 5), 5);  // pinned again: usable
}

TEST(RepairMapTest, WindowOverflowMakesEveryLabelStale) {
  // Exactly `capacity` effects still repair; one more and nothing does,
  // whatever the effect touches.
  RepairMap map(3);
  for (int i = 0; i < 3; ++i) {
    map.Shift(Scalar(0), Scalar(100), +1);
  }
  EXPECT_EQ(RepairScalar(map, 5), 8);
  map.Shift(Scalar(1000), Scalar(2000), +1);
  EXPECT_EQ(RepairScalar(map, 5), -1);
  EXPECT_EQ(RepairScalar(map, 500), -1);
  uint64_t ordinal = 1;
  EXPECT_EQ(map.RepairOrdinal(&ordinal), ReplayResult::kStale);
  EXPECT_EQ(map.effects(), 4u);
}

TEST(RepairMapTest, PathLabelsShiftByPrefixAndInvalidateBySubtree) {
  const auto path = [](std::vector<uint64_t> components) {
    return Label::FromComponents(std::move(components));
  };
  RepairMap map(8);
  // A leaf-local shift moves only its own leaf's labels.
  map.Shift(path({1, 2, 3}), path({1, 2, 9}), +1);
  Label in_leaf = path({1, 2, 5});
  ASSERT_EQ(map.Repair(&in_leaf), ReplayResult::kUsable);
  EXPECT_EQ(in_leaf, path({1, 2, 6}));
  Label other_leaf = path({1, 3, 5});
  ASSERT_EQ(map.Repair(&other_leaf), ReplayResult::kUsable);
  EXPECT_EQ(other_leaf, path({1, 3, 5}));

  // A B-BOX subtree invalidation: children >= 3 of node (1), bounds one
  // component shorter and as long as the labels.
  map.Invalidate(path({1, 3}), path({1, UINT64_MAX, UINT64_MAX}));
  Label before_range = path({1, 2, 5});
  EXPECT_EQ(map.Repair(&before_range), ReplayResult::kUsable);
  EXPECT_EQ(before_range, path({1, 2, 6}));
  for (const Label& dead : {path({1, 3, 0}), path({1, 7, 4})}) {
    Label label = dead;
    EXPECT_EQ(map.Repair(&label), ReplayResult::kStale) << dead.ToString();
  }
  Label next_subtree = path({2, 0, 0});
  EXPECT_EQ(map.Repair(&next_subtree), ReplayResult::kUsable);

  // A leaf first shifted after the invalidation inherits it.
  map.Shift(path({1, 4, 0}), path({1, 4, 9}), +1);
  Label inherited = path({1, 4, 2});
  EXPECT_EQ(map.Repair(&inherited), ReplayResult::kStale);

  // Whole-tree bounds longer than one-component labels cover them all.
  RepairMap grown(8);
  grown.Invalidate(path({0}), path({UINT64_MAX, UINT64_MAX}));
  Label short_label = path({17});
  EXPECT_EQ(grown.Repair(&short_label), ReplayResult::kStale);
}

TEST(RepairMapTest, ShiftAcrossPrefixesMakesEveryLabelStale) {
  // No scheme emits one; it cannot be folded per prefix.
  RepairMap map(8);
  map.Shift(Label::FromComponents({1, 5}), Label::FromComponents({2, 5}),
            +1);
  Label label = Label::FromComponents({7, 7});
  EXPECT_EQ(map.Repair(&label), ReplayResult::kStale);
}

// ---------------------------------------------------------------------------
// The overlay's repair window

TEST(OverlayRepairWindowTest, OverflowFallsBackRecompileServesRestoreDrops) {
  TestDb db;
  // Two documents checkpointed side by side: the overlay's authority serves
  // the first, then is emptied and restored to the second.
  std::vector<NewElement> first;
  std::vector<NewElement> second;
  PageId first_checkpoint = kInvalidPageId;
  PageId second_checkpoint = kInvalidPageId;
  {
    WBox loader(&db.cache);
    ASSERT_OK(loader.BulkLoad(xml::MakeTwoLevelDocument(300), &first));
    ASSERT_OK_AND_ASSIGN(first_checkpoint, loader.Checkpoint());
    WBox other(&db.cache);
    ASSERT_OK(other.BulkLoad(xml::MakeTwoLevelDocument(200), &second));
    ASSERT_OK_AND_ASSIGN(second_checkpoint, other.Checkpoint());
  }

  WBox authority(&db.cache);
  OverlayOptions options;
  options.snapshot_path = ::testing::TempDir() + "boxes_repair_window_" +
                          std::to_string(::getpid()) + ".silo";
  options.log_capacity = 4;
  OverlayedScheme overlay(&authority, options);
  ASSERT_OK(overlay.Restore(first_checkpoint));
  ASSERT_OK(overlay.Recompile());

  // Looks every label of `elements` up through the overlay, checks it
  // against the authority, and returns how the lookups were served.
  const auto lookup_all = [&](const std::vector<NewElement>& elements) {
    const OverlayServeStats before = overlay.serve_stats();
    for (const NewElement& element : elements) {
      for (const Lid lid : {element.start, element.end}) {
        const StatusOr<Label> expected = authority.Lookup(lid);
        const StatusOr<Label> got = overlay.Lookup(lid);
        EXPECT_EQ(expected.status().code(), got.status().code())
            << "lid " << lid;
        if (expected.ok() && got.ok()) {
          EXPECT_EQ(*expected, *got) << "lid " << lid;
        }
      }
    }
    OverlayServeStats served = overlay.serve_stats();
    served.served_base -= before.served_base;
    served.served_repaired -= before.served_repaired;
    served.served_overlay -= before.served_overlay;
    served.served_fallback -= before.served_fallback;
    return served;
  };
  const uint64_t first_labels = 2 * first.size();

  OverlayServeStats served = lookup_all(first);
  EXPECT_EQ(served.served_base, first_labels);

  // Five shifting inserts overflow a four-effect window: every label still
  // in the image falls back to the authority.
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(overlay.InsertElementBefore(first[1 + 50 * i].start).status());
  }
  served = lookup_all(first);
  EXPECT_EQ(served.served_fallback, first_labels);
  EXPECT_EQ(served.served_base + served.served_repaired, 0u);

  // A compile folds the inserts in: the image serves again.
  ASSERT_OK(overlay.Recompile());
  served = lookup_all(first);
  EXPECT_EQ(served.served_base, first_labels);

  // After Restore() nothing is served from the old image, whose LIDs now
  // name other labels or none.
  ASSERT_OK(overlay.DeleteSubtree(first[0].start, first[0].end));
  ASSERT_OK(overlay.Restore(second_checkpoint));
  EXPECT_EQ(overlay.reader(), nullptr);
  served = lookup_all(first);
  EXPECT_EQ(served.served_overlay, first_labels);
  EXPECT_EQ(
      served.served_base + served.served_repaired + served.served_fallback,
      0u);

  // The next compile serves the restored history.
  ASSERT_OK(overlay.Recompile());
  served = lookup_all(second);
  EXPECT_EQ(served.served_base, 2 * second.size());

  ::unlink(options.snapshot_path.c_str());
}

}  // namespace
}  // namespace boxes::testing
