#ifndef BOXES_CORE_CACHELOG_REPAIR_MAP_H_
#define BOXES_CORE_CACHELOG_REPAIR_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "core/cachelog/mod_log.h"
#include "core/common/label.h"

namespace boxes {

/// A monotone partial map on uint64_t: disjoint base intervals ("pieces"),
/// each carried to its image by one offset. A base point outside every
/// piece is retired: its image is unknown. Images increase with the base
/// (the effects below keep them so), so the pieces can be searched by base
/// and by image alike.
class ShiftMap {
 public:
  /// The identity on [0, UINT64_MAX].
  ShiftMap();

  /// Sets `*image` to the image of `base`; false when `base` is retired.
  bool Map(uint64_t base, uint64_t* image) const;

  /// Moves every point whose image lies in [lo, hi] by `delta`. Points the
  /// move would wrap past 0 or UINT64_MAX are retired, and so are the
  /// points it overtakes: those with an image in (top, top + delta], or in
  /// [bottom + delta, bottom) when delta < 0, where top and bottom are the
  /// highest and lowest image that moves. A labeling scheme's order
  /// invariant leaves no live label there; retiring them keeps the images
  /// increasing.
  void Shift(uint64_t lo, uint64_t hi, int64_t delta);

  /// Retires every point whose image lies in [lo, hi].
  void Retire(uint64_t lo, uint64_t hi);

 private:
  /// Base points [lo, hi] map to [lo, hi] + offset (mod 2^64). Only `lo`
  /// orders the set, so the other fields may change in place.
  struct Piece {
    uint64_t lo;
    mutable uint64_t hi;
    mutable uint64_t offset;

    uint64_t image_lo() const { return lo + offset; }
    uint64_t image_hi() const { return hi + offset; }
  };
  /// Heterogeneous search keys: the piece holding a base point, and the
  /// first piece whose image reaches an image point.
  struct ByBase {
    uint64_t value;
  };
  struct ByImage {
    uint64_t value;
  };
  struct Order {
    using is_transparent = void;
    bool operator()(const Piece& a, const Piece& b) const {
      return a.lo < b.lo;
    }
    bool operator()(const Piece& a, ByBase b) const { return a.hi < b.value; }
    bool operator()(ByBase a, const Piece& b) const { return a.value < b.lo; }
    bool operator()(const Piece& a, ByImage b) const {
      return a.image_hi() < b.value;
    }
    bool operator()(ByImage a, const Piece& b) const {
      return a.value < b.image_lo();
    }
  };

  /// Makes `image` the first image of its piece, splitting that piece.
  void SplitAt(uint64_t image);

  std::set<Piece, Order> pieces_;
};

/// The map from labels as they were at one pinned cut to labels now: the
/// paper's §6 log folded, effect by effect, into a structure that repairs a
/// label with one binary search instead of a replay.
///
/// Shifts change only a label's last component, so the map keeps one
/// ShiftMap per label prefix (all components but the last: the empty prefix
/// for W-BOX's and naive-k's scalars, the leaf path for B-BOX), built when a
/// shift first touches that prefix. Invalidations retire points in every
/// built prefix and are kept as disjoint label ranges for the prefixes no
/// shift has touched yet, whose labels are still their labels at the cut.
/// Ordinal shifts fold into one more ShiftMap.
///
/// Fed a labeling scheme's effects, Repair answers for every label live at
/// the cut and not deleted since exactly what ModificationLog::Replay from
/// the cut answers, window included: more than `capacity` effects since the
/// cut make every label stale. Effects run under the scheme's write lock and
/// reads under its read lock, so reads may run concurrently with each other.
class RepairMap {
 public:
  /// `capacity` bounds the effects since the cut (0 = any effect makes the
  /// whole base stale, the paper's basic caching).
  explicit RepairMap(size_t capacity);

  /// Effects folded in since the cut.
  uint64_t effects() const { return effects_; }

  /// The UpdateListener's effects, in the labels of the moment they occur.
  /// A shift changes the last component of labels in [lo, hi], which must
  /// share their prefix.
  void Shift(const Label& lo, const Label& hi, int64_t delta);
  void Invalidate(const Label& lo, const Label& hi);
  void ShiftOrdinal(uint64_t from, int64_t delta);

  /// Repairs a label (or an ordinal) as it was at the cut to its value now.
  ReplayResult Repair(Label* label) const;
  ReplayResult RepairOrdinal(uint64_t* ordinal) const;

 private:
  struct PrefixOrder {
    using is_transparent = void;
    bool operator()(std::span<const uint64_t> a,
                    std::span<const uint64_t> b) const {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  };

  /// Counts one effect. True when it need not be folded in because the
  /// whole base is stale.
  bool CountEffect();
  /// Drops every piece: nothing is repairable until the next cut.
  void MakeAllStale();
  /// The ShiftMap of `prefix`, built on first use from the identity minus
  /// the invalidations so far.
  ShiftMap* PrefixMap(std::span<const uint64_t> prefix);
  /// True when `label` lies in one of `invalidated_`'s ranges.
  bool Invalidated(const Label& label) const;

  const size_t capacity_;
  uint64_t effects_ = 0;
  bool all_stale_ = false;
  std::map<std::vector<uint64_t>, ShiftMap, PrefixOrder> prefixes_;
  /// Disjoint invalidated label ranges, lo -> hi.
  std::map<Label, Label> invalidated_;
  ShiftMap ordinals_;
};

}  // namespace boxes

#endif  // BOXES_CORE_CACHELOG_REPAIR_MAP_H_
