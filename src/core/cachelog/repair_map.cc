#include "core/cachelog/repair_map.h"

#include <algorithm>
#include <compare>
#include <iterator>
#include <utility>

#include "util/status.h"

namespace boxes {

namespace {

constexpr uint64_t kMax = UINT64_MAX;

/// The last components c with lo <= prefix + (c) <= hi in Label order, as
/// [*first, *last]; false when there are none. Bounds may be shorter or
/// longer than the labels (B-BOX invalidates whole subtrees by path).
bool LastComponentRange(std::span<const uint64_t> prefix, const Label& lo,
                        const Label& hi, uint64_t* first, uint64_t* last) {
  const size_t k = prefix.size();
  const std::vector<uint64_t>& low = lo.components();
  const std::vector<uint64_t>& high = hi.components();

  size_t n = std::min(k, low.size());
  std::strong_ordering order = std::lexicographical_compare_three_way(
      prefix.begin(), prefix.begin() + n, low.begin(), low.begin() + n);
  if (order < 0) {
    return false;
  }
  if (order > 0 || low.size() <= k) {
    *first = 0;  // lo sorts before every label of the prefix
  } else if (low.size() == k + 1) {
    *first = low[k];
  } else if (low[k] == kMax) {
    return false;
  } else {
    *first = low[k] + 1;  // prefix + (low[k]) is a proper prefix of lo
  }

  n = std::min(k, high.size());
  order = std::lexicographical_compare_three_way(
      prefix.begin(), prefix.begin() + n, high.begin(), high.begin() + n);
  if (order > 0) {
    return false;
  }
  if (order < 0) {
    *last = kMax;
  } else if (high.size() <= k) {
    return false;  // hi is a prefix of, so sorts before, every label
  } else {
    *last = high[k];
  }
  return *first <= *last;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShiftMap

ShiftMap::ShiftMap() { pieces_.insert(Piece{0, kMax, 0}); }

bool ShiftMap::Map(uint64_t base, uint64_t* image) const {
  const auto it = pieces_.find(ByBase{base});
  if (it == pieces_.end()) {
    return false;
  }
  *image = base + it->offset;
  return true;
}

void ShiftMap::SplitAt(uint64_t image) {
  const auto it = pieces_.lower_bound(ByImage{image});
  if (it == pieces_.end() || it->image_lo() >= image) {
    return;
  }
  const uint64_t split = it->lo + (image - it->image_lo());
  const uint64_t hi = it->hi;
  it->hi = split - 1;
  pieces_.insert(std::next(it), Piece{split, hi, it->offset});
}

void ShiftMap::Retire(uint64_t lo, uint64_t hi) {
  SplitAt(lo);
  if (hi < kMax) {
    SplitAt(hi + 1);
  }
  auto it = pieces_.lower_bound(ByImage{lo});
  while (it != pieces_.end() && it->image_lo() <= hi) {
    it = pieces_.erase(it);
  }
}

void ShiftMap::Shift(uint64_t lo, uint64_t hi, int64_t delta) {
  if (lo > hi || delta == 0) {
    return;
  }
  if (delta > 0) {
    const uint64_t up = static_cast<uint64_t>(delta);
    if (lo > kMax - up) {
      Retire(lo, hi);  // every point would wrap
      return;
    }
    hi = std::min(hi, kMax - up);
    // The overtaken images, and past kMax - up the ones that would wrap.
    Retire(hi + 1, hi + up);
  } else {
    // Two's-complement negation on the unsigned representation is well
    // defined even for INT64_MIN.
    const uint64_t down = ~static_cast<uint64_t>(delta) + 1;
    if (hi < down) {
      Retire(lo, hi);
      return;
    }
    lo = std::max(lo, down);
    Retire(lo - down, lo - 1);
  }
  SplitAt(lo);
  if (hi < kMax) {
    SplitAt(hi + 1);
  }
  // Adding to every offset in [lo, hi] leaves the images increasing: the
  // images the moved pieces land on were retired above.
  const uint64_t step = static_cast<uint64_t>(delta);
  for (auto it = pieces_.lower_bound(ByImage{lo});
       it != pieces_.end() && it->image_lo() <= hi; ++it) {
    it->offset += step;
  }
}

// ---------------------------------------------------------------------------
// RepairMap

RepairMap::RepairMap(size_t capacity) : capacity_(capacity) {}

bool RepairMap::CountEffect() {
  ++effects_;
  if (all_stale_) {
    return true;
  }
  if (effects_ > capacity_) {
    MakeAllStale();
    return true;
  }
  return false;
}

void RepairMap::MakeAllStale() {
  all_stale_ = true;
  prefixes_.clear();
  invalidated_.clear();
  ordinals_ = ShiftMap();
}

ShiftMap* RepairMap::PrefixMap(std::span<const uint64_t> prefix) {
  auto it = prefixes_.lower_bound(prefix);
  if (it != prefixes_.end() && !PrefixOrder()(prefix, it->first)) {
    return &it->second;
  }
  it = prefixes_.emplace_hint(
      it, std::vector<uint64_t>(prefix.begin(), prefix.end()), ShiftMap());
  for (const auto& [lo, hi] : invalidated_) {
    uint64_t first = 0;
    uint64_t last = 0;
    if (LastComponentRange(prefix, lo, hi, &first, &last)) {
      it->second.Retire(first, last);
    }
  }
  return &it->second;
}

void RepairMap::Shift(const Label& lo, const Label& hi, int64_t delta) {
  if (CountEffect()) {
    return;
  }
  const std::vector<uint64_t>& low = lo.components();
  const std::vector<uint64_t>& high = hi.components();
  if (low.empty() || low.size() != high.size() ||
      !std::equal(low.begin(), low.end() - 1, high.begin())) {
    // No scheme shifts across label prefixes, and such a shift cannot be
    // folded prefix by prefix: give the whole base up.
    MakeAllStale();
    return;
  }
  PrefixMap(std::span(low).first(low.size() - 1))
      ->Shift(low.back(), high.back(), delta);
}

void RepairMap::Invalidate(const Label& lo, const Label& hi) {
  if (CountEffect() || hi < lo) {
    return;
  }
  for (auto& [prefix, map] : prefixes_) {
    uint64_t first = 0;
    uint64_t last = 0;
    if (LastComponentRange(prefix, lo, hi, &first, &last)) {
      map.Retire(first, last);
    }
  }
  // Merge [lo, hi] with the ranges it overlaps.
  Label merged_lo = lo;
  Label merged_hi = hi;
  auto it = invalidated_.upper_bound(lo);
  if (it != invalidated_.begin() && lo <= std::prev(it)->second) {
    --it;
  }
  while (it != invalidated_.end() && it->first <= hi) {
    merged_lo = std::min(merged_lo, it->first);
    merged_hi = std::max(merged_hi, it->second);
    it = invalidated_.erase(it);
  }
  invalidated_.emplace_hint(it, std::move(merged_lo), std::move(merged_hi));
}

void RepairMap::ShiftOrdinal(uint64_t from, int64_t delta) {
  if (CountEffect()) {
    return;
  }
  ordinals_.Shift(from, kMax, delta);
}

bool RepairMap::Invalidated(const Label& label) const {
  auto it = invalidated_.upper_bound(label);
  if (it == invalidated_.begin()) {
    return false;
  }
  return label <= std::prev(it)->second;
}

ReplayResult RepairMap::Repair(Label* label) const {
  if (effects_ == 0) {
    return ReplayResult::kUsable;
  }
  if (all_stale_) {
    return ReplayResult::kStale;
  }
  const std::vector<uint64_t>& components = label->components();
  BOXES_CHECK(!components.empty());
  const auto it =
      prefixes_.find(std::span(components).first(components.size() - 1));
  if (it == prefixes_.end()) {
    // No shift touched this prefix: the label is as it was at the cut.
    return Invalidated(*label) ? ReplayResult::kStale : ReplayResult::kUsable;
  }
  uint64_t image = 0;
  if (!it->second.Map(components.back(), &image)) {
    return ReplayResult::kStale;
  }
  if (image != components.back()) {
    std::vector<uint64_t> repaired = components;
    repaired.back() = image;
    *label = Label::FromComponents(std::move(repaired));
  }
  return ReplayResult::kUsable;
}

ReplayResult RepairMap::RepairOrdinal(uint64_t* ordinal) const {
  if (effects_ == 0) {
    return ReplayResult::kUsable;
  }
  if (all_stale_) {
    return ReplayResult::kStale;
  }
  return ordinals_.Map(*ordinal, ordinal) ? ReplayResult::kUsable
                                          : ReplayResult::kStale;
}

}  // namespace boxes
