#include "core/wbox/wbox.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace boxes {

namespace {

/// LIDF payload for BOX schemes: the block address of the BOX record.
constexpr size_t kLidfPayloadSize = 8;

/// Flag bit marking records that have completed pair linkage (W-BOX-O).
constexpr uint8_t kFlagPaired = 4;

}  // namespace

WBox::WBox(PageCache* cache, WBoxOptions options)
    : cache_(cache),
      options_(options),
      params_(WBoxParams::Derive(cache->page_size(), options.pair_mode)),
      lidf_(cache, kLidfPayloadSize) {}

WBox::~WBox() = default;

// ---------------------------------------------------------------------------
// Location and lookup

Status WBox::LocateLid(Lid lid, PageId* leaf_page, int* slot,
                       uint64_t* label) {
  // The LIDF dereference inside ReadBlockPtr carries its own (inner,
  // winning) kLidfDeref guard; the leaf access is charged to the search.
  ScopedPhase phase(cache_, IoPhase::kSearch);
  BOXES_ASSIGN_OR_RETURN(const PageId page, lidf_.ReadBlockPtr(lid));
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
  WBoxLeafView leaf(data, &params_);
  if (leaf.node_type() != WBoxLeafView::kNodeType) {
    return Status::Corruption("LID " + std::to_string(lid) +
                              " points at a non-leaf page");
  }
  const int index = leaf.FindLive(lid);
  if (index < 0) {
    return Status::Corruption("LID " + std::to_string(lid) +
                              " not present in its leaf");
  }
  *leaf_page = page;
  *slot = index;
  *label = leaf.LabelAt(static_cast<uint16_t>(index));
  return Status::OK();
}

StatusOr<Label> WBox::Lookup(Lid lid) {
  ScopedTimer timer(metrics_, name() + ".lookup.us");
  PageId page;
  int slot;
  uint64_t label;
  BOXES_RETURN_IF_ERROR(LocateLid(lid, &page, &slot, &label));
  return Label::FromScalar(label);
}

StatusOr<ElementLabels> WBox::LookupElement(Lid start_lid, Lid end_lid) {
  if (!options_.pair_mode) {
    return LabelingScheme::LookupElement(start_lid, end_lid);
  }
  PageId page;
  int slot;
  uint64_t label;
  BOXES_RETURN_IF_ERROR(LocateLid(start_lid, &page, &slot, &label));
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
  WBoxLeafView leaf(data, &params_);
  const uint16_t index = static_cast<uint16_t>(slot);
  if (leaf.is_end_label(index) || (leaf.flags(index) & kFlagPaired) == 0) {
    // Not a linked start record; fall back to two lookups.
    return LabelingScheme::LookupElement(start_lid, end_lid);
  }
  return ElementLabels{Label::FromScalar(label),
                       Label::FromScalar(leaf.cached_end(index))};
}

StatusOr<uint64_t> WBox::OrdinalLookup(Lid lid) {
  if (!options_.maintain_ordinal) {
    return LabelingScheme::OrdinalLookup(lid);
  }
  PageId page;
  int slot;
  uint64_t label;
  BOXES_RETURN_IF_ERROR(LocateLid(lid, &page, &slot, &label));
  return OrdinalOfLabel(label);
}

StatusOr<uint64_t> WBox::OrdinalOfLabel(uint64_t label) {
  ScopedPhase phase(cache_, IoPhase::kSearch);
  BOXES_CHECK(root_ != kInvalidPageId);
  uint64_t ordinal = 0;
  PageId page = root_;
  for (uint32_t level = height_ - 1; level >= 1; --level) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
    WBoxInternalView node(data, &params_);
    const int entry = node.FindChildByLabel(label);
    if (entry < 0) {
      return Status::Corruption("label routes into unassigned subrange");
    }
    for (int i = 0; i < entry; ++i) {
      ordinal += node.size(static_cast<uint16_t>(i));
    }
    page = node.child(static_cast<uint16_t>(entry));
  }
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
  WBoxLeafView leaf(data, &params_);
  BOXES_CHECK(label >= leaf.range_lo());
  const uint64_t slot = label - leaf.range_lo();
  BOXES_CHECK(slot < leaf.count());
  for (uint64_t i = 0; i < slot; ++i) {
    if (!leaf.is_tombstone(static_cast<uint16_t>(i))) {
      ++ordinal;
    }
  }
  return ordinal;
}

Status WBox::DescendPath(uint64_t label, std::vector<PathStep>* path,
                         PageId* leaf_out) {
  ScopedPhase phase(cache_, IoPhase::kSearch);
  BOXES_CHECK(root_ != kInvalidPageId);
  PageId page = root_;
  for (uint32_t level = height_ - 1; level >= 1; --level) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
    WBoxInternalView node(data, &params_);
    const int entry = node.FindChildByLabel(label);
    if (entry < 0) {
      return Status::Corruption("label routes into unassigned subrange");
    }
    path->push_back({page, entry});
    page = node.child(static_cast<uint16_t>(entry));
  }
  *leaf_out = page;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Log emission

void WBox::EmitShift(uint64_t lo, uint64_t hi, int64_t delta) {
  if (listener_ != nullptr && lo <= hi) {
    listener_->OnRangeShift(Label::FromScalar(lo), Label::FromScalar(hi),
                            delta, /*last_component_only=*/false);
  }
}

void WBox::EmitInvalidate(uint64_t lo, uint64_t hi) {
  if (listener_ != nullptr) {
    listener_->OnInvalidateRange(Label::FromScalar(lo),
                                 Label::FromScalar(hi));
  }
}

void WBox::EmitOrdinalShift(uint64_t from, int64_t delta) {
  if (listener_ != nullptr) {
    listener_->OnOrdinalShift(from, delta);
  }
}

// ---------------------------------------------------------------------------
// Pair-cache maintenance (W-BOX-O)

Status WBox::FixPairCachesForSlots(PageId leaf_page, int first, int last) {
  if (!options_.pair_mode) {
    return Status::OK();
  }
  ScopedPhase phase(cache_, IoPhase::kRelabel);
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(leaf_page));
  WBoxLeafView leaf(data, &params_);
  first = std::max(first, 0);
  last = std::min(last, static_cast<int>(leaf.count()) - 1);
  for (int i = first; i <= last; ++i) {
    const uint16_t index = static_cast<uint16_t>(i);
    if (leaf.is_tombstone(index) || !leaf.is_end_label(index) ||
        (leaf.flags(index) & kFlagPaired) == 0) {
      continue;
    }
    // The start record of an element is allocated immediately before its
    // end record, so the partner LID is lid - 1.
    const Lid partner_lid = leaf.lid(index) - 1;
    PageId partner_page = leaf.partner_block(index);
    auto moved = moved_in_op_.find(partner_lid);
    if (moved != moved_in_op_.end()) {
      partner_page = moved->second;
    }
    const uint64_t value = leaf.LabelAt(index);
    BOXES_ASSIGN_OR_RETURN(uint8_t* partner_data,
                           cache_->GetPageForWrite(partner_page));
    WBoxLeafView partner_leaf(partner_data, &params_);
    const int partner_slot = partner_leaf.FindLive(partner_lid);
    if (partner_slot < 0) {
      return Status::Corruption("pair partner record missing");
    }
    partner_leaf.set_cached_end(static_cast<uint16_t>(partner_slot), value);
    // Re-establish `leaf` in case partner_page aliased leaf_page and the
    // underlying frame pointer is shared (it is; views are cheap).
  }
  return Status::OK();
}

Status WBox::FixRelocatedRecords(PageId new_block,
                                 const std::vector<Lid>& moved_lids) {
  ScopedPhase phase(cache_, IoPhase::kRelabel);
  for (Lid lid : moved_lids) {
    BOXES_RETURN_IF_ERROR(lidf_.WriteBlockPtr(lid, new_block));
    moved_in_op_[lid] = new_block;
  }
  if (!options_.pair_mode) {
    return Status::OK();
  }
  for (Lid lid : moved_lids) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(new_block));
    WBoxLeafView leaf(data, &params_);
    const int slot = leaf.FindLive(lid);
    if (slot < 0) {
      continue;  // tombstones are not tracked by LID
    }
    const uint16_t index = static_cast<uint16_t>(slot);
    if ((leaf.flags(index) & kFlagPaired) == 0) {
      continue;
    }
    const Lid partner_lid = leaf.is_end_label(index) ? lid - 1 : lid + 1;
    PageId partner_page = leaf.partner_block(index);
    auto moved = moved_in_op_.find(partner_lid);
    if (moved != moved_in_op_.end()) {
      partner_page = moved->second;
    }
    BOXES_ASSIGN_OR_RETURN(uint8_t* partner_data,
                           cache_->GetPageForWrite(partner_page));
    WBoxLeafView partner_leaf(partner_data, &params_);
    const int partner_slot = partner_leaf.FindLive(partner_lid);
    if (partner_slot < 0) {
      return Status::Corruption("pair partner record missing on relocation");
    }
    partner_leaf.set_partner_block(static_cast<uint16_t>(partner_slot),
                                   new_block);
  }
  return Status::OK();
}

Status WBox::LinkPair(Lid start_lid, Lid end_lid) {
  if (!options_.pair_mode) {
    return Status::OK();
  }
  PageId start_page;
  int start_slot;
  uint64_t start_label;
  BOXES_RETURN_IF_ERROR(
      LocateLid(start_lid, &start_page, &start_slot, &start_label));
  PageId end_page;
  int end_slot;
  uint64_t end_label;
  BOXES_RETURN_IF_ERROR(LocateLid(end_lid, &end_page, &end_slot, &end_label));

  BOXES_ASSIGN_OR_RETURN(uint8_t* start_data,
                         cache_->GetPageForWrite(start_page));
  WBoxLeafView start_leaf(start_data, &params_);
  start_leaf.set_partner_block(static_cast<uint16_t>(start_slot), end_page);
  start_leaf.set_cached_end(static_cast<uint16_t>(start_slot), end_label);
  uint8_t* start_rec = start_leaf.record_ptr(static_cast<uint16_t>(start_slot));
  start_rec[8] |= kFlagPaired;

  BOXES_ASSIGN_OR_RETURN(uint8_t* end_data, cache_->GetPageForWrite(end_page));
  WBoxLeafView end_leaf(end_data, &params_);
  // If both records share a page the second view aliases the first; slots
  // remain valid because linking does not move records.
  end_leaf.set_partner_block(static_cast<uint16_t>(end_slot), start_page);
  uint8_t* end_rec = end_leaf.record_ptr(static_cast<uint16_t>(end_slot));
  end_rec[8] |= kFlagPaired;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Splitting

Status WBox::GrowRoot() {
  ScopedPhase phase(cache_, IoPhase::kRebalance);
  BOXES_CHECK(root_ != kInvalidPageId);
  uint8_t* data = nullptr;
  BOXES_ASSIGN_OR_RETURN(const PageId page, cache_->AllocatePage(&data));
  WBoxInternalView node(data, &params_);
  node.Init(static_cast<uint8_t>(height_));
  node.set_range_lo(0);
  const uint64_t total_weight = live_labels_ + tombstones_;
  node.InsertEntryAt(0, root_, total_weight,
                     options_.maintain_ordinal ? live_labels_ : 0,
                     /*subrange=*/0);
  node.set_self_weight(total_weight);
  root_ = page;
  ++height_;
  return Status::OK();
}

Status WBox::EnsureRoomFor(uint64_t label, bool* split_occurred) {
  // The preemptive descent is search traffic; GrowRoot and SplitChild
  // carry their own kRebalance guards.
  ScopedPhase phase(cache_, IoPhase::kSearch);
  *split_occurred = false;
  // Grow the tree while the root itself is at its weight limit.
  for (;;) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(root_));
    uint64_t root_weight;
    if (WBoxNodeType(data) == WBoxLeafView::kNodeType) {
      root_weight = WBoxLeafView(data, &params_).count();
    } else {
      root_weight = WBoxInternalView(data, &params_).self_weight();
    }
    if (root_weight + 1 < params_.MaxWeight(height_ - 1)) {
      break;
    }
    BOXES_RETURN_IF_ERROR(GrowRoot());
  }
  // Preemptive descent: split any child that could not absorb one more
  // record without violating its weight bound.
  PageId page = root_;
  for (uint32_t level = height_ - 1; level >= 1; --level) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
    WBoxInternalView node(data, &params_);
    const int entry = node.FindChildByLabel(label);
    if (entry < 0) {
      return Status::Corruption("label routes into unassigned subrange");
    }
    const uint32_t child_level = level - 1;
    if (node.weight(static_cast<uint16_t>(entry)) + 1 >=
        params_.MaxWeight(child_level)) {
      BOXES_RETURN_IF_ERROR(SplitChild(page, entry, child_level));
      *split_occurred = true;
      return Status::OK();
    }
    page = node.child(static_cast<uint16_t>(entry));
  }
  return Status::OK();
}

Status WBox::SplitChild(PageId parent_page, int entry, uint32_t child_level) {
  ScopedPhase phase(cache_, IoPhase::kRebalance);
  ++split_count_;
  BOXES_ASSIGN_OR_RETURN(uint8_t* parent_data,
                         cache_->GetPageForWrite(parent_page));
  WBoxInternalView parent(parent_data, &params_);
  const uint16_t e = static_cast<uint16_t>(entry);
  const PageId child_page = parent.child(e);
  const uint16_t s_u = parent.subrange(e);
  const uint64_t child_len = params_.RangeLength(child_level);
  const uint64_t half_weight = params_.MaxWeight(child_level) / 2;  // a^i k

  BOXES_ASSIGN_OR_RETURN(uint8_t* child_data,
                         cache_->GetPageForWrite(child_page));

  const bool right_free =
      static_cast<uint64_t>(s_u) + 1 < params_.b &&
      parent.SubrangeFree(s_u + 1) &&
      (e + 1 >= parent.count() || parent.subrange(e + 1) > s_u + 1);
  const bool left_free = s_u > 0 && parent.SubrangeFree(s_u - 1) &&
                         (e == 0 || parent.subrange(e - 1) < s_u - 1);

  uint8_t* new_data = nullptr;
  BOXES_ASSIGN_OR_RETURN(const PageId new_page,
                         cache_->AllocatePage(&new_data));

  uint64_t u_weight;
  uint64_t u_live;
  uint64_t v_weight;
  uint64_t v_live;

  const bool child_is_leaf = child_level == 0;
  if (child_is_leaf) {
    WBoxLeafView child(child_data, &params_);
    const uint16_t n = child.count();
    // Largest prefix with weight <= half_weight (= k); the leaf is at
    // capacity 2k-1, so both halves land well within bounds.
    const uint16_t m = static_cast<uint16_t>(
        std::min<uint64_t>(n - 1, half_weight));
    WBoxLeafView fresh(new_data, &params_);
    fresh.Init();
    // A split relabels records across blocks; conservatively invalidate the
    // parent's whole range (the paper's worst-case logging granularity).
    EmitInvalidate(parent.range_lo(),
                   parent.range_lo() + params_.RangeLength(child_level + 1) -
                       1);
    std::vector<Lid> moved;
    if (right_free || !left_free) {
      // New sibling on the right takes the suffix. (The full-reassign case
      // also starts this way; ranges are redone below.)
      for (uint16_t i = m; i < n; ++i) {
        if (!child.is_tombstone(i)) {
          moved.push_back(child.lid(i));
        }
      }
      child.MoveSuffixTo(m, &fresh);
      u_weight = child.count();
      u_live = child.live_count();
      v_weight = fresh.count();
      v_live = fresh.live_count();
      const uint16_t s_v =
          right_free ? static_cast<uint16_t>(s_u + 1) : uint16_t{0};
      fresh.set_range_lo(parent.range_lo() + s_v * child_len);
      parent.set_weight(e, u_weight);
      parent.set_size(e, options_.maintain_ordinal ? u_live : 0);
      parent.InsertEntryAt(e + 1, new_page, v_weight,
                           options_.maintain_ordinal ? v_live : 0, s_v);
    } else {
      // New sibling on the left takes the prefix.
      std::vector<uint8_t> prefix(m * params_.leaf_record_size);
      std::memcpy(prefix.data(), child.record_ptr(0), prefix.size());
      for (uint16_t i = 0; i < m; ++i) {
        if (!child.is_tombstone(i)) {
          moved.push_back(child.lid(i));
        }
      }
      fresh.set_range_lo(parent.range_lo() + (s_u - 1) * child_len);
      // Append prefix records to the fresh leaf wholesale.
      std::memcpy(fresh.record_ptr(0), prefix.data(), prefix.size());
      uint16_t live = 0;
      for (uint16_t i = 0; i < m; ++i) {
        if (!child.is_tombstone(i)) {
          ++live;
        }
      }
      // Fix the fresh leaf's header counters directly via Insert-free path.
      EncodeFixed16(new_data + 2, m);     // count
      EncodeFixed16(new_data + 4, live);  // live_count
      child.RemoveRecordRange(0, m - 1);
      u_weight = child.count();
      u_live = child.live_count();
      v_weight = m;
      v_live = live;
      parent.set_weight(e, u_weight);
      parent.set_size(e, options_.maintain_ordinal ? u_live : 0);
      parent.InsertEntryAt(e, new_page, v_weight,
                           options_.maintain_ordinal ? v_live : 0,
                           static_cast<uint16_t>(s_u - 1));
    }
    BOXES_RETURN_IF_ERROR(FixRelocatedRecords(new_page, moved));
    BOXES_RETURN_IF_ERROR(FixPairCachesForSlots(new_page, 0, INT32_MAX));
    BOXES_RETURN_IF_ERROR(FixPairCachesForSlots(child_page, 0, INT32_MAX));
  } else {
    WBoxInternalView child(child_data, &params_);
    const uint16_t n = child.count();
    // Largest prefix of children with cumulative weight <= a^i k.
    uint16_t m = 0;
    uint64_t prefix_weight = 0;
    while (m < n && prefix_weight + child.weight(m) <= half_weight) {
      prefix_weight += child.weight(m);
      ++m;
    }
    if (m == 0) {
      m = 1;
      prefix_weight = child.weight(0);
    }
    if (m == n) {
      m = n - 1;
      prefix_weight -= child.weight(m);
    }
    WBoxInternalView fresh(new_data, &params_);
    fresh.Init(static_cast<uint8_t>(child_level));
    EmitInvalidate(parent.range_lo(),
                   parent.range_lo() + params_.RangeLength(child_level + 1) -
                       1);
    if (right_free || !left_free) {
      const uint16_t s_v =
          right_free ? static_cast<uint16_t>(s_u + 1) : uint16_t{0};
      const uint64_t v_lo = parent.range_lo() + s_v * child_len;
      child.MoveSuffixTo(m, &fresh);
      fresh.set_range_lo(v_lo);
      // Spread the moved children over v's subranges and relabel them.
      const uint16_t moved_count = fresh.count();
      uint64_t vw = 0;
      uint64_t vs = 0;
      for (uint16_t j = 0; j < moved_count; ++j) {
        const uint16_t sub = static_cast<uint16_t>(
            (static_cast<uint64_t>(j) * params_.b) / moved_count);
        fresh.set_subrange(j, sub);
        vw += fresh.weight(j);
        vs += fresh.size(j);
        BOXES_RETURN_IF_ERROR(RelabelSubtree(
            fresh.child(j), child_level - 1,
            v_lo + sub * params_.RangeLength(child_level - 1)));
      }
      fresh.set_self_weight(vw);
      child.set_self_weight(child.self_weight() - vw);
      u_weight = child.self_weight();
      u_live = 0;  // parent sizes recomputed below from entry sums
      v_weight = vw;
      v_live = vs;
      uint64_t us = 0;
      for (uint16_t j = 0; j < child.count(); ++j) {
        us += child.size(j);
      }
      u_live = us;
      parent.set_weight(e, u_weight);
      parent.set_size(e, options_.maintain_ordinal ? u_live : 0);
      parent.InsertEntryAt(e + 1, new_page, v_weight,
                           options_.maintain_ordinal ? v_live : 0, s_v);
    } else {
      const uint16_t s_v = static_cast<uint16_t>(s_u - 1);
      const uint64_t v_lo = parent.range_lo() + s_v * child_len;
      // Move the prefix into the fresh (left) sibling.
      for (uint16_t j = 0; j < m; ++j) {
        fresh.InsertEntryAt(j, child.child(j), child.weight(j),
                            child.size(j), 0 /* reassigned below */);
      }
      child.RemoveEntryRange(0, m - 1);
      fresh.set_range_lo(v_lo);
      uint64_t vw = 0;
      uint64_t vs = 0;
      for (uint16_t j = 0; j < m; ++j) {
        const uint16_t sub = static_cast<uint16_t>(
            (static_cast<uint64_t>(j) * params_.b) / m);
        fresh.set_subrange(j, sub);
        vw += fresh.weight(j);
        vs += fresh.size(j);
        BOXES_RETURN_IF_ERROR(RelabelSubtree(
            fresh.child(j), child_level - 1,
            v_lo + sub * params_.RangeLength(child_level - 1)));
      }
      fresh.set_self_weight(vw);
      child.set_self_weight(child.self_weight() - vw);
      u_weight = child.self_weight();
      uint64_t us = 0;
      for (uint16_t j = 0; j < child.count(); ++j) {
        us += child.size(j);
      }
      u_live = us;
      v_weight = vw;
      v_live = vs;
      parent.set_weight(e, u_weight);
      parent.set_size(e, options_.maintain_ordinal ? u_live : 0);
      parent.InsertEntryAt(e, new_page, v_weight,
                           options_.maintain_ordinal ? v_live : 0, s_v);
    }
  }

  if (!right_free && !left_free) {
    // Worst case (paper §4): no adjacent subrange is available. Reassign
    // all children of the parent equally spaced subranges and relabel the
    // entire subtree rooted at the parent.
    const uint16_t c = parent.count();
    BOXES_CHECK(c <= params_.b);
    for (uint16_t j = 0; j < c; ++j) {
      parent.set_subrange(j, static_cast<uint16_t>(
                                 (static_cast<uint64_t>(j) * params_.b) / c));
    }
    for (uint16_t j = 0; j < c; ++j) {
      BOXES_RETURN_IF_ERROR(
          RelabelSubtree(parent.child(j), child_level,
                         parent.range_lo() +
                             parent.subrange(j) * child_len));
    }
    EmitInvalidate(parent.range_lo(),
                   parent.range_lo() +
                       params_.RangeLength(child_level + 1) - 1);
  }
  return Status::OK();
}

Status WBox::RelabelSubtree(PageId page, uint32_t level, uint64_t new_lo) {
  ScopedPhase phase(cache_, IoPhase::kRelabel);
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
  if (level == 0) {
    WBoxLeafView leaf(data, &params_);
    if (leaf.range_lo() == new_lo) {
      return Status::OK();
    }
    BOXES_ASSIGN_OR_RETURN(data, cache_->GetPageForWrite(page));
    WBoxLeafView wleaf(data, &params_);
    wleaf.set_range_lo(new_lo);
    return FixPairCachesForSlots(page, 0, INT32_MAX);
  }
  WBoxInternalView node(data, &params_);
  if (node.range_lo() == new_lo) {
    return Status::OK();
  }
  BOXES_ASSIGN_OR_RETURN(data, cache_->GetPageForWrite(page));
  WBoxInternalView wnode(data, &params_);
  wnode.set_range_lo(new_lo);
  const uint64_t child_len = params_.RangeLength(level - 1);
  const uint16_t n = wnode.count();
  for (uint16_t i = 0; i < n; ++i) {
    BOXES_RETURN_IF_ERROR(RelabelSubtree(wnode.child(i), level - 1,
                                         new_lo + wnode.subrange(i) *
                                                      child_len));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Insert / delete

Status WBox::AdjustPathCounts(uint64_t label, int64_t weight_delta,
                              int64_t size_delta) {
  // Weight/size bookkeeping along the root path is what keeps the tree
  // balance invariants; charged as rebalance traffic.
  ScopedPhase phase(cache_, IoPhase::kRebalance);
  PageId page = root_;
  for (uint32_t level = height_ - 1; level >= 1; --level) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(page));
    WBoxInternalView node(data, &params_);
    const int entry = node.FindChildByLabel(label);
    if (entry < 0) {
      return Status::Corruption("label routes into unassigned subrange");
    }
    const uint16_t e = static_cast<uint16_t>(entry);
    node.set_weight(e, node.weight(e) + weight_delta);
    node.set_self_weight(node.self_weight() + weight_delta);
    if (options_.maintain_ordinal) {
      node.set_size(e, node.size(e) + size_delta);
    }
    page = node.child(e);
  }
  return Status::OK();
}

Status WBox::InsertIntoLeaf(PageId leaf_page, int slot, Lid lid_new,
                            bool is_end) {
  // The insertion shifts every following record's label within the leaf.
  ScopedPhase phase(cache_, IoPhase::kRelabel);
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(leaf_page));
  WBoxLeafView leaf(data, &params_);
  const uint16_t n = leaf.count();
  BOXES_CHECK(n < params_.leaf_capacity);
  const uint64_t label = leaf.LabelAt(static_cast<uint16_t>(slot));
  const uint64_t last_label = leaf.LabelAt(n - 1);
  leaf.InsertRecordAt(static_cast<uint16_t>(slot), lid_new,
                      is_end ? WBoxLeafView::kFlagIsEnd : 0);
  BOXES_RETURN_IF_ERROR(lidf_.WriteBlockPtr(lid_new, leaf_page));
  ++live_labels_;
  EmitShift(label, last_label, +1);
  // Records at and after `slot`+1 shifted up one label; refresh the cached
  // end values their partners hold.
  return FixPairCachesForSlots(leaf_page, slot + 1, leaf.count() - 1);
}

Status WBox::InsertBefore(Lid lid_new, Lid lid_old, bool is_end) {
  PageId leaf_page;
  int slot;
  uint64_t label;
  BOXES_RETURN_IF_ERROR(LocateLid(lid_old, &leaf_page, &slot, &label));

  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(leaf_page));
  WBoxLeafView leaf(data, &params_);
  const int tomb = leaf.FindTombstone();
  if (tomb >= 0) {
    // Reclaim a tombstone slot: a purely leaf-local update that never
    // changes any weight (global rebuilding, paper §4). Labels between the
    // tombstone and the insertion point shift, so this is relabel traffic.
    ScopedPhase phase(cache_, IoPhase::kRelabel);
    BOXES_ASSIGN_OR_RETURN(data, cache_->GetPageForWrite(leaf_page));
    WBoxLeafView wleaf(data, &params_);
    const uint64_t lo = wleaf.range_lo();
    wleaf.RemoveRecordAt(static_cast<uint16_t>(tomb));
    int target = slot;
    if (tomb < slot) {
      --target;
    }
    wleaf.InsertRecordAt(static_cast<uint16_t>(target), lid_new,
                         is_end ? WBoxLeafView::kFlagIsEnd : 0);
    BOXES_RETURN_IF_ERROR(lidf_.WriteBlockPtr(lid_new, leaf_page));
    --tombstones_;
    ++live_labels_;
    if (tomb < slot) {
      // Old labels in (tomb, slot) moved down one.
      EmitShift(lo + tomb + 1, lo + slot - 1, -1);
      BOXES_RETURN_IF_ERROR(FixPairCachesForSlots(leaf_page, tomb, slot - 1));
    } else if (tomb > slot) {
      // Old labels in [slot, tomb) moved up one.
      EmitShift(lo + slot, lo + tomb - 1, +1);
      BOXES_RETURN_IF_ERROR(FixPairCachesForSlots(leaf_page, slot, tomb));
    }
    if (options_.maintain_ordinal) {
      BOXES_RETURN_IF_ERROR(AdjustPathCounts(lo + target, 0, +1));
      BOXES_ASSIGN_OR_RETURN(const uint64_t ordinal,
                             OrdinalOfLabel(lo + target));
      EmitOrdinalShift(ordinal, +1);
    }
    return Status::OK();
  }

  // Normal path: make room (splitting preemptively), then insert.
  uint32_t attempts = 0;
  for (;;) {
    BOXES_CHECK(++attempts <= height_ + 4);
    bool split = false;
    BOXES_RETURN_IF_ERROR(EnsureRoomFor(label, &split));
    if (!split) {
      break;
    }
    // Splitting may have relabeled and/or relocated the target record.
    BOXES_RETURN_IF_ERROR(LocateLid(lid_old, &leaf_page, &slot, &label));
  }
  BOXES_RETURN_IF_ERROR(AdjustPathCounts(label, +1, +1));
  BOXES_RETURN_IF_ERROR(LocateLid(lid_old, &leaf_page, &slot, &label));
  BOXES_RETURN_IF_ERROR(InsertIntoLeaf(leaf_page, slot, lid_new, is_end));
  if (options_.maintain_ordinal) {
    BOXES_ASSIGN_OR_RETURN(const uint64_t ordinal, OrdinalOfLabel(label));
    EmitOrdinalShift(ordinal, +1);
  }
  return Status::OK();
}

StatusOr<NewElement> WBox::InsertElementBefore(Lid lid) {
  ScopedTimer timer(metrics_, name() + ".insert.us");
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("W-BOX is empty");
  }
  moved_in_op_.clear();
  BOXES_ASSIGN_OR_RETURN(const auto lids, lidf_.AllocatePair());
  const Lid start_lid = lids.first;
  const Lid end_lid = lids.second;
  BOXES_RETURN_IF_ERROR(InsertBefore(end_lid, lid, /*is_end=*/true));
  BOXES_RETURN_IF_ERROR(InsertBefore(start_lid, end_lid, /*is_end=*/false));
  BOXES_RETURN_IF_ERROR(LinkPair(start_lid, end_lid));
  return NewElement{start_lid, end_lid};
}

StatusOr<NewElement> WBox::InsertFirstElement() {
  if (root_ != kInvalidPageId) {
    return Status::FailedPrecondition("W-BOX is not empty");
  }
  moved_in_op_.clear();
  uint8_t* data = nullptr;
  BOXES_ASSIGN_OR_RETURN(const PageId page, cache_->AllocatePage(&data));
  WBoxLeafView leaf(data, &params_);
  leaf.Init();
  leaf.set_range_lo(0);
  root_ = page;
  height_ = 1;
  BOXES_ASSIGN_OR_RETURN(const auto lids, lidf_.AllocatePair());
  leaf.InsertRecordAt(0, lids.first, 0);
  leaf.InsertRecordAt(1, lids.second, WBoxLeafView::kFlagIsEnd);
  BOXES_RETURN_IF_ERROR(lidf_.WriteBlockPtr(lids.first, page));
  BOXES_RETURN_IF_ERROR(lidf_.WriteBlockPtr(lids.second, page));
  live_labels_ += 2;
  BOXES_RETURN_IF_ERROR(LinkPair(lids.first, lids.second));
  return NewElement{lids.first, lids.second};
}

Status WBox::Delete(Lid lid) {
  ScopedTimer timer(metrics_, name() + ".delete.us");
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("W-BOX is empty");
  }
  moved_in_op_.clear();
  PageId leaf_page;
  int slot;
  uint64_t label;
  BOXES_RETURN_IF_ERROR(LocateLid(lid, &leaf_page, &slot, &label));
  uint64_t ordinal = 0;
  if (options_.maintain_ordinal) {
    BOXES_ASSIGN_OR_RETURN(ordinal, OrdinalOfLabel(label));
  }
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(leaf_page));
  WBoxLeafView leaf(data, &params_);
  leaf.SetTombstone(static_cast<uint16_t>(slot), true);
  BOXES_RETURN_IF_ERROR(lidf_.Free(lid));
  ++tombstones_;
  --live_labels_;
  if (options_.maintain_ordinal) {
    BOXES_RETURN_IF_ERROR(AdjustPathCounts(label, 0, -1));
    EmitOrdinalShift(ordinal + 1, -1);
  }
  // Tombstoning leaves every remaining label value unchanged, so no value
  // log entry is needed.
  if (defer_rebuild_check_) {
    rebuild_check_pending_ = true;
    return Status::OK();
  }
  return MaybeGlobalRebuild();
}

Status WBox::ApplyBatch(std::vector<BatchOp>* ops, BatchStats* stats) {
  defer_rebuild_check_ = true;
  Status status = LabelingScheme::ApplyBatch(ops, stats);
  defer_rebuild_check_ = false;
  if (rebuild_check_pending_) {
    rebuild_check_pending_ = false;
    if (status.ok()) {
      status = MaybeGlobalRebuild();
    }
  }
  return status;
}

uint64_t WBox::BatchLocalityKey(const BatchOp& op) {
  const StatusOr<PageId> block = lidf_.ReadBlockPtr(op.anchor);
  // Unreadable anchors keep key 0 and surface their real error when the
  // op applies.
  return block.ok() ? *block : 0;
}

// ---------------------------------------------------------------------------
// Stats

StatusOr<SchemeStats> WBox::GetStats() {
  SchemeStats stats;
  stats.height = height_;
  stats.live_labels = live_labels_;
  stats.lidf_pages = lidf_.page_count();
  if (root_ == kInvalidPageId) {
    return stats;
  }
  // Walk the rightmost spine for the maximum live label; count pages with a
  // full traversal.
  uint64_t pages = 0;
  uint64_t max_label = 0;
  std::vector<std::pair<PageId, uint32_t>> stack{{root_, height_ - 1}};
  while (!stack.empty()) {
    const auto [page, level] = stack.back();
    stack.pop_back();
    ++pages;
    StatusOr<uint8_t*> data = cache_->GetPage(page);
    if (!data.ok()) {
      return data.status();
    }
    if (level == 0) {
      WBoxLeafView leaf(*data, &params_);
      if (leaf.count() > 0) {
        max_label = std::max(max_label, leaf.LabelAt(leaf.count() - 1));
      }
    } else {
      WBoxInternalView node(*data, &params_);
      for (uint16_t i = 0; i < node.count(); ++i) {
        stack.push_back({node.child(i), level - 1});
      }
    }
  }
  stats.index_pages = pages;
  uint32_t bits = 0;
  while (max_label >> bits) {
    ++bits;
  }
  stats.max_label_bits = bits == 0 ? 1 : bits;
  return stats;
}

}  // namespace boxes
