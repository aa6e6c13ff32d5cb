#include <algorithm>
#include <functional>
#include <vector>

#include "core/wbox/wbox.h"

namespace boxes {

// ---------------------------------------------------------------------------
// Shared helpers

Status WBox::CollectLeaves(PageId page, uint32_t level,
                           std::vector<ChildInfo>* leaves) {
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
  if (level == 0) {
    WBoxLeafView leaf(data, &params_);
    leaves->push_back({page, leaf.count(), leaf.live_count()});
    return Status::OK();
  }
  WBoxInternalView node(data, &params_);
  const uint16_t n = node.count();
  std::vector<PageId> children;
  children.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    children.push_back(node.child(i));
  }
  for (PageId child : children) {
    BOXES_RETURN_IF_ERROR(CollectLeaves(child, level - 1, leaves));
  }
  return Status::OK();
}

Status WBox::FreeInternalNodes(PageId page, uint32_t level) {
  if (level == 0) {
    return Status::OK();
  }
  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
  WBoxInternalView node(data, &params_);
  const uint16_t n = node.count();
  std::vector<PageId> children;
  children.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    children.push_back(node.child(i));
  }
  for (PageId child : children) {
    BOXES_RETURN_IF_ERROR(FreeInternalNodes(child, level - 1));
  }
  return cache_->FreePage(page);
}

Status WBox::RepairLeafSequence(std::vector<ChildInfo>* leaves) {
  const uint64_t min_leaf = params_.MinWeightExclusive(0) + 1;
  for (size_t i = 0; i < leaves->size();) {
    if (leaves->size() == 1 || (*leaves)[i].weight >= min_leaf) {
      ++i;
      continue;
    }
    // Merge with or borrow from a neighbor; prefer the left one.
    const size_t left = i > 0 ? i - 1 : i;
    const size_t right = left + 1;
    ChildInfo& li = (*leaves)[left];
    ChildInfo& ri = (*leaves)[right];
    BOXES_ASSIGN_OR_RETURN(uint8_t* left_data,
                           cache_->GetPageForWrite(li.page));
    BOXES_ASSIGN_OR_RETURN(uint8_t* right_data,
                           cache_->GetPageForWrite(ri.page));
    WBoxLeafView left_leaf(left_data, &params_);
    WBoxLeafView right_leaf(right_data, &params_);
    const uint64_t total = left_leaf.count() + right_leaf.count();
    if (total <= params_.leaf_capacity) {
      // Merge right into left.
      std::vector<Lid> moved;
      for (uint16_t j = 0; j < right_leaf.count(); ++j) {
        if (!right_leaf.is_tombstone(j)) {
          moved.push_back(right_leaf.lid(j));
        }
      }
      right_leaf.MovePrefixTo(right_leaf.count(), &left_leaf);
      BOXES_RETURN_IF_ERROR(FixRelocatedRecords(li.page, moved));
      BOXES_RETURN_IF_ERROR(cache_->FreePage(ri.page));
      li.weight = left_leaf.count();
      li.live = left_leaf.live_count();
      leaves->erase(leaves->begin() + static_cast<ptrdiff_t>(right));
      if (i > left) {
        i = left;  // re-examine the merged leaf
      }
    } else {
      // Redistribute so both halves are near total/2 (both >= min since
      // total > capacity >= 2*min).
      const uint16_t target_left = static_cast<uint16_t>(total / 2);
      std::vector<Lid> moved;
      if (left_leaf.count() > target_left) {
        const uint16_t from = target_left;
        for (uint16_t j = from; j < left_leaf.count(); ++j) {
          if (!left_leaf.is_tombstone(j)) {
            moved.push_back(left_leaf.lid(j));
          }
        }
        left_leaf.MoveSuffixToFront(from, &right_leaf);
        BOXES_RETURN_IF_ERROR(FixRelocatedRecords(ri.page, moved));
      } else if (left_leaf.count() < target_left) {
        const uint16_t n_moving =
            static_cast<uint16_t>(target_left - left_leaf.count());
        for (uint16_t j = 0; j < n_moving; ++j) {
          if (!right_leaf.is_tombstone(j)) {
            moved.push_back(right_leaf.lid(j));
          }
        }
        right_leaf.MovePrefixTo(n_moving, &left_leaf);
        BOXES_RETURN_IF_ERROR(FixRelocatedRecords(li.page, moved));
      }
      li.weight = left_leaf.count();
      li.live = left_leaf.live_count();
      ri.weight = right_leaf.count();
      ri.live = right_leaf.live_count();
      ++i;
    }
  }
  return Status::OK();
}

namespace {

/// A root-to-leaf path with one node page per level; index 0 = leaf.
struct LevelPath {
  std::vector<PageId> pages;    // pages[level]
  std::vector<int> entries;     // entries[level] = entry taken at pages[level]
};

}  // namespace

// ---------------------------------------------------------------------------
// Subtree insertion (paper §4, "Bulk loading and subtree insert/delete")

Status WBox::InsertSubtreeBefore(Lid before, const xml::Document& subtree,
                                 std::vector<NewElement>* lids_out) {
  if (subtree.empty()) {
    if (lids_out != nullptr) {
      lids_out->clear();
    }
    return Status::OK();
  }
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("W-BOX is empty");
  }
  ScopedPhase io_phase(cache_, IoPhase::kBulkLoad);
  ScopedTimer timer(metrics_, name() + ".insert_subtree.us");
  moved_in_op_.clear();
  const uint64_t n_new = subtree.tag_count();

  // Ensure the tree as a whole can absorb the new records.
  while (live_labels_ + tombstones_ + n_new + 1 >=
         params_.MaxWeight(height_ - 1)) {
    BOXES_RETURN_IF_ERROR(GrowRoot());
  }

  PageId leaf_page;
  int slot;
  uint64_t label;
  BOXES_RETURN_IF_ERROR(LocateLid(before, &leaf_page, &slot, &label));
  // The ordinal where the subtree's records splice in; everything at or
  // after it shifts by n_new. Captured before any restructuring — the
  // rebuild paths below destroy the information needed to compute it.
  uint64_t insert_ordinal = 0;
  if (options_.maintain_ordinal) {
    BOXES_ASSIGN_OR_RETURN(insert_ordinal, OrdinalOfLabel(label));
  }

  // Build the root-to-leaf path indexed by level.
  LevelPath lp;
  lp.pages.assign(height_, kInvalidPageId);
  lp.entries.assign(height_, -1);
  {
    PageId page = root_;
    for (uint32_t level = height_ - 1; level >= 1; --level) {
      lp.pages[level] = page;
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
      WBoxInternalView node(data, &params_);
      const int entry = node.FindChildByLabel(label);
      if (entry < 0) {
        return Status::Corruption("label routes into unassigned subrange");
      }
      lp.entries[level] = entry;
      page = node.child(static_cast<uint16_t>(entry));
    }
    lp.pages[0] = page;
    BOXES_CHECK(page == leaf_page);
  }

  // Find the lowest ancestor v_i with room for n_new more records (paper:
  // check v_0, v_1, ... bottom-up). Every ancestor ABOVE the chosen level
  // also gains n_new records, so the rebuild level must sit above the
  // highest ancestor that lacks room.
  uint32_t target_level = 0;
  for (uint32_t level = 0; level < height_; ++level) {
    uint64_t weight;
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(lp.pages[level]));
    if (level == 0) {
      weight = WBoxLeafView(data, &params_).count();
    } else {
      weight = WBoxInternalView(data, &params_).self_weight();
    }
    if (weight + n_new + 1 >= params_.MaxWeight(level)) {
      target_level = level + 1;  // this node lacks room; rebuild above it
    }
  }
  BOXES_CHECK(target_level < height_);  // the root always has room

  std::vector<FlatRecord> records;
  BOXES_RETURN_IF_ERROR(FlattenDocument(subtree, &records, lids_out));

  if (target_level == 0) {
    // The whole subtree fits inside the target leaf: splice in place.
    BOXES_RETURN_IF_ERROR(AdjustPathCounts(label,
                                           static_cast<int64_t>(n_new),
                                           static_cast<int64_t>(n_new)));
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(leaf_page));
    WBoxLeafView leaf(data, &params_);
    const uint64_t last_label = leaf.LabelAt(leaf.count() - 1);
    for (uint64_t j = 0; j < n_new; ++j) {
      leaf.InsertRecordAt(
          static_cast<uint16_t>(slot + j), records[j].lid,
          records[j].is_end ? WBoxLeafView::kFlagIsEnd : uint8_t{0});
      BOXES_RETURN_IF_ERROR(lidf_.WriteBlockPtr(records[j].lid, leaf_page));
    }
    live_labels_ += n_new;
    EmitShift(label, last_label, static_cast<int64_t>(n_new));
    BOXES_RETURN_IF_ERROR(FixPairCachesForSlots(
        leaf_page, slot + static_cast<int>(n_new), leaf.count() - 1));
    if (options_.maintain_ordinal) {
      EmitOrdinalShift(insert_ordinal, static_cast<int64_t>(n_new));
    }
    return LinkPairsInOrder(records);
  }

  // Build fresh leaves for the new records.
  std::vector<ChildInfo> new_leaves;
  BOXES_RETURN_IF_ERROR(BuildLeaves(records, &new_leaves));

  // Split the target leaf at the insertion point; the new leaves go
  // between the two halves.
  PageId tail_page = kInvalidPageId;
  if (slot > 0) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(leaf_page));
    WBoxLeafView leaf(data, &params_);
    uint8_t* tail_data = nullptr;
    BOXES_ASSIGN_OR_RETURN(tail_page, cache_->AllocatePage(&tail_data));
    WBoxLeafView tail(tail_data, &params_);
    tail.Init();
    std::vector<Lid> moved;
    for (uint16_t j = static_cast<uint16_t>(slot); j < leaf.count(); ++j) {
      if (!leaf.is_tombstone(j)) {
        moved.push_back(leaf.lid(j));
      }
    }
    leaf.MoveSuffixTo(static_cast<uint16_t>(slot), &tail);
    BOXES_RETURN_IF_ERROR(FixRelocatedRecords(tail_page, moved));
  }

  // Assemble the new leaf sequence under v.
  const PageId v_page = lp.pages[target_level];
  std::vector<ChildInfo> seq;
  BOXES_RETURN_IF_ERROR(CollectLeaves(v_page, target_level, &seq));
  std::vector<ChildInfo> combined;
  combined.reserve(seq.size() + new_leaves.size() + 1);
  bool spliced = false;
  for (const ChildInfo& info : seq) {
    if (info.page == leaf_page) {
      spliced = true;
      if (slot > 0) {
        combined.push_back(info);  // head half (records < insertion point)
      }
      combined.insert(combined.end(), new_leaves.begin(), new_leaves.end());
      if (tail_page != kInvalidPageId) {
        BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(tail_page));
        WBoxLeafView tail(data, &params_);
        combined.push_back({tail_page, tail.count(), tail.live_count()});
      } else {
        combined.push_back(info);  // whole original leaf goes after
      }
    } else {
      combined.push_back(info);
    }
  }
  BOXES_CHECK(spliced);
  // Refresh the head half's counters after the split.
  if (slot > 0) {
    for (ChildInfo& info : combined) {
      if (info.page == leaf_page) {
        BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(leaf_page));
        WBoxLeafView head(data, &params_);
        info.weight = head.count();
        info.live = head.live_count();
        break;
      }
    }
  }
  BOXES_RETURN_IF_ERROR(RepairLeafSequence(&combined));

  // Rebuild the internal structure above the combined leaf sequence.
  const bool at_root = target_level == height_ - 1;
  uint64_t v_range_lo = 0;
  if (!at_root) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                           cache_->GetPage(lp.pages[target_level + 1]));
    WBoxInternalView parent(data, &params_);
    v_range_lo = parent.ChildRangeLo(
        static_cast<uint16_t>(lp.entries[target_level + 1]));
  }
  BOXES_RETURN_IF_ERROR(FreeInternalNodes(v_page, target_level));

  if (at_root) {
    if (combined.size() == 1) {
      root_ = combined[0].page;
      height_ = 1;
      BOXES_RETURN_IF_ERROR(AssignRanges(root_, 0, 0, /*fix_pairs=*/true));
    } else {
      ChildInfo top;
      uint32_t top_level = 0;
      BOXES_RETURN_IF_ERROR(
          BuildInternalLevels(std::move(combined), 0, &top, &top_level));
      root_ = top.page;
      height_ = top_level + 1;
      BOXES_RETURN_IF_ERROR(
          AssignRanges(root_, top_level, 0, /*fix_pairs=*/true));
    }
    live_labels_ += n_new;
    EmitInvalidate(0, UINT64_MAX);
    if (options_.maintain_ordinal) {
      EmitOrdinalShift(insert_ordinal, static_cast<int64_t>(n_new));
    }
    return LinkPairsInOrder(records);
  }

  ChildInfo top;
  BOXES_RETURN_IF_ERROR(BuildSubtreeAtLevel(std::move(combined), 0,
                                            target_level, v_range_lo, &top));
  // Update the parent entry and all ancestors above it.
  for (uint32_t level = target_level + 1; level < height_; ++level) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                           cache_->GetPageForWrite(lp.pages[level]));
    WBoxInternalView node(data, &params_);
    const uint16_t e = static_cast<uint16_t>(lp.entries[level]);
    if (level == target_level + 1) {
      node.set_child(e, top.page);
      node.set_weight(e, top.weight);
      node.set_size(e, options_.maintain_ordinal ? top.live : 0);
    } else {
      node.set_weight(e, node.weight(e) + n_new);
      if (options_.maintain_ordinal) {
        node.set_size(e, node.size(e) + n_new);
      }
    }
    node.set_self_weight(node.self_weight() + n_new);
  }
  live_labels_ += n_new;
  EmitInvalidate(v_range_lo,
                 v_range_lo + params_.RangeLength(target_level) - 1);
  if (options_.maintain_ordinal) {
    EmitOrdinalShift(insert_ordinal, static_cast<int64_t>(n_new));
  }
  return LinkPairsInOrder(records);
}

// ---------------------------------------------------------------------------
// Subtree deletion

Status WBox::RemoveLabelRange(PageId page, uint32_t level, uint64_t lo,
                              uint64_t hi, uint64_t* removed_weight,
                              uint64_t* removed_live) {
  if (level == 0) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(page));
    WBoxLeafView leaf(data, &params_);
    const uint64_t leaf_lo = leaf.range_lo();
    const uint16_t n = leaf.count();
    if (n == 0) {
      return Status::OK();
    }
    const uint64_t first_label = leaf_lo;
    const uint64_t last_label = leaf_lo + n - 1;
    if (hi < first_label || lo > last_label) {
      return Status::OK();
    }
    const uint16_t from =
        static_cast<uint16_t>(lo > first_label ? lo - leaf_lo : 0);
    const uint16_t to = static_cast<uint16_t>(
        hi < last_label ? hi - leaf_lo : n - 1);
    for (uint16_t j = from; j <= to; ++j) {
      if (!leaf.is_tombstone(j)) {
        BOXES_RETURN_IF_ERROR(lidf_.Free(leaf.lid(j)));
        ++*removed_live;
      }
      ++*removed_weight;
    }
    leaf.RemoveRecordRange(from, to);
    // Surviving records after `to` shifted down; refresh pair caches.
    if (leaf.count() > from) {
      BOXES_RETURN_IF_ERROR(
          FixPairCachesForSlots(page, from, leaf.count() - 1));
    }
    return Status::OK();
  }

  BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(page));
  WBoxInternalView node(data, &params_);
  const uint64_t child_len = params_.RangeLength(level - 1);
  for (uint16_t i = 0; i < node.count();) {
    const uint64_t child_lo = node.ChildRangeLo(i);
    const uint64_t child_hi = child_lo + child_len - 1;
    if (child_hi < lo || child_lo > hi) {
      ++i;
      continue;
    }
    const PageId child = node.child(i);
    if (child_lo >= lo && child_hi <= hi) {
      // Entire child range is covered: free its records' LIDs and pages.
      std::vector<FlatRecord> victims;
      BOXES_RETURN_IF_ERROR(CollectLiveRecords(child, level - 1, &victims));
      for (const FlatRecord& victim : victims) {
        BOXES_RETURN_IF_ERROR(lidf_.Free(victim.lid));
      }
      *removed_live += victims.size();
      *removed_weight += node.weight(i);
      BOXES_RETURN_IF_ERROR(FreeSubtree(child, level - 1));
      node.set_self_weight(node.self_weight() - node.weight(i));
      node.RemoveEntryAt(i);
      continue;  // entry i now refers to the next child
    }
    // Partial overlap: recurse, then drop the child if it emptied out.
    uint64_t child_removed_weight = 0;
    uint64_t child_removed_live = 0;
    BOXES_RETURN_IF_ERROR(RemoveLabelRange(child, level - 1, lo, hi,
                                           &child_removed_weight,
                                           &child_removed_live));
    *removed_weight += child_removed_weight;
    *removed_live += child_removed_live;
    node.set_weight(i, node.weight(i) - child_removed_weight);
    node.set_self_weight(node.self_weight() - child_removed_weight);
    if (options_.maintain_ordinal) {
      node.set_size(i, node.size(i) - child_removed_live);
    }
    if (node.weight(i) == 0) {
      BOXES_RETURN_IF_ERROR(FreeSubtree(child, level - 1));
      node.RemoveEntryAt(i);
      continue;
    }
    ++i;
  }
  return Status::OK();
}

namespace {

/// Result of scanning for weight-constraint violations.
struct Violation {
  bool found = false;
  uint32_t level = 0;       // level of the highest violating node
  PageId parent = kInvalidPageId;  // its parent (invalid if violator = root)
};

}  // namespace

Status WBox::DeleteSubtree(Lid root_start, Lid root_end) {
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("W-BOX is empty");
  }
  ScopedPhase io_phase(cache_, IoPhase::kBulkLoad);
  ScopedTimer timer(metrics_, name() + ".delete_subtree.us");
  moved_in_op_.clear();
  PageId leaf1;
  PageId leaf2;
  int slot1;
  int slot2;
  uint64_t l1;
  uint64_t l2;
  BOXES_RETURN_IF_ERROR(LocateLid(root_start, &leaf1, &slot1, &l1));
  BOXES_RETURN_IF_ERROR(LocateLid(root_end, &leaf2, &slot2, &l2));
  if (l1 >= l2) {
    return Status::InvalidArgument(
        "root_start must precede root_end in document order");
  }
  uint64_t ordinal1 = 0;
  if (options_.maintain_ordinal) {
    BOXES_ASSIGN_OR_RETURN(ordinal1, OrdinalOfLabel(l1));
  }

  uint64_t removed_weight = 0;
  uint64_t removed_live = 0;
  BOXES_RETURN_IF_ERROR(RemoveLabelRange(root_, height_ - 1, l1, l2,
                                         &removed_weight, &removed_live));
  live_labels_ -= removed_live;
  tombstones_ -= removed_weight - removed_live;
  // All labels at or above l1 may have shifted (within boundary leaves) or
  // will be relabeled by the rebuild below.
  EmitInvalidate(l1, UINT64_MAX);
  if (options_.maintain_ordinal) {
    // The ordinals past the removed ones close the gap, as a single
    // delete's do.
    EmitOrdinalShift(ordinal1 + removed_live,
                     -static_cast<int64_t>(removed_live));
  }

  // Did the whole structure empty out?
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(root_));
    uint16_t root_count;
    if (WBoxNodeType(data) == WBoxLeafView::kNodeType) {
      root_count = WBoxLeafView(data, &params_).count();
    } else {
      root_count = WBoxInternalView(data, &params_).count();
    }
    if (root_count == 0) {
      BOXES_RETURN_IF_ERROR(FreeSubtree(root_, height_ - 1));
      root_ = kInvalidPageId;
      height_ = 0;
      return Status::OK();
    }
  }

  // Look for the highest node violating its minimum-weight constraint, and
  // rebuild at its parent (the lowest ancestor with enough remaining weight,
  // paper §4). Only nodes along the two boundary paths can violate, but a
  // full scan is within the operation's O(N/B) budget and simpler.
  Violation violation;
  struct StackEntry {
    PageId page;
    uint32_t level;
    PageId parent;
  };
  std::vector<StackEntry> stack{{root_, height_ - 1, kInvalidPageId}};
  bool root_underfanned = false;
  while (!stack.empty()) {
    const StackEntry entry = stack.back();
    stack.pop_back();
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(entry.page));
    uint64_t weight;
    if (entry.level == 0) {
      weight = WBoxLeafView(data, &params_).count();
    } else {
      WBoxInternalView node(data, &params_);
      weight = node.self_weight();
      for (uint16_t i = 0; i < node.count(); ++i) {
        stack.push_back({node.child(i), entry.level - 1, entry.page});
      }
      if (entry.page == root_ && node.count() < 2) {
        root_underfanned = true;
      }
    }
    const bool is_root = entry.page == root_;
    if (!is_root && weight <= params_.MinWeightExclusive(entry.level) &&
        (!violation.found || entry.level > violation.level)) {
      violation.found = true;
      violation.level = entry.level;
      violation.parent = entry.parent;
    }
  }
  if (!violation.found && !root_underfanned) {
    return Status::OK();
  }

  // Rebuild target: the violator's parent, or the root.
  PageId z_page = violation.found ? violation.parent : root_;
  uint32_t z_level = violation.found ? violation.level + 1 : height_ - 1;
  if (root_underfanned && violation.found) {
    // Prefer the higher rebuild point.
    if (height_ - 1 > z_level) {
      z_page = root_;
      z_level = height_ - 1;
    }
  }

  // Locate z's range and parent entry by descending for it.
  const bool at_root = z_page == root_;
  uint64_t z_lo = 0;
  LevelPath lp;
  if (!at_root) {
    // Find the path to z by a DFS for its page (z may no longer be on the
    // l1 path after removals); ranges make a directed search possible only
    // by label, so search structurally.
    lp.pages.assign(height_, kInvalidPageId);
    lp.entries.assign(height_, -1);
    struct SearchEntry {
      PageId page;
      uint32_t level;
    };
    std::vector<SearchEntry> path_stack;
    // Iterative DFS tracking the current path.
    Status search_status = Status::OK();
    bool found = false;
    std::function<Status(PageId, uint32_t)> dfs = [&](PageId page,
                                                      uint32_t level)
        -> Status {
      if (found) {
        return Status::OK();
      }
      if (page == z_page) {
        found = true;
        return Status::OK();
      }
      if (level == 0) {
        return Status::OK();
      }
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(page));
      WBoxInternalView node(data, &params_);
      const uint16_t n = node.count();
      std::vector<PageId> children;
      children.reserve(n);
      for (uint16_t i = 0; i < n; ++i) {
        children.push_back(node.child(i));
      }
      for (uint16_t i = 0; i < n && !found; ++i) {
        lp.pages[level] = page;
        lp.entries[level] = i;
        BOXES_RETURN_IF_ERROR(dfs(children[i], level - 1));
      }
      return Status::OK();
    };
    search_status = dfs(root_, height_ - 1);
    BOXES_RETURN_IF_ERROR(search_status);
    BOXES_CHECK(found);
    BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                           cache_->GetPage(lp.pages[z_level + 1]));
    WBoxInternalView parent(data, &params_);
    z_lo =
        parent.ChildRangeLo(static_cast<uint16_t>(lp.entries[z_level + 1]));
  }

  std::vector<ChildInfo> leaves;
  BOXES_RETURN_IF_ERROR(CollectLeaves(z_page, z_level, &leaves));
  BOXES_RETURN_IF_ERROR(RepairLeafSequence(&leaves));
  BOXES_RETURN_IF_ERROR(FreeInternalNodes(z_page, z_level));

  if (at_root) {
    if (leaves.size() == 1) {
      root_ = leaves[0].page;
      height_ = 1;
      BOXES_RETURN_IF_ERROR(AssignRanges(root_, 0, 0, /*fix_pairs=*/true));
    } else {
      ChildInfo top;
      uint32_t top_level = 0;
      BOXES_RETURN_IF_ERROR(
          BuildInternalLevels(std::move(leaves), 0, &top, &top_level));
      root_ = top.page;
      height_ = top_level + 1;
      BOXES_RETURN_IF_ERROR(
          AssignRanges(root_, top_level, 0, /*fix_pairs=*/true));
    }
    return Status::OK();
  }

  ChildInfo top;
  BOXES_RETURN_IF_ERROR(
      BuildSubtreeAtLevel(std::move(leaves), 0, z_level, z_lo, &top));
  BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                         cache_->GetPageForWrite(lp.pages[z_level + 1]));
  WBoxInternalView parent(data, &params_);
  const uint16_t e = static_cast<uint16_t>(lp.entries[z_level + 1]);
  parent.set_child(e, top.page);
  parent.set_weight(e, top.weight);
  parent.set_size(e, options_.maintain_ordinal ? top.live : 0);
  return Status::OK();
}

}  // namespace boxes
