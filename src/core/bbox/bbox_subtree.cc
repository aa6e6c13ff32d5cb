#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/bbox/bbox.h"

namespace boxes {

// ---------------------------------------------------------------------------
// Ripping (paper §5, "Bulk loading and subtree insert/delete")

Status BBox::RipAt(PageId leaf_page, int slot, uint32_t levels,
                   RipResult* result) {
  BOXES_CHECK(levels >= 1 && levels < height_);
  PageId right_prev;

  // Level 0: split the leaf at the insertion point.
  if (slot == 0) {
    right_prev = leaf_page;  // the whole leaf belongs to the right half
    result->touched.push_back(leaf_page);
  } else {
    uint8_t* fresh_data = nullptr;
    BOXES_ASSIGN_OR_RETURN(const PageId fresh,
                           cache_->AllocatePage(&fresh_data));
    BBoxLeafView right(fresh_data, &params_);
    right.Init();
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                             cache_->GetPageForWrite(leaf_page));
      BBoxLeafView left(data, &params_);
      std::vector<uint64_t> moved;
      for (uint16_t i = static_cast<uint16_t>(slot); i < left.count(); ++i) {
        moved.push_back(left.lid(i));
      }
      left.MoveSuffixTo(static_cast<uint16_t>(slot), &right);
      BOXES_RETURN_IF_ERROR(FixMovedEntries(fresh, /*is_leaf=*/true, moved));
    }
    // Hook the new right leaf into the parent, after the left leaf.
    PageId parent;
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(leaf_page));
      parent = BBoxNodeHeader(data).parent();
    }
    BOXES_CHECK(parent != kInvalidPageId);
    BOXES_RETURN_IF_ERROR(EnsureRoom(parent));
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(leaf_page));
      parent = BBoxNodeHeader(data).parent();
    }
    BOXES_ASSIGN_OR_RETURN(uint8_t* parent_data,
                           cache_->GetPageForWrite(parent));
    BBoxInternalView parent_view(parent_data, &params_);
    const int index = parent_view.FindChild(leaf_page);
    BOXES_CHECK(index >= 0);
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* left_data, cache_->GetPage(leaf_page));
      parent_view.set_size(static_cast<uint16_t>(index),
                           BBoxLeafView(left_data, &params_).count());
      BOXES_ASSIGN_OR_RETURN(uint8_t* right_data, cache_->GetPage(fresh));
      BBoxLeafView right_view(right_data, &params_);
      parent_view.InsertAt(static_cast<uint16_t>(index + 1), fresh,
                           right_view.count());
      right_view.set_parent(parent);  // fresh page is dirty from allocation
    }
    result->touched.push_back(leaf_page);
    result->touched.push_back(fresh);
    right_prev = fresh;
  }

  // Levels 1..levels-1: split each ancestor at the boundary child.
  for (uint32_t level = 1; level < levels; ++level) {
    PageId node_page;
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(right_prev));
      node_page = BBoxNodeHeader(data).parent();
    }
    BOXES_CHECK(node_page != kInvalidPageId);
    BOXES_ASSIGN_OR_RETURN(uint8_t* node_data,
                           cache_->GetPageForWrite(node_page));
    BBoxInternalView node(node_data, &params_);
    const int boundary = node.FindChild(right_prev);
    BOXES_CHECK(boundary >= 0);
    if (boundary == 0) {
      right_prev = node_page;  // whole node belongs to the right half
      result->touched.push_back(node_page);
      continue;
    }
    PageId grandparent;
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(node_page));
      grandparent = BBoxNodeHeader(data).parent();
    }
    BOXES_CHECK(grandparent != kInvalidPageId);
    BOXES_RETURN_IF_ERROR(EnsureRoom(grandparent));
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(node_page));
      grandparent = BBoxNodeHeader(data).parent();
    }
    uint8_t* fresh_data = nullptr;
    BOXES_ASSIGN_OR_RETURN(const PageId fresh,
                           cache_->AllocatePage(&fresh_data));
    BBoxInternalView right(fresh_data, &params_);
    right.Init(static_cast<uint8_t>(level));
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                             cache_->GetPageForWrite(node_page));
      BBoxInternalView left(data, &params_);
      std::vector<uint64_t> moved;
      for (uint16_t i = static_cast<uint16_t>(boundary); i < left.count();
           ++i) {
        moved.push_back(left.child(i));
      }
      left.MoveSuffixTo(static_cast<uint16_t>(boundary), &right);
      BOXES_RETURN_IF_ERROR(
          FixMovedEntries(fresh, /*is_leaf=*/false, moved));
      right.set_parent(grandparent);
    }
    BOXES_ASSIGN_OR_RETURN(uint8_t* gp_data,
                           cache_->GetPageForWrite(grandparent));
    BBoxInternalView gp(gp_data, &params_);
    const int gp_index = gp.FindChild(node_page);
    BOXES_CHECK(gp_index >= 0);
    {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(node_page));
      gp.set_size(static_cast<uint16_t>(gp_index),
                  BBoxInternalView(data, &params_).SizeSum());
      BOXES_ASSIGN_OR_RETURN(uint8_t* fresh2, cache_->GetPage(fresh));
      gp.InsertAt(static_cast<uint16_t>(gp_index + 1), fresh,
                  BBoxInternalView(fresh2, &params_).SizeSum());
    }
    result->touched.push_back(node_page);
    result->touched.push_back(fresh);
    right_prev = fresh;
  }
  result->right_top = right_prev;
  return Status::OK();
}

Status BBox::RepairCandidates(const std::vector<PageId>& candidates) {
  ScopedPhase io_phase(cache_, IoPhase::kRebalance);
  // Worklist repair: after rips, adjacent nodes can BOTH be underfull, so a
  // merge may still be below minimum and must be re-examined; merges also
  // shrink the parent. Every affected node is pushed back until stable.
  std::unordered_set<PageId> freed;
  std::vector<PageId> work(candidates.rbegin(), candidates.rend());
  uint32_t guard = 0;
  while (!work.empty()) {
    BOXES_CHECK(++guard < 100000);
    const PageId cur = work.back();
    work.pop_back();
    if (freed.count(cur) != 0 || cur == root_) {
      continue;
    }
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(cur));
    BBoxNodeHeader header(data);
    const bool is_leaf = header.node_type() == BBoxNodeHeader::kLeafType;
    const uint16_t count = header.count();
    const PageId parent = header.parent();
    if (count == 0) {
      // Remove an emptied node entirely.
      BOXES_ASSIGN_OR_RETURN(uint8_t* parent_data,
                             cache_->GetPageForWrite(parent));
      BBoxInternalView parent_view(parent_data, &params_);
      const int index = parent_view.FindChild(cur);
      BOXES_CHECK(index >= 0);
      parent_view.RemoveAt(static_cast<uint16_t>(index));
      BOXES_RETURN_IF_ERROR(cache_->FreePage(cur));
      freed.insert(cur);
      NoteReorganization(parent, 0, parent_view.level());
      work.push_back(parent);
      continue;
    }
    const uint64_t min = is_leaf ? params_.LeafMin() : params_.InternalMin();
    if (count >= min) {
      continue;
    }
    BOXES_ASSIGN_OR_RETURN(uint8_t* parent_data, cache_->GetPage(parent));
    BBoxInternalView parent_view(parent_data, &params_);
    if (parent_view.count() < 2) {
      // Lone child: nothing to borrow from. Collapse or repair the parent
      // first, then revisit this node.
      if (parent == root_) {
        std::vector<PageId> collapsed;
        BOXES_RETURN_IF_ERROR(CollapseRootIfNeeded(&collapsed));
        freed.insert(collapsed.begin(), collapsed.end());
        if (cur != root_) {
          work.push_back(cur);
        }
      } else {
        work.push_back(cur);
        work.push_back(parent);
      }
      continue;
    }
    const int index = parent_view.FindChild(cur);
    BOXES_CHECK(index >= 0);
    const uint16_t left_idx =
        static_cast<uint16_t>(index > 0 ? index - 1 : index);
    const PageId left_page = parent_view.child(left_idx);
    bool merged = false;
    PageId freed_page = kInvalidPageId;
    BOXES_RETURN_IF_ERROR(
        MergeOrRedistribute(parent, left_idx, &merged, &freed_page));
    if (freed_page != kInvalidPageId) {
      freed.insert(freed_page);
    }
    if (merged) {
      // The merged survivor may still be underfull; so may the parent.
      work.push_back(parent);
      if (freed.count(left_page) == 0) {
        work.push_back(left_page);
      }
    }
  }
  return CollapseRootIfNeeded();
}

Status BBox::RecomputeSizesUpward(PageId page) {
  ScopedPhase io_phase(cache_, IoPhase::kRebalance);
  if (!options_.ordinal) {
    return Status::OK();
  }
  PageId child = page;
  for (;;) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* child_data, cache_->GetPage(child));
    const PageId parent = BBoxNodeHeader(child_data).parent();
    if (parent == kInvalidPageId) {
      return Status::OK();
    }
    uint64_t size;
    if (BBoxNodeType(child_data) == BBoxNodeHeader::kLeafType) {
      size = BBoxLeafView(child_data, &params_).count();
    } else {
      size = BBoxInternalView(child_data, &params_).SizeSum();
    }
    BOXES_ASSIGN_OR_RETURN(uint8_t* parent_data,
                           cache_->GetPageForWrite(parent));
    BBoxInternalView parent_view(parent_data, &params_);
    const int index = parent_view.FindChild(child);
    if (index < 0) {
      return Status::Corruption("back-link not mirrored by a child entry");
    }
    parent_view.set_size(static_cast<uint16_t>(index), size);
    child = parent;
  }
}

// ---------------------------------------------------------------------------
// Subtree insertion

Status BBox::InsertSubtreeBefore(Lid before, const xml::Document& subtree,
                                 std::vector<NewElement>* lids_out) {
  if (subtree.empty()) {
    if (lids_out != nullptr) {
      lids_out->clear();
    }
    return Status::OK();
  }
  if (root_ == kInvalidPageId) {
    return BulkLoad(subtree, lids_out);
  }
  ScopedPhase io_phase(cache_, IoPhase::kBulkLoad);
  ScopedTimer timer(metrics_, name() + ".insert_subtree.us");
  op_reorg_ = Reorganization();
  PageId leaf_page;
  int slot;
  BOXES_RETURN_IF_ERROR(LocateLid(before, &leaf_page, &slot));
  uint64_t anchor_ordinal = 0;
  if (options_.ordinal && listener_ != nullptr) {
    BOXES_RETURN_IF_ERROR(
        AdjustPathSizes(leaf_page, slot, 0, &anchor_ordinal));
  }
  std::vector<FlatRecord> records;
  BOXES_RETURN_IF_ERROR(FlattenDocument(subtree, &records, lids_out));
  const uint64_t n_new = records.size();

  // Fast path: everything fits into the anchor leaf.
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(leaf_page));
    BBoxLeafView leaf(data, &params_);
    if (leaf.count() + n_new <= params_.leaf_capacity) {
      std::vector<uint64_t> prefix;
      if (listener_ != nullptr) {
        BOXES_RETURN_IF_ERROR(PathComponents(leaf_page, &prefix));
      }
      const uint16_t count_before = leaf.count();
      BOXES_ASSIGN_OR_RETURN(uint8_t* wdata,
                             cache_->GetPageForWrite(leaf_page));
      BBoxLeafView wleaf(wdata, &params_);
      for (uint64_t j = 0; j < n_new; ++j) {
        wleaf.InsertAt(static_cast<uint16_t>(slot + j), records[j].lid);
        BOXES_RETURN_IF_ERROR(
            lidf_.WriteBlockPtr(records[j].lid, leaf_page));
      }
      live_labels_ += n_new;
      if (options_.ordinal) {
        BOXES_RETURN_IF_ERROR(AdjustPathSizes(
            leaf_page, slot, static_cast<int64_t>(n_new), nullptr));
        if (listener_ != nullptr) {
          listener_->OnOrdinalShift(anchor_ordinal,
                                    static_cast<int64_t>(n_new));
        }
      }
      EmitLeafShift(prefix, static_cast<uint64_t>(slot), count_before - 1,
                    static_cast<int64_t>(n_new));
      return Status::OK();
    }
  }

  // Build the grafted tree T' (sharing this structure's LIDF).
  std::vector<LevelNode> leaves;
  BOXES_RETURN_IF_ERROR(BuildLeaves(records, &leaves));
  PageId graft_root;
  uint32_t graft_height;
  BOXES_RETURN_IF_ERROR(
      BuildTree(std::move(leaves), 0, &graft_root, &graft_height));

  // The host must be strictly taller than T' so the rip leaves a slot for
  // T's root at level graft_height.
  while (height_ <= graft_height) {
    BOXES_RETURN_IF_ERROR(GrowRoot());
  }

  RipResult rip;
  BOXES_RETURN_IF_ERROR(RipAt(leaf_page, slot, graft_height, &rip));

  // Splice T' immediately before the right half.
  PageId gap_parent;
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(rip.right_top));
    gap_parent = BBoxNodeHeader(data).parent();
  }
  BOXES_CHECK(gap_parent != kInvalidPageId);
  BOXES_RETURN_IF_ERROR(EnsureRoom(gap_parent));
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(rip.right_top));
    gap_parent = BBoxNodeHeader(data).parent();
  }
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(gap_parent));
    BBoxInternalView parent_view(data, &params_);
    const int index = parent_view.FindChild(rip.right_top);
    BOXES_CHECK(index >= 0);
    parent_view.InsertAt(static_cast<uint16_t>(index), graft_root, n_new);
    BOXES_ASSIGN_OR_RETURN(uint8_t* graft_data,
                           cache_->GetPageForWrite(graft_root));
    BBoxNodeHeader(graft_data).set_parent(gap_parent);
  }
  live_labels_ += n_new;
  // Ancestors above the gap parent gained n_new records.
  if (options_.ordinal) {
    PageId child = gap_parent;
    for (;;) {
      BOXES_ASSIGN_OR_RETURN(uint8_t* child_data, cache_->GetPage(child));
      const PageId parent = BBoxNodeHeader(child_data).parent();
      if (parent == kInvalidPageId) {
        break;
      }
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(parent));
      BBoxInternalView node(data, &params_);
      const int index = node.FindChild(child);
      BOXES_CHECK(index >= 0);
      node.set_size(static_cast<uint16_t>(index),
                    node.size(static_cast<uint16_t>(index)) + n_new);
      child = parent;
    }
  }

  // The graft root was built as a (fill-exempt) tree root but is now an
  // interior node, so it joins the repair set.
  std::vector<PageId> candidates = rip.touched;
  candidates.push_back(graft_root);
  BOXES_RETURN_IF_ERROR(RepairCandidates(candidates));

  // The rip/splice rearranged paths wholesale; invalidate conservatively.
  op_reorg_.any = true;
  op_reorg_.whole_tree = true;
  BOXES_RETURN_IF_ERROR(EmitTopmostInvalidation());
  if (options_.ordinal && listener_ != nullptr) {
    listener_->OnOrdinalShift(anchor_ordinal, static_cast<int64_t>(n_new));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Subtree deletion

Status BBox::DeleteSubtree(Lid root_start, Lid root_end) {
  if (root_ == kInvalidPageId) {
    return Status::FailedPrecondition("B-BOX is empty");
  }
  ScopedPhase io_phase(cache_, IoPhase::kBulkLoad);
  ScopedTimer timer(metrics_, name() + ".delete_subtree.us");
  op_reorg_ = Reorganization();
  PageId leaf_a;
  PageId leaf_b;
  int slot_a;
  int slot_b;
  BOXES_RETURN_IF_ERROR(LocateLid(root_start, &leaf_a, &slot_a));
  BOXES_RETURN_IF_ERROR(LocateLid(root_end, &leaf_b, &slot_b));
  uint64_t anchor_ordinal = 0;
  if (options_.ordinal && listener_ != nullptr) {
    BOXES_RETURN_IF_ERROR(
        AdjustPathSizes(leaf_a, slot_a, 0, &anchor_ordinal));
  }

  uint64_t removed = 0;

  if (leaf_a == leaf_b) {
    if (slot_a >= slot_b) {
      return Status::InvalidArgument(
          "root_start must precede root_end in document order");
    }
    std::vector<uint64_t> prefix;
    if (listener_ != nullptr) {
      BOXES_RETURN_IF_ERROR(PathComponents(leaf_a, &prefix));
    }
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(leaf_a));
    BBoxLeafView leaf(data, &params_);
    const uint16_t count_before = leaf.count();
    for (uint16_t i = static_cast<uint16_t>(slot_a);
         i <= static_cast<uint16_t>(slot_b); ++i) {
      BOXES_RETURN_IF_ERROR(lidf_.Free(leaf.lid(i)));
    }
    removed = static_cast<uint64_t>(slot_b - slot_a + 1);
    leaf.RemoveRange(static_cast<uint16_t>(slot_a),
                     static_cast<uint16_t>(slot_b));
    live_labels_ -= removed;
    if (options_.ordinal) {
      BOXES_RETURN_IF_ERROR(AdjustPathSizes(
          leaf_a, 0, -static_cast<int64_t>(removed), nullptr));
    }
    EmitLeafShift(prefix, static_cast<uint64_t>(slot_b) + 1,
                  count_before - 1, -static_cast<int64_t>(removed));
    if (leaf_a == root_) {
      if (leaf.count() == 0) {
        BOXES_RETURN_IF_ERROR(cache_->FreePage(root_));
        root_ = kInvalidPageId;
        height_ = 0;
      }
    } else {
      BOXES_RETURN_IF_ERROR(RepairCandidates({leaf_a}));
    }
    BOXES_RETURN_IF_ERROR(EmitTopmostInvalidation());
    if (options_.ordinal && listener_ != nullptr) {
      listener_->OnOrdinalShift(anchor_ordinal + removed,
                                -static_cast<int64_t>(removed));
    }
    return Status::OK();
  }

  // Distinct leaves: gather the two root-to-leaf paths (leaf first).
  auto path_of = [&](PageId leaf) -> StatusOr<std::vector<PageId>> {
    std::vector<PageId> path{leaf};
    PageId cur = leaf;
    for (;;) {
      BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPage(cur));
      const PageId parent = BBoxNodeHeader(data).parent();
      if (parent == kInvalidPageId) {
        break;
      }
      path.push_back(parent);
      cur = parent;
    }
    return path;
  };
  BOXES_ASSIGN_OR_RETURN(const std::vector<PageId> path_a, path_of(leaf_a));
  BOXES_ASSIGN_OR_RETURN(const std::vector<PageId> path_b, path_of(leaf_b));
  BOXES_CHECK(path_a.size() == path_b.size());
  size_t lca_level = 0;
  while (lca_level < path_a.size() &&
         path_a[lca_level] != path_b[lca_level]) {
    ++lca_level;
  }
  BOXES_CHECK(lca_level > 0 && lca_level < path_a.size());
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                           cache_->GetPage(path_a[lca_level]));
    BBoxInternalView lca(data, &params_);
    const int ia = lca.FindChild(path_a[lca_level - 1]);
    const int ib = lca.FindChild(path_b[lca_level - 1]);
    BOXES_CHECK(ia >= 0 && ib >= 0);
    if (ia >= ib) {
      return Status::InvalidArgument(
          "root_start must precede root_end in document order");
    }
  }

  // 1. Suffix of leaf_a and prefix of leaf_b.
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(leaf_a));
    BBoxLeafView leaf(data, &params_);
    for (uint16_t i = static_cast<uint16_t>(slot_a); i < leaf.count(); ++i) {
      BOXES_RETURN_IF_ERROR(lidf_.Free(leaf.lid(i)));
    }
    removed += leaf.count() - slot_a;
    if (static_cast<uint16_t>(slot_a) < leaf.count()) {
      leaf.RemoveRange(static_cast<uint16_t>(slot_a), leaf.count() - 1);
    }
  }
  {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data, cache_->GetPageForWrite(leaf_b));
    BBoxLeafView leaf(data, &params_);
    for (uint16_t i = 0; i <= static_cast<uint16_t>(slot_b); ++i) {
      BOXES_RETURN_IF_ERROR(lidf_.Free(leaf.lid(i)));
    }
    removed += slot_b + 1;
    leaf.RemoveRange(0, static_cast<uint16_t>(slot_b));
  }

  // 2. Fully covered siblings along both paths below the LCA, and the
  //    children strictly between the boundary children at the LCA.
  for (size_t level = 1; level <= lca_level; ++level) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                           cache_->GetPageForWrite(path_a[level]));
    BBoxInternalView node(data, &params_);
    if (level < lca_level) {
      const int index = node.FindChild(path_a[level - 1]);
      BOXES_CHECK(index >= 0);
      const uint16_t first = static_cast<uint16_t>(index + 1);
      if (first < node.count()) {
        for (uint16_t i = first; i < node.count(); ++i) {
          BOXES_RETURN_IF_ERROR(
              FreeSubtree(node.child(i), /*free_lids=*/true, &removed));
        }
        node.RemoveRange(first, node.count() - 1);
      }
    } else {
      const int ia = node.FindChild(path_a[level - 1]);
      const int ib = node.FindChild(path_b[level - 1]);
      BOXES_CHECK(ia >= 0 && ib > ia);
      if (ib - ia > 1) {
        for (int i = ia + 1; i < ib; ++i) {
          BOXES_RETURN_IF_ERROR(FreeSubtree(node.child(
                                    static_cast<uint16_t>(i)),
                                /*free_lids=*/true, &removed));
        }
        node.RemoveRange(static_cast<uint16_t>(ia + 1),
                         static_cast<uint16_t>(ib - 1));
      }
    }
  }
  for (size_t level = 1; level < lca_level; ++level) {
    BOXES_ASSIGN_OR_RETURN(uint8_t* data,
                           cache_->GetPageForWrite(path_b[level]));
    BBoxInternalView node(data, &params_);
    const int index = node.FindChild(path_b[level - 1]);
    BOXES_CHECK(index >= 0);
    if (index > 0) {
      for (uint16_t i = 0; i < static_cast<uint16_t>(index); ++i) {
        BOXES_RETURN_IF_ERROR(
            FreeSubtree(node.child(i), /*free_lids=*/true, &removed));
      }
      node.RemoveRange(0, static_cast<uint16_t>(index - 1));
    }
  }

  live_labels_ -= removed;
  BOXES_RETURN_IF_ERROR(RecomputeSizesUpward(leaf_a));
  BOXES_RETURN_IF_ERROR(RecomputeSizesUpward(leaf_b));

  // 3. Repair along both boundary paths, bottom-up.
  std::vector<PageId> candidates;
  for (size_t level = 0; level < path_a.size(); ++level) {
    candidates.push_back(path_a[level]);
    if (level < lca_level) {
      candidates.push_back(path_b[level]);
    }
  }
  BOXES_RETURN_IF_ERROR(RepairCandidates(candidates));

  op_reorg_.any = true;
  op_reorg_.whole_tree = true;
  BOXES_RETURN_IF_ERROR(EmitTopmostInvalidation());
  if (options_.ordinal && listener_ != nullptr) {
    // The ordinals past the removed ones close the gap, as a single
    // delete's do.
    listener_->OnOrdinalShift(anchor_ordinal + removed,
                              -static_cast<int64_t>(removed));
  }
  return Status::OK();
}

}  // namespace boxes
