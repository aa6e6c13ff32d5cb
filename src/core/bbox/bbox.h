#ifndef BOXES_CORE_BBOX_BBOX_H_
#define BOXES_CORE_BBOX_BBOX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bbox/bbox_node.h"
#include "core/common/labeling_scheme.h"
#include "lidf/lidf.h"
#include "storage/page_cache.h"
#include "util/status.h"

namespace boxes {

/// Configuration of a B-BOX instance.
struct BBoxOptions {
  /// B-BOX-O: maintain size fields in internal entries so ordinal labels
  /// can be computed (paper §5, "Ordinal labeling support"). Halves the
  /// internal fan-out and makes every update walk to the root.
  bool ordinal = false;

  /// Minimum-fill divisor: nodes keep >= capacity/divisor entries.
  /// 2 = the standard B-tree bound (recommended for insert-mostly
  /// workloads); 4 = the relaxed bound that gives O(1) amortized updates
  /// under mixed insertions and deletions (paper §5).
  uint32_t min_fill_divisor = 2;

  /// Fraction of capacity filled by bulk loading.
  double bulk_fill_fraction = 0.75;
};

/// B-BOX: Back-linked B-tree for Ordering XML (paper §5).
///
/// A keyless B-tree over the label records. No label values are stored
/// anywhere; the label of a record is the vector of child ordinals along
/// the root-to-leaf path, reconstructed on demand by walking the
/// child-to-parent back-links. Updates therefore never relabel anything —
/// they are plain B-tree maintenance.
///
/// Costs: lookup O(log_B N) (+1 LIDF I/O), insert/delete O(1) amortized and
/// O(B log_B N) worst case.
class BBox : public LabelingScheme {
 public:
  explicit BBox(PageCache* cache, BBoxOptions options = {});
  ~BBox() override;

  BBox(const BBox&) = delete;
  BBox& operator=(const BBox&) = delete;

  std::string name() const override {
    return options_.ordinal ? "B-BOX-O" : "B-BOX";
  }

  StatusOr<Label> Lookup(Lid lid) override;
  StatusOr<NewElement> InsertElementBefore(Lid lid) override;
  StatusOr<NewElement> InsertFirstElement() override;
  Status Delete(Lid lid) override;
  Status BulkLoad(const xml::Document& doc,
                  std::vector<NewElement>* lids_out) override;
  Status InsertSubtreeBefore(Lid before, const xml::Document& subtree,
                             std::vector<NewElement>* lids_out) override;
  Status DeleteSubtree(Lid root_start, Lid root_end) override;
  /// Batch ops sort by the leaf holding the anchor's record: B-BOX never
  /// relabels, so the only batch win is block locality, and the back-link
  /// pointer in the LIDF is exactly that block.
  uint64_t BatchLocalityKey(const BatchOp& op) override;
  StatusOr<int> Compare(Lid a, Lid b) override;
  bool SupportsOrdinal() const override { return options_.ordinal; }
  StatusOr<uint64_t> OrdinalLookup(Lid lid) override;
  StatusOr<SchemeStats> GetStats() override;
  Status CheckInvariants() override;

  /// Persists all in-memory metadata into a metadata chain (see
  /// WBox::Checkpoint).
  StatusOr<PageId> Checkpoint() override;

  /// Restores a checkpoint into this freshly constructed instance.
  Status Restore(PageId checkpoint_head) override;

  const BBoxParams& params() const { return params_; }
  const BBoxOptions& options() const { return options_; }
  Lidf* lidf() override { return &lidf_; }
  /// Height in levels (single leaf = 1); 0 when empty.
  uint32_t height() const { return height_; }
  uint64_t live_labels() const { return live_labels_; }
  /// Structural reorganization counters (for benches and tests).
  uint64_t split_count() const { return split_count_; }
  uint64_t merge_count() const { return merge_count_; }

 private:
  /// A (lid -> leaf page, slot) resolution.
  Status LocateLid(Lid lid, PageId* leaf_page, int* slot);

  /// The label-component prefix contributed by the path root -> `page`
  /// (empty when `page` is the root). Walks back-links upward.
  Status PathComponents(PageId page, std::vector<uint64_t>* components);

  /// Label of the record at (leaf_page, slot).
  StatusOr<Label> LabelOfSlot(PageId leaf_page, int slot);

  /// Low-level insert-before.
  Status InsertBefore(Lid lid_new, Lid lid_old);

  /// Splits `page` (which is full), growing the root if needed. The upper
  /// half moves to a new right sibling; back-links / LIDF pointers of
  /// moved entries are updated (the paper's O(B) split cost).
  Status SplitNode(PageId page);

  /// Ensures `page` can take one more entry, splitting preemptively.
  Status EnsureRoom(PageId page);

  /// Creates a new root above the current one.
  Status GrowRoot();

  /// Walks from `leaf_page` to the root adding `delta` to the size field
  /// of each entry on the path; with `ordinal_out`, also accumulates the
  /// ordinal position of (leaf slot `slot`). Sizes are only written in
  /// ordinal mode, but the ordinal accumulation needs them, so callers
  /// must pass ordinal_out = nullptr unless options_.ordinal.
  Status AdjustPathSizes(PageId leaf_page, int slot, int64_t delta,
                         uint64_t* ordinal_out);

  /// Restores minimum-fill along the path from `page` upward after a
  /// deletion (borrow from a sibling, else merge; paper §5).
  Status RebalanceUpward(PageId page);

  /// Handles an underfull root: collapses single-child internal roots.
  /// Freed root pages are appended to `freed_out` when provided.
  Status CollapseRootIfNeeded(std::vector<PageId>* freed_out = nullptr);

  /// Merges or redistributes `left`/`right` (adjacent children of `parent`
  /// at entries `left_idx`, `left_idx`+1). Sets *merged when the right
  /// node was absorbed; `*freed_page` (optional) receives its page id.
  Status MergeOrRedistribute(PageId parent, uint16_t left_idx, bool* merged,
                             PageId* freed_page = nullptr);

  /// Updates LIDF pointers (leaf) or child back-links (internal) for the
  /// `moved` entries now living in `new_page`.
  Status FixMovedEntries(PageId new_page, bool is_leaf,
                         const std::vector<uint64_t>& moved);

  // --- bulk machinery (bbox_bulk.cc) ---

  struct FlatRecord {
    Lid lid = kInvalidLid;
  };

  struct LevelNode {
    PageId page = kInvalidPageId;
    uint64_t size = 0;  // records below
  };

  /// Allocates LIDs for `doc` and flattens its tags into label order.
  Status FlattenDocument(const xml::Document& doc,
                         std::vector<FlatRecord>* records,
                         std::vector<NewElement>* lids_out);

  /// Builds packed leaves for `records`; appends to `leaves`.
  Status BuildLeaves(const std::vector<FlatRecord>& records,
                     std::vector<LevelNode>* leaves);

  /// Builds internal levels above `nodes` (at `level`) until one node
  /// remains; sets back-links and sizes. Returns the top node and height.
  Status BuildTree(std::vector<LevelNode> nodes, uint32_t level,
                   PageId* top, uint32_t* top_height);

  /// Frees all pages of the subtree rooted at `page` and optionally frees
  /// the LIDs of the records below it.
  Status FreeSubtree(PageId page, bool free_lids, uint64_t* freed_records);

  // --- subtree ops (bbox_subtree.cc) ---

  /// Result of ripping the tree open before a record (paper §5).
  struct RipResult {
    /// The node at level `levels`-1 that starts the right half; the
    /// grafted subtree's root is inserted immediately before it in its
    /// parent.
    PageId right_top = kInvalidPageId;
    /// Every node split or created by the rip, bottom-up; repair
    /// candidates.
    std::vector<PageId> touched;
  };

  /// "Rips" the tree along the boundary immediately before
  /// (leaf_page, slot), splitting `levels` levels starting at the leaf.
  /// Requires height() > levels.
  Status RipAt(PageId leaf_page, int slot, uint32_t levels,
               RipResult* result);

  /// Restores minimum fill for each candidate page (skipping ones freed by
  /// earlier repairs), merging upward as needed, then collapses the root.
  Status RepairCandidates(const std::vector<PageId>& candidates);

  /// Recomputes the size field of every entry along the path from `page`
  /// (inclusive) to the root. Ordinal mode only.
  Status RecomputeSizesUpward(PageId page);

  void EmitLeafShift(const std::vector<uint64_t>& leaf_prefix, uint64_t from,
                     uint64_t to, int64_t delta);
  Status EmitTopmostInvalidation();
  void NoteReorganization(PageId parent, uint16_t index, uint32_t level);

  PageCache* cache_;  // not owned
  const BBoxOptions options_;
  const BBoxParams params_;
  Lidf lidf_;

  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t live_labels_ = 0;
  uint64_t split_count_ = 0;
  uint64_t merge_count_ = 0;

  /// Topmost structural reorganization in the current operation, for §6
  /// invalidation logging.
  struct Reorganization {
    bool any = false;
    bool whole_tree = false;
    PageId parent = kInvalidPageId;
    uint16_t index = 0;
    uint32_t level = 0;
  };
  Reorganization op_reorg_;
};

}  // namespace boxes

#endif  // BOXES_CORE_BBOX_BBOX_H_
