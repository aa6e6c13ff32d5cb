#ifndef BOXES_CORE_WBOX_WBOX_H_
#define BOXES_CORE_WBOX_WBOX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/common/labeling_scheme.h"
#include "core/wbox/wbox_node.h"
#include "lidf/lidf.h"
#include "storage/page_cache.h"
#include "util/status.h"

namespace boxes {

/// Configuration of a W-BOX instance.
struct WBoxOptions {
  /// W-BOX-O (paper §4, "Further optimization for start/end pairs"): leaf
  /// records carry a pointer to the partner record's block, and start
  /// records cache the end label's value, so LookupElement costs 2 I/Os.
  bool pair_mode = false;

  /// Maintain size fields for ordinal labeling support (paper §4,
  /// "Ordinal labeling support"). Raises amortized delete cost to
  /// O(log_B N).
  bool maintain_ordinal = false;

  /// Fraction of leaf capacity filled by bulk loading / rebuilding.
  double bulk_fill_fraction = 0.75;

  /// Global rebuilding triggers when tombstones reach this fraction of
  /// live records (paper: rebuild after N/2 deletions) and at least
  /// `min_rebuild_records` records exist.
  double rebuild_tombstone_ratio = 1.0;
  uint64_t min_rebuild_records = 64;
};

/// W-BOX: Weight-balanced B-tree for Ordering XML (paper §4).
///
/// Stores one record per label in a weight-balanced B-tree whose implicit
/// search keys are label values. Each node owns a range of label values,
/// divided into b equal subranges for its children; a leaf's records take
/// consecutive values from the leaf's range (within-leaf ordinality), so a
/// record's label is `leaf.range_lo + slot`. Relabeling happens only when
/// tree-balancing splits force it and is confined to the split node's
/// parent's range.
///
/// Costs: lookup 1 I/O (+1 for the LIDF), insert O(log_B N) amortized,
/// delete O(1) amortized via tombstones + global rebuilding.
class WBox : public LabelingScheme {
 public:
  /// The W-BOX allocates its pages and its LIDF from `cache`.
  explicit WBox(PageCache* cache, WBoxOptions options = {});
  ~WBox() override;

  WBox(const WBox&) = delete;
  WBox& operator=(const WBox&) = delete;

  std::string name() const override {
    return options_.pair_mode ? "W-BOX-O" : "W-BOX";
  }

  StatusOr<Label> Lookup(Lid lid) override;
  StatusOr<ElementLabels> LookupElement(Lid start_lid, Lid end_lid) override;
  StatusOr<NewElement> InsertElementBefore(Lid lid) override;
  StatusOr<NewElement> InsertFirstElement() override;
  Status Delete(Lid lid) override;
  Status BulkLoad(const xml::Document& doc,
                  std::vector<NewElement>* lids_out) override;
  Status InsertSubtreeBefore(Lid before, const xml::Document& subtree,
                             std::vector<NewElement>* lids_out) override;
  Status DeleteSubtree(Lid root_start, Lid root_end) override;
  /// Batch application with the global-rebuild check deferred to the end
  /// of the batch: a delete-heavy batch checks the tombstone ratio once
  /// instead of per delete, so at most one rebuild serves the whole batch.
  Status ApplyBatch(std::vector<BatchOp>* ops, BatchStats* stats) override;
  /// Ops anchored in the same leaf block sort together, so a batch
  /// revisits each dirtied block once instead of bouncing across the tree.
  uint64_t BatchLocalityKey(const BatchOp& op) override;
  bool SupportsOrdinal() const override { return options_.maintain_ordinal; }
  StatusOr<uint64_t> OrdinalLookup(Lid lid) override;
  StatusOr<SchemeStats> GetStats() override;
  Status CheckInvariants() override;

  /// Persists all in-memory metadata (root, counters, LIDF state) into a
  /// metadata chain and returns its head page. Nothing is flushed or
  /// synced here; pass the head to CommitCheckpoint, whose commit protocol
  /// makes the chain (and all dirty data pages) durable exactly once.
  StatusOr<PageId> Checkpoint() override;

  /// Restores a checkpoint into this freshly constructed instance; the
  /// options and page size must match the checkpointed ones.
  Status Restore(PageId checkpoint_head) override;

  const WBoxParams& params() const { return params_; }
  const WBoxOptions& options() const { return options_; }
  Lidf* lidf() override { return &lidf_; }
  /// Height in levels (single leaf = 1); 0 when empty.
  uint32_t height() const { return height_; }
  uint64_t live_labels() const { return live_labels_; }
  uint64_t tombstones() const { return tombstones_; }
  /// Number of global rebuilds performed so far (for tests/benches).
  uint64_t rebuild_count() const { return rebuild_count_; }
  /// Number of node splits performed so far (for tests/benches).
  uint64_t split_count() const { return split_count_; }

 private:
  /// One step of a root-to-leaf descent: the internal node and the entry
  /// index taken downward.
  struct PathStep {
    PageId page = kInvalidPageId;
    int entry = -1;
  };

  /// A label record flattened out of the tree, used by bulk builds.
  struct FlatRecord {
    Lid lid = kInvalidLid;
    bool is_end = false;
  };

  /// Leaf-sequence element used when (re)building internal levels.
  struct ChildInfo {
    PageId page = kInvalidPageId;
    uint64_t weight = 0;  // records incl. tombstones below
    uint64_t live = 0;    // live records below
  };

  // --- core helpers (wbox.cc) ---

  /// Locates `lid`: its leaf page, slot, and label value.
  Status LocateLid(Lid lid, PageId* leaf_page, int* slot, uint64_t* label);

  /// Root-to-leaf descent by label. Appends one PathStep per internal node;
  /// `leaf_out` receives the leaf page.
  Status DescendPath(uint64_t label, std::vector<PathStep>* path,
                     PageId* leaf_out);

  /// Performs any preemptive splits needed so that one more record can be
  /// inserted at `label`. Sets `*split_occurred`; when true the caller must
  /// recompute the target label (relabeling may have moved it).
  Status EnsureRoomFor(uint64_t label, bool* split_occurred);

  /// Splits the child at `entry` of the internal node `parent_page`
  /// (paper §4, "Insert and delete"). The child is at `child_level`.
  Status SplitChild(PageId parent_page, int entry, uint32_t child_level);

  /// Grows the tree by one level: a new root whose single subrange-0 child
  /// is the old root.
  Status GrowRoot();

  /// Recursively assigns `new_lo` as the range start of the subtree rooted
  /// at `page` (level `level`), rewriting descendants whose ranges change
  /// and fixing pair caches.
  Status RelabelSubtree(PageId page, uint32_t level, uint64_t new_lo);

  /// Inserts the already-located record (lid `lid_new`) before slot `slot`
  /// of `leaf_page`, assuming room exists; updates LIDF and pair caches and
  /// emits log effects. Weights/sizes are NOT touched here.
  Status InsertIntoLeaf(PageId leaf_page, int slot, Lid lid_new, bool is_end);

  /// Adds `weight_delta`/`size_delta` to every entry on the path from the
  /// root to the leaf containing `label` (and to self_weights).
  Status AdjustPathCounts(uint64_t label, int64_t weight_delta,
                          int64_t size_delta);

  /// Low-level insert-before (paper §3): places a new record for `lid_new`
  /// immediately before `lid_old`'s record.
  Status InsertBefore(Lid lid_new, Lid lid_old, bool is_end);

  /// After labels of records in [first, last] of `leaf_page` changed (leaf
  /// not moved), refresh the cached end values their partners hold
  /// (pair mode only).
  Status FixPairCachesForSlots(PageId leaf_page, int first, int last);

  /// After `moved_lids` relocated to `new_block`, update their LIDF
  /// records and their partners' partner_block pointers (pair mode).
  Status FixRelocatedRecords(PageId new_block,
                             const std::vector<Lid>& moved_lids);

  /// Writes pair linkage between a start and end record (pair mode).
  Status LinkPair(Lid start_lid, Lid end_lid);

  /// Computes the ordinal of `label` by a size-summing descent.
  StatusOr<uint64_t> OrdinalOfLabel(uint64_t label);

  void EmitShift(uint64_t lo, uint64_t hi, int64_t delta);
  void EmitInvalidate(uint64_t lo, uint64_t hi);
  void EmitOrdinalShift(uint64_t from, int64_t delta);

  // --- bulk machinery (wbox_bulk.cc) ---

  /// Appends all live records under `page` to `out` in label order.
  Status CollectLiveRecords(PageId page, uint32_t level,
                            std::vector<FlatRecord>* out);

  /// Frees every page of the subtree rooted at `page`.
  Status FreeSubtree(PageId page, uint32_t level);

  /// Builds a fresh tree from `records` (already in label order), packing
  /// leaves to bulk_fill_fraction; updates LIDF pointers and pair caches.
  Status BuildFromFlat(const std::vector<FlatRecord>& records);

  /// Builds packed leaves for `records`, appending their ChildInfo to
  /// `leaves`.
  Status BuildLeaves(const std::vector<FlatRecord>& records,
                     std::vector<ChildInfo>* leaves);

  /// Builds internal levels above `children` (all at `child_level`) by
  /// weight-driven grouping until a single node remains; returns that top
  /// node and its level. Ranges are NOT assigned here.
  Status BuildInternalLevels(std::vector<ChildInfo> children,
                             uint32_t child_level, ChildInfo* top,
                             uint32_t* top_level);

  /// Top-down pass assigning `lo` as the range start of the subtree rooted
  /// at `page` and (re)spacing subranges equally at every internal node.
  /// With `fix_pairs`, refreshes the cached end values of relabeled
  /// records' partners.
  Status AssignRanges(PageId page, uint32_t level, uint64_t lo,
                      bool fix_pairs);

  /// Builds internal levels above `children` so that exactly one node at
  /// `target_level` results (inserting grouping levels as needed; requires
  /// feasible weights). Assigns `range_lo` and relabels throughout.
  Status BuildSubtreeAtLevel(std::vector<ChildInfo> children,
                             uint32_t child_level, uint32_t target_level,
                             uint64_t range_lo, ChildInfo* top);

  /// Rebuilds the whole structure from live records (global rebuilding).
  Status GlobalRebuild();

  Status MaybeGlobalRebuild();

  /// Allocates LIDs for every element of `doc` and flattens its tags into
  /// label order.
  Status FlattenDocument(const xml::Document& doc,
                         std::vector<FlatRecord>* records,
                         std::vector<NewElement>* lids_out);

  /// Writes pair linkage for all elements of a freshly built record
  /// sequence (balanced-parenthesis matching).
  Status LinkPairsInOrder(const std::vector<FlatRecord>& records);

  // --- subtree ops helpers (wbox_subtree.cc) ---

  /// Collects the ChildInfo sequence of all leaves under `page` in order.
  Status CollectLeaves(PageId page, uint32_t level,
                       std::vector<ChildInfo>* leaves);

  /// Frees the internal nodes of the subtree rooted at `page`, keeping its
  /// leaves alive (they are reused by subtree rebuilds).
  Status FreeInternalNodes(PageId page, uint32_t level);

  /// Removes all records with labels in [lo, hi] under `page`, freeing
  /// fully-covered subtrees and their records' LIDs. Adds removed counts.
  Status RemoveLabelRange(PageId page, uint32_t level, uint64_t lo,
                          uint64_t hi, uint64_t* removed_weight,
                          uint64_t* removed_live);

  /// Merges under-filled boundary leaves with neighbors so every leaf in
  /// `leaves` meets the minimum leaf weight (LIDF/pair fixes included).
  Status RepairLeafSequence(std::vector<ChildInfo>* leaves);

  PageCache* cache_;  // not owned
  const WBoxOptions options_;
  const WBoxParams params_;
  Lidf lidf_;

  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;  // levels; root level = height_ - 1
  uint64_t live_labels_ = 0;
  uint64_t tombstones_ = 0;
  uint64_t rebuild_count_ = 0;
  uint64_t split_count_ = 0;

  /// During multi-record relocation, maps moved LIDs to their new block so
  /// pair fix-ups see fresh locations.
  std::unordered_map<Lid, PageId> moved_in_op_;

  /// While a batch is applying, Delete records that a rebuild check is due
  /// instead of running MaybeGlobalRebuild per op; ApplyBatch settles the
  /// debt once at the end of the batch.
  bool defer_rebuild_check_ = false;
  bool rebuild_check_pending_ = false;
};

}  // namespace boxes

#endif  // BOXES_CORE_WBOX_WBOX_H_
