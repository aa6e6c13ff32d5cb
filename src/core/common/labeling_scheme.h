#ifndef BOXES_CORE_COMMON_LABELING_SCHEME_H_
#define BOXES_CORE_COMMON_LABELING_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/common/epoch_guard.h"
#include "core/common/label.h"
#include "core/common/read_only_labeling.h"
#include "lidf/lidf.h"
#include "util/metrics.h"
#include "util/status.h"
#include "xml/document.h"

namespace boxes {

/// LIDs assigned to a newly inserted element's start and end labels.
struct NewElement {
  Lid start = kInvalidLid;
  Lid end = kInvalidLid;
};

/// Structure statistics reported by GetStats(), used by the benchmark
/// harness (tree heights, label lengths, storage).
struct SchemeStats {
  /// Tree height in levels (leaves = 1); 0 for flat schemes (naive-k).
  uint64_t height = 0;
  /// Pages used by the index structure (excluding the LIDF).
  uint64_t index_pages = 0;
  /// Pages used by the LIDF.
  uint64_t lidf_pages = 0;
  /// Live labels currently maintained.
  uint64_t live_labels = 0;
  /// Maximum bits any current label needs under this scheme's encoding.
  uint32_t max_label_bits = 0;
};

/// Observer of label-changing effects, the hook the §6 caching + logging
/// layer attaches to a scheme. Every mutation that changes existing label
/// values reports its effect through exactly one of these callbacks.
class UpdateListener {
 public:
  virtual ~UpdateListener() = default;

  /// Labels in [lo, hi] (inclusive, lexicographic) changed by `delta`.
  /// With `last_component_only`, only the final component shifts (B-BOX
  /// leaf-local effects); otherwise the label shifts as an integer.
  virtual void OnRangeShift(const Label& lo, const Label& hi, int64_t delta,
                            bool last_component_only) = 0;

  /// Labels in [lo, hi] changed in a way not describable as a shift;
  /// cached values in the range must be discarded.
  virtual void OnInvalidateRange(const Label& lo, const Label& hi) = 0;

  /// Ordinal labels >= `from` changed by `delta` (ordinal-mode logging).
  virtual void OnOrdinalShift(uint64_t from, int64_t delta) = 0;
};

/// A label observed under a read ticket: the value plus the epoch (number
/// of committed writes) it was read at. Concurrent readers use the epoch to
/// order their observations against the writer's history.
struct VersionedLabel {
  Label label;
  uint64_t epoch = 0;
};

/// Ordinal variant of VersionedLabel.
struct VersionedOrdinal {
  uint64_t ordinal = 0;
  uint64_t epoch = 0;
};

/// One buffered mutation, queued by UpdateBuffer and applied by
/// LabelingScheme::ApplyBatch. Anchors are LIDs, which are immutable, so a
/// buffered op stays valid no matter how many relabels earlier ops in the
/// same batch trigger — the whole point of addressing the batch by LID
/// instead of by label value. Anchors must name labels that are live when
/// the batch starts; an op whose anchor is freed by an *earlier op of the
/// same batch* has unspecified behavior (the LID may have been reused).
struct BatchOp {
  enum class Kind {
    kInsertElementBefore,  // anchor = the before-lid
    kInsertFirstElement,   // no anchor (bootstrap; also a sort barrier)
    kDelete,               // anchor = the lid to delete
    kInsertSubtreeBefore,  // anchor = the before-lid, subtree = the document
    kDeleteSubtree,        // anchor = root start lid, anchor_end = root end
  };

  Kind kind = Kind::kInsertElementBefore;
  Lid anchor = kInvalidLid;
  Lid anchor_end = kInvalidLid;
  /// Not owned; must outlive the batch (kInsertSubtreeBefore only).
  const xml::Document* subtree = nullptr;
  /// Optional output for kInsertSubtreeBefore (per-element LIDs, indexed by
  /// ElementId); not owned, must outlive the batch.
  std::vector<NewElement>* subtree_lids = nullptr;

  /// Opaque caller cookie. ApplyBatch never reads it, but UpdateBuffer's
  /// locality sort moves it with the op, so callers that correlate ops with
  /// out-of-band state (the UpdateBuffer's result tickets) must read it
  /// back from the post-sort op rather than rely on enqueue positions.
  uint64_t user_tag = 0;

  /// Filled by ApplyBatch for the insert kinds.
  NewElement result;
};

/// Per-batch accounting filled by UpdateBuffer's locality sort and by
/// ApplyBatch.
struct BatchStats {
  /// Ops the locality sort moved away from their enqueue position.
  uint64_t reordered = 0;
  /// Scheme-specific: relabel passes that would have fired op-by-op but
  /// were merged into one preemptive pass (naive-k's RelabelAll).
  uint64_t coalesced_relabels = 0;
};

/// Common interface of all dynamic order-based labeling schemes (W-BOX,
/// B-BOX, naive-k): maintains one label per tag of a dynamic XML document,
/// addressed by immutable LIDs (paper §3, "Supported operations").
///
/// Concurrency (DESIGN.md §4g): every scheme carries an EpochGuard. Mutating
/// operations (insert/delete/relabel/bulk load) must run under
/// EpochWriteLock(&scheme->epoch_guard()) — one writer at a time. The
/// read-only paths (Lookup, OrdinalLookup, Compare, and lookups routed
/// through CachingLabelStore) may then run from any number of reader
/// threads under EpochReadLock; LookupShared/OrdinalLookupShared package
/// that pattern. Single-threaded callers may ignore the guard entirely —
/// the plain virtuals are unsynchronized, exactly as before.
/// The read-only half of the interface (name/Lookup/LookupElement/Compare/
/// OrdinalLookup) lives in ReadOnlyLabeling, shared with static label
/// stores such as the snapshot tier's SnapshotReader.
class LabelingScheme : public ReadOnlyLabeling {
 public:
  /// Inserts a new element so that it immediately precedes the tag whose
  /// label is identified by `lid`; returns the new element's LIDs.
  /// If `lid` names an element's start label the new element becomes its
  /// previous sibling; if it names an end label the new element becomes
  /// that element's last child.
  virtual StatusOr<NewElement> InsertElementBefore(Lid lid) = 0;

  /// Inserts the first element into an empty structure (there is no
  /// existing tag to insert before). Returns its LIDs.
  virtual StatusOr<NewElement> InsertFirstElement();

  /// Removes the label identified by `lid` and frees the LID. Removing an
  /// element means calling this for both of its labels.
  virtual Status Delete(Lid lid) = 0;

  /// Loads `doc` into an empty scheme. `lids_out`, if non-null, receives
  /// one entry per element, indexed by ElementId.
  virtual Status BulkLoad(const xml::Document& doc,
                          std::vector<NewElement>* lids_out) = 0;

  /// Inserts an entire subtree (the whole document `subtree`) immediately
  /// before the tag identified by `before`. `lids_out` as in BulkLoad.
  /// The default implementation inserts element-at-a-time; W-BOX and B-BOX
  /// override it with their bulk algorithms.
  virtual Status InsertSubtreeBefore(Lid before, const xml::Document& subtree,
                                     std::vector<NewElement>* lids_out);

  /// Deletes an element and its entire subtree, identified by the
  /// element's start and end label LIDs (every label between them is
  /// removed and its LID freed). The default works on any scheme that
  /// exposes its LIDF: it snapshots the victim set *by LID* before the
  /// first deletion (labels may shift mid-loop; LIDs cannot), then deletes
  /// label-at-a-time. Schemes without a LIDF get Unimplemented; W-BOX and
  /// B-BOX override this with their bulk algorithms.
  virtual Status DeleteSubtree(Lid root_start, Lid root_end);

  /// Applies a whole batch of buffered mutations op-at-a-time through the
  /// virtuals above, exactly in the given order. The order is decided once,
  /// by UpdateBuffer (a locality sort on BatchLocalityKey), before the batch
  /// is logged; WAL recovery and standbys hand the logged order to this
  /// same function, so a replayed batch assigns the LIDs the live one
  /// acknowledged. Results land in each op's `result` / `subtree_lids`; the
  /// batch stops at the first error (ops already applied stay applied —
  /// atomicity against readers comes from the caller holding one
  /// EpochWriteLock around the whole call, and durability atomicity from
  /// the one checkpoint commit per batch). Schemes override this to add
  /// batch-wide optimizations that do not depend on op order (W-BOX defers
  /// its global-rebuild check to the end of the batch; naive-k coalesces
  /// the batch's relabel passes into one preemptive RelabelAll).
  virtual Status ApplyBatch(std::vector<BatchOp>* ops, BatchStats* stats);

  /// Locality key of one batch op for UpdateBuffer's batch sort: ops with
  /// smaller keys apply first within their run. The key must depend only on
  /// the op's anchor LID (equal anchors => equal keys), so the stable sort
  /// preserves enqueue order among same-anchor ops. The default (0) keeps
  /// the whole batch in enqueue order; W-BOX/B-BOX key by the BOX block the
  /// anchor's record lives in, naive-k by the anchor's LIDF page. A wrapper
  /// whose ApplyBatch forwards to another scheme forwards this key too.
  virtual uint64_t BatchLocalityKey(const BatchOp& op);

  /// The scheme's LIDF, or nullptr for schemes that do not maintain one.
  /// Lets generic code (the default DeleteSubtree, the batch drivers)
  /// reason about record placement without knowing the concrete scheme.
  virtual Lidf* lidf() { return nullptr; }

  /// Writes the scheme's durable metadata as a checkpoint chain and returns
  /// its head page. Builds the chain only — no sync barriers; durability is
  /// CommitCheckpoint's job (one commit per group-commit batch). Schemes
  /// without durable metadata get Unimplemented.
  virtual StatusOr<PageId> Checkpoint();

  /// Rebuilds in-memory state from a checkpoint chain written by
  /// Checkpoint() on an equivalently configured instance.
  virtual Status Restore(PageId checkpoint_head);

  virtual StatusOr<SchemeStats> GetStats() = 0;

  /// Verifies every structural invariant; used heavily by tests.
  virtual Status CheckInvariants() { return Status::OK(); }

  /// Lookup under the scheme's epoch guard: acquires a read ticket
  /// (retrying on writer conflict), performs the lookup, and returns the
  /// value stamped with the epoch it was observed at. Thread-safe against
  /// one concurrent writer holding EpochWriteLock.
  StatusOr<VersionedLabel> LookupShared(Lid lid);

  /// Ordinal variant of LookupShared. Requires SupportsOrdinal().
  StatusOr<VersionedOrdinal> OrdinalLookupShared(Lid lid);

  /// The single-writer/multi-reader gate for this scheme (see class doc).
  EpochGuard& epoch_guard() { return epoch_guard_; }

  /// Attaches (or detaches, with nullptr) the caching/logging observer.
  /// The slot holds one observer: claiming it while a different one holds
  /// it would leave that one serving stale labels, so it fails a check.
  void SetUpdateListener(UpdateListener* listener) {
    BOXES_CHECK(listener == nullptr || listener_ == nullptr ||
                listener_ == listener);
    listener_ = listener;
  }
  UpdateListener* update_listener() const { return listener_; }

  /// Attaches (or detaches, with nullptr) a metrics registry. When set, the
  /// scheme records per-operation latency samples under
  /// "<name()>.<op>.us"; when null, instrumentation is a no-op.
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  MetricsRegistry* metrics() const { return metrics_; }

 protected:
  UpdateListener* listener_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;

 private:
  EpochGuard epoch_guard_;
};

}  // namespace boxes

#endif  // BOXES_CORE_COMMON_LABELING_SCHEME_H_
