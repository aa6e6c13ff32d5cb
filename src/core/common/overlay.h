#ifndef BOXES_CORE_COMMON_OVERLAY_H_
#define BOXES_CORE_COMMON_OVERLAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/cachelog/repair_map.h"
#include "core/common/labeling_scheme.h"
#include "storage/snapshot.h"

namespace boxes {

struct OverlayOptions {
  /// Where Recompile() publishes images (temp file + atomic rename live in
  /// the same directory).
  std::string snapshot_path;
  /// Repair window: how many label-changing effects since the served
  /// image's cut its repair map folds in before the base goes stale
  /// wholesale (every serve falls back to the authority until the next
  /// compile), as the paper's §6 log window does.
  size_t log_capacity = 8192;
  /// Crash-injection hook forwarded to the SnapshotWriter publish path
  /// (see SnapshotWriterOptions::fail_after_file_ops); counts file ops
  /// per Recompile() call.
  uint64_t recompile_fail_after_file_ops = UINT64_MAX;
  /// Publish write granularity, forwarded to SnapshotWriterOptions
  /// (the crash sweep shrinks it to multiply injection points).
  size_t recompile_write_chunk_bytes = 64 * 1024;
};

/// Serve-path accounting: where each lookup was answered from.
struct OverlayServeStats {
  uint64_t lookups = 0;
  /// Served from the mmap image, no effect since the cut — the zero-I/O
  /// path.
  uint64_t served_base = 0;
  /// Served from the image after the repair map carried the frozen label
  /// to the present — still zero PageCache traffic.
  uint64_t served_repaired = 0;
  /// Routed to the live authority because the LID was touched since the
  /// compile (delta map hit: insert or tombstone) or absent from the image.
  uint64_t served_overlay = 0;
  /// Image entry found but unrepairable (invalidated or overtaken range,
  /// repair window overflow): answered by the authority.
  uint64_t served_fallback = 0;
  uint64_t recompiles = 0;
  uint64_t swap_failures = 0;
};

/// The LSM-shaped serving split (DESIGN.md §4l): a frozen mmap-able
/// snapshot image plus the live authority scheme holding everything that
/// changed since the compile.
///
/// OverlayedScheme is itself a LabelingScheme wrapping the (borrowed)
/// authority. All mutations forward to the authority; each records the
/// touched LIDs in a delta map (inserts route future lookups to the live
/// scheme; deletes become tombstones so a dead LID can never be served
/// from the frozen image). The authority's UpdateListener events — the §6
/// cachelog effects — fold into a RepairMap pinned at the image's cut, the
/// map from labels at the cut to labels now, so a lookup that misses the
/// delta map serves the frozen label carried to the present by one binary
/// search; labels in invalidated ranges fall back to the authority.
///
/// Concurrency follows DESIGN.md §4g unchanged, against THIS scheme's
/// EpochGuard: mutations and Recompile()'s swap run under EpochWriteLock,
/// lookups under EpochReadLock (LookupShared does this for callers). The
/// authority's own guard goes unused.
class OverlayedScheme : public LabelingScheme, private UpdateListener {
 public:
  /// `authority` is borrowed and must outlive this instance; its update
  /// listener slot is claimed for the overlay's repair maps.
  OverlayedScheme(LabelingScheme* authority, OverlayOptions options);
  ~OverlayedScheme() override;

  // ReadOnlyLabeling:
  std::string name() const override;
  StatusOr<Label> Lookup(Lid lid) override;
  bool SupportsOrdinal() const override;
  StatusOr<uint64_t> OrdinalLookup(Lid lid) override;

  // LabelingScheme (mutations forward to the authority + delta tracking):
  StatusOr<NewElement> InsertElementBefore(Lid lid) override;
  StatusOr<NewElement> InsertFirstElement() override;
  Status Delete(Lid lid) override;
  Status BulkLoad(const xml::Document& doc,
                  std::vector<NewElement>* lids_out) override;
  Status InsertSubtreeBefore(Lid before, const xml::Document& subtree,
                             std::vector<NewElement>* lids_out) override;
  Status DeleteSubtree(Lid root_start, Lid root_end) override;
  Status ApplyBatch(std::vector<BatchOp>* ops, BatchStats* stats) override;
  /// The authority applies the ops, so the batch sorts on its key.
  uint64_t BatchLocalityKey(const BatchOp& op) override {
    return authority_->BatchLocalityKey(op);
  }
  Lidf* lidf() override { return authority_->lidf(); }
  StatusOr<PageId> Checkpoint() override { return authority_->Checkpoint(); }
  Status Restore(PageId checkpoint_head) override;
  StatusOr<SchemeStats> GetStats() override { return authority_->GetStats(); }
  Status CheckInvariants() override { return authority_->CheckInvariants(); }

  /// Compiles the authority's current state into a fresh image, publishes
  /// it durably (temp file, fsync, atomic rename, directory fsync), and
  /// swaps the served reader under an EpochWriteLock. Three phases:
  ///
  ///   A. under a read ticket: record the delta clock, extract every live
  ///      (lid, label[, ordinal]) — a consistent cut — and pin a fresh
  ///      repair map there;
  ///   B. no locks: serialize, write `<path>.tmp`, fsync, rename, fsync
  ///      the directory, then mmap + validate the published image;
  ///   C. under the write lock: swap the reader and its repair map in and
  ///      prune delta-map entries recorded at or before the cut.
  ///
  /// Mutations between A and C feed both repair maps, and they stay in the
  /// delta map (their delta clock exceeds the cut), so they keep routing to
  /// the authority until the *next* compile folds them in. Calls run one at
  /// a time. A Restore() between A and C voids the compile (it returns
  /// kFailedPrecondition and serves nothing). Must not be called while the
  /// calling thread holds this scheme's read or write lock.
  Status Recompile();

  /// Current serve-path mix. Thread-safe.
  OverlayServeStats serve_stats() const;

  /// Copies serve counters + image gauges into the attached metrics
  /// registry under "snapshot.*" (no-op without SetMetrics).
  void PublishMetrics();

  /// The currently served image, or nullptr before the first Recompile().
  /// Stable only while the caller holds a read ticket.
  const SnapshotReader* reader() const { return reader_.get(); }

  /// LIDs touched since the served compile (routing to the authority).
  size_t delta_size() const { return delta_.size(); }

  LabelingScheme* authority() { return authority_; }

 private:
  // UpdateListener (events emitted by the authority during mutations we
  // forwarded, i.e. under the caller's write lock):
  void OnRangeShift(const Label& lo, const Label& hi, int64_t delta,
                    bool last_component_only) override;
  void OnInvalidateRange(const Label& lo, const Label& hi) override;
  void OnOrdinalShift(uint64_t from, int64_t delta) override;

  /// Records one touched LID at the next delta-clock tick.
  void RecordDelta(Lid lid);
  void RecordDelta(const NewElement& lids);
  /// Declares the delta set unknown (bulk/subtree deletion paths that free
  /// an unenumerated LID set): every lookup routes to the authority until
  /// a compile at or after this point.
  void MarkUnbounded();

  LabelingScheme* const authority_;  // borrowed
  const OverlayOptions options_;

  std::unique_ptr<SnapshotReader> reader_;
  /// Repairs the served image's labels to the present; set iff reader_ is.
  std::unique_ptr<RepairMap> repair_;
  /// Pinned at the cut of the compile in flight; becomes repair_ in its
  /// phase C. Written under a read ticket (phase A, where no mutation can
  /// run) or the write lock.
  std::unique_ptr<RepairMap> next_repair_;
  std::mutex recompile_mu_;
  /// Monotonic mutation counter; orders delta records against compile cuts
  /// even when a mutation emits no repair effect (tombstone deletes).
  uint64_t delta_clock_ = 0;
  /// LID -> delta clock when last touched since the served compile.
  std::unordered_map<Lid, uint64_t> delta_;
  bool unbounded_ = false;
  uint64_t unbounded_clock_ = 0;

  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> served_base_{0};
  std::atomic<uint64_t> served_repaired_{0};
  std::atomic<uint64_t> served_overlay_{0};
  std::atomic<uint64_t> served_fallback_{0};
  std::atomic<uint64_t> recompiles_{0};
  std::atomic<uint64_t> swap_failures_{0};
};

}  // namespace boxes

#endif  // BOXES_CORE_COMMON_OVERLAY_H_
