#ifndef BOXES_CORE_COMMON_UPDATE_BUFFER_H_
#define BOXES_CORE_COMMON_UPDATE_BUFFER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/common/labeling_scheme.h"
#include "util/status.h"

namespace boxes {

/// Configuration of an UpdateBuffer.
struct UpdateBufferOptions {
  /// Flush automatically once this many ops are pending. 1 degenerates to
  /// unbuffered operation (one epoch + one commit per op), which is what
  /// the batched-vs-unbatched differential tests exploit.
  size_t flush_threshold = 64;

  /// When false, only explicit Flush() calls apply the buffer (the caller
  /// owns the batching policy entirely).
  bool auto_flush = true;
};

/// The write-side group-commit pipeline (ROADMAP item 1; the buffered
/// updates of Ke Yi's dynamic-indexability line of work, adapted to
/// order-maintenance): absorbs insert/delete/subtree requests, and on
/// Flush() applies them as ONE batch —
///
///   * one EpochGuard write epoch for the whole batch, so concurrent
///     readers observe either the pre-batch or the post-batch state and
///     never a half-applied one;
///   * one locality sort on the scheme's BatchLocalityKey, so ops revisit
///     hot blocks together — the only place a batch's order is decided —
///     then one ApplyBatch call in exactly that order, letting schemes
///     coalesce relabel passes;
///   * one group-commit hook invocation — typically Checkpoint +
///     CommitCheckpoint — so the fdatasync cost of durability is paid once
///     per batch instead of once per op.
///
/// Enqueue methods return a Ticket; the op's assigned LIDs become readable
/// through Result(ticket) once its batch has flushed. Anchors must be LIDs
/// live at enqueue time that no earlier op of the same pending batch
/// deletes (the ApplyBatch contract).
///
/// Threading: the buffer is a single-writer object — enqueue and Flush
/// from one thread. Readers of the underlying scheme stay safe because the
/// batch applies under the scheme's EpochWriteLock.
class UpdateBuffer {
 public:
  using Ticket = uint64_t;

  /// Runs *before* the batch applies, with the batch already in its final
  /// apply order (the locality sort happens first, and ApplyBatch never
  /// reorders, so the hook logs the exact order that is applied and that
  /// recovery will replay). This is the ack ⇒ durable point:
  /// append the batch to the op log and pay its one fdatasync here. On
  /// error the flush aborts with the pending set intact — nothing was
  /// applied, nothing was acknowledged, and the caller may retry Flush()
  /// once the fault clears.
  using DurabilityHook = std::function<Status(const std::vector<BatchOp>&)>;

  /// Runs inside the batch's write epoch, after every op applied. This is
  /// the group-commit point: make the batch durable here (one checkpoint
  /// commit) so readers can never observe committed-but-volatile state.
  using CommitHook = std::function<Status()>;

  /// Runs inside the batch's write epoch, after the commit hook, with the
  /// epoch number the batch is about to commit as. Concurrency tests use
  /// this to record oracle states while new readers are still locked out.
  using PostApplyHook = std::function<Status(uint64_t epoch)>;

  explicit UpdateBuffer(LabelingScheme* scheme,
                        UpdateBufferOptions options = {});

  /// Destroying a buffer that still holds unflushed ops silently loses
  /// work the caller enqueued (but was never promised durability for —
  /// only flushed ops are acknowledged). It is almost always a bug, so it
  /// fails loudly: abort in debug builds; in release builds, log to stderr
  /// and count the loss under "buffer.dropped_ops". A caller abandoning
  /// the work deliberately (the device is gone and Flush will never
  /// succeed) calls DiscardPending() first.
  ~UpdateBuffer();

  UpdateBuffer(const UpdateBuffer&) = delete;
  UpdateBuffer& operator=(const UpdateBuffer&) = delete;

  void SetDurabilityHook(DurabilityHook hook) {
    durability_hook_ = std::move(hook);
  }
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void SetPostApplyHook(PostApplyHook hook) {
    post_apply_hook_ = std::move(hook);
  }

  /// Buffered counterparts of the LabelingScheme mutations. Each may
  /// trigger an auto-flush (including of the op just enqueued).
  StatusOr<Ticket> InsertElementBefore(Lid before);
  StatusOr<Ticket> InsertFirstElement();
  StatusOr<Ticket> Delete(Lid lid);
  /// `subtree` (and `lids_out`, if given) must stay valid until the batch
  /// flushes.
  StatusOr<Ticket> InsertSubtreeBefore(Lid before,
                                       const xml::Document* subtree,
                                       std::vector<NewElement>* lids_out);
  StatusOr<Ticket> DeleteSubtree(Lid root_start, Lid root_end);

  /// Applies all pending ops as one batch (see class comment). No-op when
  /// nothing is pending. On error the in-memory structure may hold a
  /// prefix of the batch, but nothing was group-committed: recovery
  /// reopens at the previous checkpoint (the all-or-nothing contract the
  /// batch crash sweep asserts).
  Status Flush();

  /// LIDs assigned to the insert op behind `ticket`. FailedPrecondition
  /// until its batch has flushed.
  StatusOr<NewElement> Result(Ticket ticket) const;

  /// Abandons every pending op — the explicit escape hatch for a device
  /// that will never come back: after a persistent durability-hook
  /// failure, Flush leaves the set intact for retry, and destroying the
  /// buffer with it non-empty fails loudly (see the destructor). Calling
  /// this acknowledges the loss instead: the ops are counted under
  /// "buffer.dropped_ops", logged, and dropped; their tickets thereafter
  /// resolve to empty NewElements (kInvalidLid — they were never applied).
  /// Returns the number of ops discarded.
  size_t DiscardPending();

  size_t pending() const { return pending_.size(); }
  uint64_t batches_flushed() const { return batches_flushed_; }
  uint64_t ops_flushed() const { return ops_flushed_; }
  const UpdateBufferOptions& options() const { return options_; }

 private:
  StatusOr<Ticket> Enqueue(BatchOp op);
  Status MaybeAutoFlush();

  LabelingScheme* scheme_;  // not owned
  const UpdateBufferOptions options_;
  DurabilityHook durability_hook_;
  CommitHook commit_hook_;
  PostApplyHook post_apply_hook_;

  std::vector<BatchOp> pending_;
  std::vector<Ticket> pending_tickets_;
  /// Results of flushed insert ops, indexed by ticket. kInvalidLid slots
  /// mark unflushed or non-insert tickets.
  std::vector<NewElement> results_;
  uint64_t batches_flushed_ = 0;
  uint64_t ops_flushed_ = 0;
};

}  // namespace boxes

#endif  // BOXES_CORE_COMMON_UPDATE_BUFFER_H_
