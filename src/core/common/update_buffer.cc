#include "core/common/update_buffer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "core/common/epoch_guard.h"
#include "util/metrics.h"

namespace boxes {

namespace {

/// Subtree ops touch label *ranges* (containment the per-LID key cannot
/// express), and bootstrap inserts must stay first; none of them may move
/// relative to surrounding ops.
bool IsBatchBarrier(const BatchOp& op) {
  return op.kind == BatchOp::Kind::kInsertSubtreeBefore ||
         op.kind == BatchOp::Kind::kDeleteSubtree ||
         op.kind == BatchOp::Kind::kInsertFirstElement;
}

/// Stable-sorts each barrier-free run of `ops` on `scheme`'s
/// BatchLocalityKey; barriers never move.
void SortBatchByLocality(LabelingScheme* scheme, std::vector<BatchOp>* ops,
                         BatchStats* stats) {
  // Keys are computed once, up front, against one consistent pre-batch
  // state: the key is a pure function of the anchor LID, so two ops on the
  // same anchor always get equal keys and the stable sort keeps their
  // enqueue order — the property that makes reordering semantics-free, and
  // batched and unbatched application of one history converge.
  std::vector<uint64_t> keys(ops->size(), 0);
  for (size_t i = 0; i < ops->size(); ++i) {
    const BatchOp& op = (*ops)[i];
    if (!IsBatchBarrier(op)) {
      keys[i] = scheme->BatchLocalityKey(op);
    }
  }
  size_t run_start = 0;
  std::vector<size_t> order;
  for (size_t i = 0; i <= ops->size(); ++i) {
    if (i < ops->size() && !IsBatchBarrier((*ops)[i])) {
      continue;
    }
    // Sort the barrier-free run [run_start, i).
    if (i > run_start + 1) {
      order.resize(i - run_start);
      std::iota(order.begin(), order.end(), run_start);
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) { return keys[a] < keys[b]; });
      std::vector<BatchOp> sorted;
      sorted.reserve(order.size());
      for (size_t j = 0; j < order.size(); ++j) {
        if (order[j] != run_start + j) {
          ++stats->reordered;
        }
        sorted.push_back(std::move((*ops)[order[j]]));
      }
      std::move(sorted.begin(), sorted.end(), ops->begin() + run_start);
    }
    run_start = i + 1;
  }
}

}  // namespace

UpdateBuffer::UpdateBuffer(LabelingScheme* scheme,
                           UpdateBufferOptions options)
    : scheme_(scheme), options_(options) {}

UpdateBuffer::~UpdateBuffer() {
  if (pending_.empty()) {
    return;
  }
  std::fprintf(stderr,
               "UpdateBuffer destroyed with %zu buffered unflushed op(s); "
               "they were never applied or made durable\n",
               pending_.size());
#ifndef NDEBUG
  std::abort();
#else
  MetricsRegistry* metrics =
      scheme_ != nullptr ? scheme_->metrics() : nullptr;
  if (metrics != nullptr) {
    metrics->IncrementCounter("buffer.dropped_ops", pending_.size());
  }
#endif
}

StatusOr<UpdateBuffer::Ticket> UpdateBuffer::Enqueue(BatchOp op) {
  const Ticket ticket = results_.size();
  results_.push_back(NewElement{});
  // The ticket rides inside the op: Flush's locality sort permutes the
  // batch, so positions in pending_ mean nothing after Flush — only the
  // user_tag read back from each post-sort op pairs results with tickets.
  op.user_tag = ticket;
  pending_.push_back(op);
  pending_tickets_.push_back(ticket);
  BOXES_RETURN_IF_ERROR(MaybeAutoFlush());
  return ticket;
}

Status UpdateBuffer::MaybeAutoFlush() {
  if (options_.auto_flush && pending_.size() >= options_.flush_threshold) {
    return Flush();
  }
  return Status::OK();
}

StatusOr<UpdateBuffer::Ticket> UpdateBuffer::InsertElementBefore(Lid before) {
  BatchOp op;
  op.kind = BatchOp::Kind::kInsertElementBefore;
  op.anchor = before;
  return Enqueue(op);
}

StatusOr<UpdateBuffer::Ticket> UpdateBuffer::InsertFirstElement() {
  BatchOp op;
  op.kind = BatchOp::Kind::kInsertFirstElement;
  return Enqueue(op);
}

StatusOr<UpdateBuffer::Ticket> UpdateBuffer::Delete(Lid lid) {
  BatchOp op;
  op.kind = BatchOp::Kind::kDelete;
  op.anchor = lid;
  return Enqueue(op);
}

StatusOr<UpdateBuffer::Ticket> UpdateBuffer::InsertSubtreeBefore(
    Lid before, const xml::Document* subtree,
    std::vector<NewElement>* lids_out) {
  if (subtree == nullptr) {
    return Status::InvalidArgument("InsertSubtreeBefore needs a document");
  }
  BatchOp op;
  op.kind = BatchOp::Kind::kInsertSubtreeBefore;
  op.anchor = before;
  op.subtree = subtree;
  op.subtree_lids = lids_out;
  return Enqueue(op);
}

StatusOr<UpdateBuffer::Ticket> UpdateBuffer::DeleteSubtree(Lid root_start,
                                                           Lid root_end) {
  BatchOp op;
  op.kind = BatchOp::Kind::kDeleteSubtree;
  op.anchor = root_start;
  op.anchor_end = root_end;
  return Enqueue(op);
}

Status UpdateBuffer::Flush() {
  if (pending_.empty()) {
    return Status::OK();
  }
  const uint64_t batch_size = pending_.size();
  MetricsRegistry* metrics = scheme_->metrics();
  const uint64_t syncs_before =
      metrics != nullptr ? metrics->CounterValue("file_store.sync_calls") : 0;
  // The apply order is decided here, once: ApplyBatch applies ops exactly
  // as given, so the order logged below is the order applied, and the
  // order recovery and standbys replay.
  BatchStats stats;
  SortBatchByLocality(scheme_, &pending_, &stats);
  if (durability_hook_) {
    // Only after the log is durable may the batch touch the structure —
    // that is what turns "Flush returned OK" into "these ops survive any
    // crash". On error everything stays pending and unacknowledged; Flush
    // may be retried once the fault clears (replay dedupes by batch id, so
    // a batch logged twice by such a retry applies once).
    BOXES_RETURN_IF_ERROR(durability_hook_(pending_));
  }
  Status status;
  {
    // The whole batch — application AND the group commit — is one write
    // epoch: readers admitted before see none of it, readers admitted
    // after see all of it, and nothing in between is ever observable.
    EpochWriteLock lock(&scheme_->epoch_guard());
    status = scheme_->ApplyBatch(&pending_, &stats);
    if (status.ok()) {
      // Publish results and retire the pending set before the hooks run,
      // so a hook may call Result() (e.g. to mirror the batch into a
      // reference model while readers are still locked out).
      for (const BatchOp& op : pending_) {
        results_[op.user_tag] = op.result;
      }
      pending_.clear();
      pending_tickets_.clear();
      if (commit_hook_) {
        status = commit_hook_();
      }
    }
    if (status.ok() && post_apply_hook_) {
      status = post_apply_hook_(scheme_->epoch_guard().epoch() + 1);
    }
  }
  pending_.clear();
  pending_tickets_.clear();
  if (!status.ok()) {
    return status;
  }
  ++batches_flushed_;
  ops_flushed_ += batch_size;
  if (metrics != nullptr) {
    metrics->IncrementCounter("batch.flushes");
    metrics->IncrementCounter("batch.ops", batch_size);
    metrics->IncrementCounter("batch.reordered_ops", stats.reordered);
    metrics->IncrementCounter("batch.coalesced_relabels",
                              stats.coalesced_relabels);
    metrics->RecordValue("batch.ops_per_flush", batch_size);
    metrics->RecordValue(
        "batch.sync_calls_per_flush",
        metrics->CounterValue("file_store.sync_calls") - syncs_before);
  }
  return Status::OK();
}

size_t UpdateBuffer::DiscardPending() {
  const size_t dropped = pending_.size();
  if (dropped == 0) {
    return 0;
  }
  std::fprintf(stderr,
               "UpdateBuffer discarding %zu buffered unflushed op(s) on "
               "caller request; they were never applied or made durable\n",
               dropped);
  MetricsRegistry* metrics =
      scheme_ != nullptr ? scheme_->metrics() : nullptr;
  if (metrics != nullptr) {
    metrics->IncrementCounter("buffer.dropped_ops", dropped);
  }
  pending_.clear();
  pending_tickets_.clear();
  return dropped;
}

StatusOr<NewElement> UpdateBuffer::Result(Ticket ticket) const {
  if (ticket >= results_.size()) {
    return Status::InvalidArgument("unknown update buffer ticket");
  }
  for (size_t i = 0; i < pending_tickets_.size(); ++i) {
    if (pending_tickets_[i] == ticket) {
      return Status::FailedPrecondition(
          "ticket's batch has not flushed yet");
    }
  }
  return results_[ticket];
}

}  // namespace boxes
