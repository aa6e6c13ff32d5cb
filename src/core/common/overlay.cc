#include "core/common/overlay.h"

#include <utility>
#include <vector>

#include "util/metrics.h"

namespace boxes {

OverlayedScheme::OverlayedScheme(LabelingScheme* authority,
                                 OverlayOptions options)
    : authority_(authority),
      options_(std::move(options)),
      log_(options_.log_capacity) {
  authority_->SetUpdateListener(this);
}

OverlayedScheme::~OverlayedScheme() {
  if (authority_->update_listener() == this) {
    authority_->SetUpdateListener(nullptr);
  }
}

std::string OverlayedScheme::name() const {
  return "silo+" + authority_->name();
}

void OverlayedScheme::OnRangeShift(const Label& lo, const Label& hi,
                                   int64_t delta, bool last_component_only) {
  // The log's Replay applies shifts to the last component, which is the
  // scalar itself for single-component labels — both shift flavors reduce
  // to one entry kind here, exactly as in CachingLabelStore.
  (void)last_component_only;
  log_.AppendShift(lo, hi, delta);
}

void OverlayedScheme::OnInvalidateRange(const Label& lo, const Label& hi) {
  log_.AppendInvalidate(lo, hi);
}

void OverlayedScheme::OnOrdinalShift(uint64_t from, int64_t delta) {
  log_.AppendOrdinalShift(from, delta);
}

void OverlayedScheme::RecordDelta(Lid lid) { delta_[lid] = ++delta_clock_; }

void OverlayedScheme::RecordDelta(const NewElement& lids) {
  if (lids.start != kInvalidLid) {
    RecordDelta(lids.start);
  }
  if (lids.end != kInvalidLid) {
    RecordDelta(lids.end);
  }
}

void OverlayedScheme::MarkUnbounded() {
  unbounded_ = true;
  unbounded_clock_ = ++delta_clock_;
}

StatusOr<Label> OverlayedScheme::Lookup(Lid lid) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  SnapshotReader* reader = reader_.get();
  if (reader != nullptr && !unbounded_ && delta_.find(lid) == delta_.end()) {
    const size_t index = reader->FindIndex(lid);
    if (index != SnapshotReader::kNotFound) {
      Label value = reader->LabelAt(index);
      if (log_.Replay(base_ts_, &value) == ReplayResult::kUsable) {
        if (log_.now() == base_ts_) {
          served_base_.fetch_add(1, std::memory_order_relaxed);
        } else {
          served_repaired_.fetch_add(1, std::memory_order_relaxed);
        }
        return value;
      }
      // Invalidated range or log-window overflow: the frozen label cannot
      // be repaired, the live scheme answers.
      served_fallback_.fetch_add(1, std::memory_order_relaxed);
      return authority_->Lookup(lid);
    }
  }
  served_overlay_.fetch_add(1, std::memory_order_relaxed);
  return authority_->Lookup(lid);
}

bool OverlayedScheme::SupportsOrdinal() const {
  return authority_->SupportsOrdinal();
}

StatusOr<uint64_t> OverlayedScheme::OrdinalLookup(Lid lid) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  SnapshotReader* reader = reader_.get();
  if (reader != nullptr && reader->has_ordinals() && !unbounded_ &&
      delta_.find(lid) == delta_.end()) {
    const size_t index = reader->FindIndex(lid);
    if (index != SnapshotReader::kNotFound) {
      uint64_t ordinal = reader->OrdinalAt(index);
      if (log_.ReplayOrdinal(base_ts_, &ordinal) == ReplayResult::kUsable) {
        if (log_.now() == base_ts_) {
          served_base_.fetch_add(1, std::memory_order_relaxed);
        } else {
          served_repaired_.fetch_add(1, std::memory_order_relaxed);
        }
        return ordinal;
      }
      served_fallback_.fetch_add(1, std::memory_order_relaxed);
      return authority_->OrdinalLookup(lid);
    }
  }
  served_overlay_.fetch_add(1, std::memory_order_relaxed);
  return authority_->OrdinalLookup(lid);
}

StatusOr<NewElement> OverlayedScheme::InsertElementBefore(Lid lid) {
  BOXES_ASSIGN_OR_RETURN(const NewElement fresh,
                         authority_->InsertElementBefore(lid));
  RecordDelta(fresh);
  return fresh;
}

StatusOr<NewElement> OverlayedScheme::InsertFirstElement() {
  BOXES_ASSIGN_OR_RETURN(const NewElement fresh,
                         authority_->InsertFirstElement());
  RecordDelta(fresh);
  return fresh;
}

Status OverlayedScheme::Delete(Lid lid) {
  BOXES_RETURN_IF_ERROR(authority_->Delete(lid));
  // Tombstone: the LID may still sit in the frozen image (or be reused by
  // a later insert); the delta record routes it to the authority either
  // way.
  RecordDelta(lid);
  return Status::OK();
}

Status OverlayedScheme::BulkLoad(const xml::Document& doc,
                                 std::vector<NewElement>* lids_out) {
  std::vector<NewElement> scratch;
  std::vector<NewElement>* sink = lids_out != nullptr ? lids_out : &scratch;
  BOXES_RETURN_IF_ERROR(authority_->BulkLoad(doc, sink));
  for (const NewElement& element : *sink) {
    RecordDelta(element);
  }
  if (reader_ != nullptr) {
    // A load over a served image means the image no longer describes the
    // authority at all.
    MarkUnbounded();
  }
  return Status::OK();
}

Status OverlayedScheme::InsertSubtreeBefore(Lid before,
                                            const xml::Document& subtree,
                                            std::vector<NewElement>* lids_out) {
  std::vector<NewElement> scratch;
  std::vector<NewElement>* sink = lids_out != nullptr ? lids_out : &scratch;
  BOXES_RETURN_IF_ERROR(
      authority_->InsertSubtreeBefore(before, subtree, sink));
  for (const NewElement& element : *sink) {
    RecordDelta(element);
  }
  return Status::OK();
}

Status OverlayedScheme::DeleteSubtree(Lid root_start, Lid root_end) {
  BOXES_RETURN_IF_ERROR(authority_->DeleteSubtree(root_start, root_end));
  // The bulk path frees an unenumerated LID set; without the victim list
  // the delta map cannot tombstone them individually, so the whole base
  // image is declared stale until the next compile folds the deletion in.
  MarkUnbounded();
  return Status::OK();
}

Status OverlayedScheme::ApplyBatch(std::vector<BatchOp>* ops,
                                   BatchStats* stats) {
  // Forward whole batches so the authority's batch-wide optimizations
  // (W-BOX's deferred rebuild check, naive-k's relabel coalescing) engage;
  // deltas are harvested from the completed ops' results.
  const Status status = authority_->ApplyBatch(ops, stats);
  for (const BatchOp& op : *ops) {
    switch (op.kind) {
      case BatchOp::Kind::kInsertElementBefore:
      case BatchOp::Kind::kInsertFirstElement:
        RecordDelta(op.result);
        break;
      case BatchOp::Kind::kDelete:
        // Recording a delete that did not apply (batch stopped early) is
        // harmless: a spurious delta only routes one LID to the authority.
        RecordDelta(op.anchor);
        break;
      case BatchOp::Kind::kInsertSubtreeBefore:
        if (op.subtree_lids != nullptr) {
          for (const NewElement& element : *op.subtree_lids) {
            RecordDelta(element);
          }
        } else {
          MarkUnbounded();
        }
        break;
      case BatchOp::Kind::kDeleteSubtree:
        MarkUnbounded();
        break;
    }
  }
  return status;
}

Status OverlayedScheme::Restore(PageId checkpoint_head) {
  BOXES_RETURN_IF_ERROR(authority_->Restore(checkpoint_head));
  // The restored state is a different history; the served image (if any)
  // no longer corresponds to it.
  reader_.reset();
  delta_.clear();
  base_ts_ = 0;
  unbounded_ = false;
  return Status::OK();
}

Status OverlayedScheme::Recompile() {
  ScopedTimer timer(metrics(), "snapshot.compile_us");

  // Phase A — consistent cut under a read ticket: no writer can run, so
  // the log clock, the delta clock, and every extracted label describe one
  // committed state.
  std::string image;
  std::unique_ptr<SnapshotWriter> writer;
  uint64_t cut_ts = 0;
  uint64_t cut_clock = 0;
  {
    EpochReadLock lock(&epoch_guard());
    cut_ts = log_.now();
    cut_clock = delta_clock_;
    SnapshotWriterOptions writer_options;
    writer_options.source_epoch = lock.epoch();
    writer_options.fail_after_file_ops =
        options_.recompile_fail_after_file_ops;
    writer_options.write_chunk_bytes = options_.recompile_write_chunk_bytes;
    writer = std::make_unique<SnapshotWriter>(writer_options);
    StatusOr<std::string> built = writer->BuildImage(authority_);
    if (!built.ok()) {
      swap_failures_.fetch_add(1, std::memory_order_relaxed);
      return built.status();
    }
    image = std::move(*built);
  }

  // Phase B — durable publish, no locks held: mutations may land while the
  // temp file is written; they stay in the delta map (their delta clock
  // exceeds the cut) and keep routing to the authority.
  Status published = writer->Publish(image, options_.snapshot_path);
  if (!published.ok()) {
    swap_failures_.fetch_add(1, std::memory_order_relaxed);
    return published;
  }
  StatusOr<std::unique_ptr<SnapshotReader>> fresh =
      SnapshotReader::Open(options_.snapshot_path);
  if (!fresh.ok()) {
    swap_failures_.fetch_add(1, std::memory_order_relaxed);
    return fresh.status();
  }

  // Phase C — swap under the write lock; readers next admitted serve the
  // new image.
  {
    EpochWriteLock lock(&epoch_guard());
    reader_ = std::move(*fresh);
    base_ts_ = cut_ts;
    for (auto it = delta_.begin(); it != delta_.end();) {
      it = it->second <= cut_clock ? delta_.erase(it) : std::next(it);
    }
    if (unbounded_ && unbounded_clock_ <= cut_clock) {
      unbounded_ = false;
    }
  }
  recompiles_.fetch_add(1, std::memory_order_relaxed);
  if (metrics() != nullptr) {
    metrics()->IncrementCounter("snapshot.compiles");
    metrics()->RecordValue("snapshot.image_bytes", reader_->image_bytes());
    metrics()->RecordValue("snapshot.entries", reader_->entry_count());
  }
  return Status::OK();
}

OverlayServeStats OverlayedScheme::serve_stats() const {
  OverlayServeStats stats;
  stats.lookups = lookups_.load(std::memory_order_relaxed);
  stats.served_base = served_base_.load(std::memory_order_relaxed);
  stats.served_repaired = served_repaired_.load(std::memory_order_relaxed);
  stats.served_overlay = served_overlay_.load(std::memory_order_relaxed);
  stats.served_fallback = served_fallback_.load(std::memory_order_relaxed);
  stats.recompiles = recompiles_.load(std::memory_order_relaxed);
  stats.swap_failures = swap_failures_.load(std::memory_order_relaxed);
  return stats;
}

void OverlayedScheme::PublishMetrics() {
  MetricsRegistry* registry = metrics();
  if (registry == nullptr) {
    return;
  }
  const OverlayServeStats stats = serve_stats();
  registry->SetGauge("snapshot.lookups", stats.lookups);
  registry->SetGauge("snapshot.served_base", stats.served_base);
  registry->SetGauge("snapshot.served_repaired", stats.served_repaired);
  registry->SetGauge("snapshot.served_overlay", stats.served_overlay);
  registry->SetGauge("snapshot.served_fallback", stats.served_fallback);
  registry->SetGauge("snapshot.recompiles", stats.recompiles);
  registry->SetGauge("snapshot.swap_failures", stats.swap_failures);
  registry->SetGauge("snapshot.delta_entries", delta_.size());
  if (reader_ != nullptr) {
    registry->SetGauge("snapshot.image_entries", reader_->entry_count());
    registry->SetGauge("snapshot.image_bytes_now", reader_->image_bytes());
  }
}

}  // namespace boxes
