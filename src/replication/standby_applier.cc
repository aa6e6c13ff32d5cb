#include "replication/standby_applier.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "core/common/epoch_guard.h"
#include "storage/metadata_io.h"

namespace boxes::replication {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StandbyApplier::StandbyApplier(PageCache* cache, LabelingScheme* scheme,
                               FaultyLink* link, MetricsRegistry* metrics,
                               StandbyApplierOptions options)
    : cache_(cache),
      scheme_(scheme),
      link_(link),
      metrics_(metrics),
      options_(options) {}

Status StandbyApplier::Init() {
  BOXES_ASSIGN_OR_RETURN(const SuperblockInfo info, LoadSuperblock(cache_));
  next_expected_ = info.wal_mark;
  fencing_token_ = info.fencing_token;
  return Status::OK();
}

Status StandbyApplier::InitFromRecovery(const WalRecoveryResult& recovered) {
  // The byte copy's own log tail replayed during bootstrap; resume after
  // it. A copy with an unreplayable (torn) tail resumes at the batch the
  // tear swallowed — the primary still has it, catch-up re-ships it.
  BOXES_ASSIGN_OR_RETURN(const SuperblockInfo info, LoadSuperblock(cache_));
  next_expected_ = recovered.replay.batches_replayed > 0
                       ? recovered.replay.last_replayed_batch + 1
                       : info.wal_mark;
  fencing_token_ = info.fencing_token;
  return Status::OK();
}

bool StandbyApplier::HasGap() const {
  return link_->drained() && !pending_.empty() &&
         pending_.begin()->first > next_expected_;
}

uint64_t StandbyApplier::lag_batches() const {
  return primary_horizon_ >= next_expected_
             ? primary_horizon_ - next_expected_ + 1
             : 0;
}

Status StandbyApplier::ReadGate() const {
  if (lag_batches() > 0) {
    return Status::Unavailable(
        "standby lags the primary by " + std::to_string(lag_batches()) +
        " batch(es); reads would serve stale order relations");
  }
  return Status::OK();
}

void StandbyApplier::UpdateLagGauges(uint64_t newest_ship_micros) {
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->SetGauge("repl.lag_batches", lag_batches());
  if (newest_ship_micros != 0) {
    const uint64_t now = NowMicros();
    metrics_->SetGauge("repl.lag_us", now > newest_ship_micros
                                          ? now - newest_ship_micros
                                          : 0);
  }
}

Status StandbyApplier::Pump() {
  std::vector<uint8_t> bytes;
  uint64_t newest_ship_micros = 0;
  while (link_->Receive(&bytes)) {
    ShipFrame frame;
    if (!DecodeShipFrame(bytes, &frame)) {
      ++torn_frames_;
      if (metrics_ != nullptr) {
        metrics_->IncrementCounter("repl.torn_frames");
      }
      continue;  // indistinguishable from a drop; catch-up heals it
    }
    newest_ship_micros = frame.ship_micros;
    if (frame.fencing_token < fencing_token_) {
      // A deposed primary does not know it was deposed; its ships carry
      // the pre-promotion token. Rejecting them is what makes promotion
      // safe against the zombie continuing to acknowledge writes.
      ++fenced_rejects_;
      if (metrics_ != nullptr) {
        metrics_->IncrementCounter("repl.fenced_rejects");
      }
      continue;
    }
    if (frame.fencing_token > fencing_token_) {
      // This standby missed a promotion (e.g. it was partitioned while a
      // peer took over); adopt the new epoch.
      fencing_token_ = frame.fencing_token;
    }
    primary_horizon_ = std::max(primary_horizon_, frame.batch_id);
    if (frame.batch_id < next_expected_) {
      ++duplicate_frames_;
      if (metrics_ != nullptr) {
        metrics_->IncrementCounter("repl.duplicate_frames");
      }
      continue;
    }
    if (frame.batch_id > next_expected_) {
      // Reordered (or post-gap) frame: hold it. First intact copy wins;
      // later duplicates of the same id are dropped on the floor.
      pending_.emplace(frame.batch_id, std::move(frame));
      continue;
    }
    BOXES_RETURN_IF_ERROR(ApplyFrame(frame));
    // The frame may have unblocked buffered successors.
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == next_expected_) {
      BOXES_RETURN_IF_ERROR(ApplyFrame(it->second));
      it = pending_.erase(it);
      // Skip any now-stale buffered frames an apply leapfrogged.
      while (it != pending_.end() && it->first < next_expected_) {
        ++duplicate_frames_;
        it = pending_.erase(it);
      }
    }
  }
  UpdateLagGauges(newest_ship_micros);
  return Status::OK();
}

Status StandbyApplier::ApplyFrame(const ShipFrame& frame) {
  std::vector<WalRecord> records;
  if (!DecodeWalRecordStream(frame.payload, frame.op_count, &records)) {
    // The frame CRCs matched but the stream inside is malformed: the
    // sender framed garbage, which is a protocol bug, not link noise.
    return Status::Corruption("ship frame for batch " +
                              std::to_string(frame.batch_id) +
                              " holds an undecodable record stream");
  }
  std::vector<std::unique_ptr<xml::Document>> docs;
  std::vector<BatchOp> ops;
  BOXES_RETURN_IF_ERROR(BuildOpsFromWalRecords(records, &docs, &ops));
  BatchStats stats;
  {
    // Identical shape to recovery replay: one write epoch per batch, I/O
    // attributed to log replay.
    EpochWriteLock lock(&scheme_->epoch_guard());
    ScopedPhase phase(cache_, IoPhase::kLogReplay);
    BOXES_RETURN_IF_ERROR(scheme_->ApplyBatch(&ops, &stats));
  }
  ++applied_batches_;
  ++applied_since_checkpoint_;
  next_expected_ = frame.batch_id + 1;
  if (metrics_ != nullptr) {
    metrics_->IncrementCounter("repl.applied_batches");
    metrics_->IncrementCounter("repl.applied_ops", ops.size());
  }
  if (options_.checkpoint_interval != 0 &&
      applied_since_checkpoint_ >= options_.checkpoint_interval) {
    BOXES_RETURN_IF_ERROR(CheckpointNow());
  }
  return Status::OK();
}

Status StandbyApplier::CheckpointNow() {
  BOXES_ASSIGN_OR_RETURN(const SuperblockInfo before, LoadSuperblock(cache_));
  BOXES_ASSIGN_OR_RETURN(const PageId head, scheme_->Checkpoint());
  BOXES_RETURN_IF_ERROR(
      CommitCheckpoint(cache_, head, next_expected_, fencing_token_));
  applied_since_checkpoint_ = 0;
  if (before.head != kInvalidPageId) {
    BOXES_RETURN_IF_ERROR(FreeMetadataChain(cache_, before.head));
  }
  if (metrics_ != nullptr) {
    metrics_->IncrementCounter("repl.standby_checkpoints");
  }
  return Status::OK();
}

Status StandbyApplier::Promote() {
  ++fencing_token_;
  if (metrics_ != nullptr) {
    metrics_->IncrementCounter("repl.promotions");
  }
  // Persisting the token through the same dual-slot commit as the apply
  // horizon makes promotion crash-safe: either the old slot survives (the
  // promotion never happened; retry) or the new one does (this node IS
  // the primary, and a restart re-learns both token and horizon).
  return CheckpointNow();
}

Status StandbyApplier::CheckDivergence(
    const ReplicationDigest& primary_digest) {
  BOXES_ASSIGN_OR_RETURN(const ReplicationDigest mine,
                         ComputeReplicationDigest(scheme_));
  if (metrics_ != nullptr) {
    metrics_->IncrementCounter("repl.digest_checks");
  }
  return CheckDigestsMatch(primary_digest, mine,
                           "horizon " + std::to_string(next_expected_ - 1));
}

}  // namespace boxes::replication
