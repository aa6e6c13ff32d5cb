#ifndef BOXES_REPLICATION_STANDBY_APPLIER_H_
#define BOXES_REPLICATION_STANDBY_APPLIER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "replication/digest.h"
#include "replication/frame.h"
#include "replication/transport.h"
#include "storage/wal.h"
#include "util/metrics.h"

namespace boxes::replication {

struct StandbyApplierOptions {
  /// Applied batches between standby checkpoints (persisting the apply
  /// horizon in the superblock's WAL mark, so a restarted standby resumes
  /// catch-up from where it stopped instead of from its bootstrap). 0 =
  /// never checkpoint automatically; the harness drives CheckpointNow.
  uint64_t checkpoint_interval = 0;
};

/// Standby-side half of WAL shipping (DESIGN.md §4k): drains ShipFrames
/// off the link and applies them, in the shipped order, through
/// LabelingScheme::ApplyBatch under the standby's own EpochGuard. The
/// protocol is pull-shaped reliability over an unreliable link:
///
///   * idempotent — a frame below the apply horizon is a duplicate and is
///     dropped (batch ids are globally monotonic, so id comparison is a
///     complete dedup);
///   * gap-detecting — an above-horizon frame waits in a reorder buffer;
///     when the link drains with the buffer blocked, the hole can only be
///     a dropped/torn frame, and the harness asks the primary for
///     ReShipFrom(next_expected());
///   * fenced — a frame stamped with a fencing token below the standby's
///     is a deposed primary's late ship and is rejected; a higher token
///     (the standby missed a promotion) is adopted.
///
/// Apply equals recovery replay exactly: same decode, same ApplyBatch,
/// same I/O phase — which is why standby≡primary digest equality is the
/// correctness bar and not just a heuristic.
class StandbyApplier {
 public:
  StandbyApplier(PageCache* cache, LabelingScheme* scheme, FaultyLink* link,
                 MetricsRegistry* metrics = nullptr,
                 StandbyApplierOptions options = {});

  StandbyApplier(const StandbyApplier&) = delete;
  StandbyApplier& operator=(const StandbyApplier&) = delete;

  /// Fresh standby (empty store with an initialized superblock, or an
  /// idle byte copy): the apply horizon starts at the superblock's WAL
  /// mark and the fencing token is adopted from the slot.
  Status Init();

  /// Standby bootstrapped from an online-backup byte copy that went
  /// through RecoverWithWal: resumes after the last batch the local log
  /// replayed (the copy's WAL tail), falling back to the checkpoint's
  /// mark when nothing replayed.
  Status InitFromRecovery(const WalRecoveryResult& recovered);

  /// Drains every deliverable frame: applies in-order batches, buffers
  /// reordered ones, drops duplicates/torn frames/fenced ships. Errors
  /// are hard failures (replay or checkpoint faults), never link noise.
  Status Pump();

  /// Id the next applied batch must carry.
  uint64_t next_expected() const { return next_expected_; }

  /// True when progress is blocked on a hole: the link has drained and
  /// buffered frames wait beyond next_expected(). The harness then
  /// requests WalShipper::ReShipFrom(next_expected()).
  bool HasGap() const;

  /// Highest batch id observed in any intact frame (the standby's view of
  /// the primary's log horizon); feeds the repl.lag_batches gauge.
  uint64_t primary_horizon() const { return primary_horizon_; }
  uint64_t lag_batches() const;

  uint64_t applied_batches() const { return applied_batches_; }
  uint64_t duplicate_frames() const { return duplicate_frames_; }
  uint64_t torn_frames() const { return torn_frames_; }
  uint64_t fenced_rejects() const { return fenced_rejects_; }
  uint64_t fencing_token() const { return fencing_token_; }

  /// Serving gate for reads against this standby: Unavailable while the
  /// standby lags its view of the primary's horizon or sits on a gap —
  /// distinct from a kResourceExhausted shed (the node is healthy; its
  /// data is behind). OK once caught up.
  Status ReadGate() const;

  /// Persists the apply horizon (superblock WAL mark := next_expected())
  /// and the fencing token via the dual-slot checkpoint commit.
  Status CheckpointNow();

  /// Fenced promotion: bumps the fencing token and persists it with the
  /// final apply horizon. After this returns, (1) a WalPipeline::Init on
  /// this store continues batch ids exactly at next_expected() under the
  /// new token, and (2) every frame the deposed primary ships under the
  /// old token is rejected here and on any peer that saw the promotion.
  /// The caller seals the old primary's UpdateBuffer (DiscardPending) and
  /// flips this node writable.
  Status Promote();

  /// Divergence check against a digest computed on the primary at the
  /// same batch horizon; Corruption on mismatch (hard fail by contract).
  Status CheckDivergence(const ReplicationDigest& primary_digest);

 private:
  Status ApplyFrame(const ShipFrame& frame);
  void UpdateLagGauges(uint64_t newest_ship_micros);

  PageCache* cache_;        // not owned
  LabelingScheme* scheme_;  // not owned
  FaultyLink* link_;        // not owned
  MetricsRegistry* metrics_ = nullptr;  // not owned
  const StandbyApplierOptions options_;
  uint64_t next_expected_ = 1;
  uint64_t fencing_token_ = 0;
  uint64_t primary_horizon_ = 0;
  uint64_t applied_batches_ = 0;
  uint64_t applied_since_checkpoint_ = 0;
  uint64_t duplicate_frames_ = 0;
  uint64_t torn_frames_ = 0;
  uint64_t fenced_rejects_ = 0;
  /// Reorder buffer: intact frames beyond the apply horizon, by batch id.
  std::map<uint64_t, ShipFrame> pending_;
};

}  // namespace boxes::replication

#endif  // BOXES_REPLICATION_STANDBY_APPLIER_H_
