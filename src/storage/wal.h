#ifndef BOXES_STORAGE_WAL_H_
#define BOXES_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/common/labeling_scheme.h"
#include "core/common/update_buffer.h"
#include "storage/metadata_io.h"
#include "storage/page_cache.h"
#include "util/metrics.h"
#include "util/status.h"

namespace boxes {

/// Durable write-ahead op log (DESIGN.md §4i). The log generalizes the
/// paper's CL-tree modification log into a redo log for every scheme: each
/// UpdateBuffer flush appends one logical record per BatchOp — in the
/// order UpdateBuffer sorted the batch into, which is the order ApplyBatch
/// applies — and pays one fdatasync *before* the batch touches the
/// structure. That one barrier is what turns "Flush returned OK" into
/// "these ops survive any crash": recovery restores the last committed
/// checkpoint and hands the logged batches to the same
/// LabelingScheme::ApplyBatch, reproducing the exact pre-crash op order
/// and therefore the exact acknowledged LIDs. The dual-slot
/// checkpoint demotes from the unit of durability to a periodic
/// truncation point for the log.
///
/// The log lives *inside* the page store rather than in a sidecar file:
/// every appended batch occupies write-once pages (never rewriting bytes
/// an earlier sync covered, so a torn append can only damage the
/// unacknowledged batch), stamped with a header the recovery scan
/// recognizes. Storing log pages in the store means the page-level CRC32C
/// frames, the fault-injection harness (crash points and sync faults land
/// inside log appends like any other write), and online backup (the
/// database file IS the backup unit) all apply to the log for free.
///
/// Log pages are written through PageStore::WriteUnjournaled and are
/// deliberately *never* freed back to the allocator (see WalWriter's
/// recycle pool): the store's rollback journal reverts every journaled
/// post-checkpoint write when a crash image is opened, which is exactly
/// right for checkpoint state and exactly wrong for the op log — a
/// journaled log append would be undone by the very recovery that needs
/// to read it.
///
/// Log page layout (page payload; the store adds its own CRC frame):
///   [0..3]   magic "BWAL"
///   [4..11]  generation: the committed checkpoint sequence at append
///            time. A checkpoint with sequence S covers exactly the
///            batches of generations < S, so recovery replays pages with
///            generation >= the recovered sequence and truncation never
///            needs to rewrite the log — superseded pages are simply
///            freed, and any stale survivors fail the generation filter.
///   [12..19] batch id (monotonic across restarts; seeded from the
///            superblock's WAL mark)
///   [20..23] page_seq: this page's index within its batch
///   [24..27] page_count: pages in this batch (known up front, so the
///            scan can prove completeness)
///   [28..31] op_count: records in this batch
///   [32..35] attempt: retry discriminator; a batch re-appended after a
///            faulted append keeps its id but bumps the attempt, letting
///            the scan separate the copies (replay applies the last
///            complete one — ops may join the batch between the fault
///            and the retry, so only the final append is acknowledged)
///   [36..39] payload bytes used in this page
///   [40..43] CRC32C of header bytes [0..39]. The store's frame CRC
///            already covers the page; this inner CRC exists so the
///            recovery scan can never mistake a *data* page for a log
///            page on a magic collision — log pages are recycled across
///            generations (see WalWriter), so misidentification would be
///            replay of garbage, not just noise.
///   [44..]   record stream (records span pages within a batch)
///
/// Record framing (CRC32C-framed, one record per BatchOp):
///   [u32 body length][u32 CRC32C of body][body]
///   body: [u64 user_tag][u8 kind][u64 anchor][u64 anchor_end]
///         [u32 subtree length][serialized subtree XML]

inline constexpr uint32_t kWalPageMagic = 0x4c415742u;  // "BWAL"
inline constexpr size_t kWalPageHeaderSize = 44;

/// One decoded log record.
struct WalRecord {
  BatchOp::Kind kind = BatchOp::Kind::kInsertElementBefore;
  Lid anchor = kInvalidLid;
  Lid anchor_end = kInvalidLid;
  uint64_t user_tag = 0;
  std::string subtree_xml;  // empty unless kInsertSubtreeBefore
};

/// Serializes `ops` into the canonical CRC32C-framed record stream (the
/// byte layout above). This is THE wire format for a logged batch — the
/// WalWriter pages it onto the device and the replication shipper frames
/// it onto the link, so a standby replays byte-identical history.
/// InvalidArgument if a kInsertSubtreeBefore op carries no subtree.
Status EncodeWalRecordStream(const std::vector<BatchOp>& ops,
                             std::vector<uint8_t>* stream);

/// Decodes `op_count` framed records out of a record stream. Any framing,
/// CRC, or body-shape violation returns false — callers treat the whole
/// batch as torn, never as partially usable. A complete stream must be
/// consumed exactly (trailing garbage fails).
bool DecodeWalRecordStream(const std::vector<uint8_t>& stream,
                           uint32_t op_count, std::vector<WalRecord>* out);

/// Rebuilds executable BatchOps from decoded records: subtree XML is
/// re-parsed into documents appended to `docs` (which must outlive the
/// ops — each subtree op points into it). Parse failure after a CRC match
/// means the writer logged something unparsable: Corruption, not a torn
/// tail.
Status BuildOpsFromWalRecords(
    const std::vector<WalRecord>& records,
    std::vector<std::unique_ptr<xml::Document>>* docs,
    std::vector<BatchOp>* ops);

/// One appended batch as the recovery scan sees it: one attempt at one
/// batch id. `complete` means every page is present and readable and the
/// record stream decoded into exactly op_count CRC-valid records.
struct WalBatch {
  uint64_t generation = 0;
  uint64_t batch_id = 0;
  uint32_t attempt = 0;
  bool complete = false;
  std::vector<PageId> pages;
  std::vector<WalRecord> records;  // decoded only when complete
};

/// Result of a full-device log scan.
struct WalScan {
  /// Sorted by (batch_id, attempt).
  std::vector<WalBatch> batches;
  uint64_t scanned_pages = 0;    // device pages examined
  uint64_t wal_pages = 0;        // pages carrying the log magic
  uint64_t unreadable_pages = 0; // read/CRC errors (skipped, not fatal)
  uint64_t max_batch_id = 0;     // highest id on any log page
};

/// Scans the whole device for op-log pages, bypassing the cache. Read and
/// checksum failures skip the page (a torn log write must degrade to an
/// incomplete batch, not a failed recovery); they are counted in
/// `unreadable_pages`. Page 0 (the superblock) is never examined.
StatusOr<WalScan> ScanWal(PageStore* store);

/// Bounds and outcome of a replay pass.
struct WalReplayOptions {
  /// Replay only batches with generation >= this (the recovered
  /// checkpoint's sequence number; older batches are already inside the
  /// checkpoint).
  uint64_t min_generation = 0;
  /// Point-in-time bound: replay stops after this batch id (inclusive).
  /// Complete batches beyond it are counted, not applied — re-checkpoint
  /// and truncate afterwards to seal the restore, or another recovery
  /// will replay them again.
  uint64_t to_batch = UINT64_MAX;
  /// Id the FIRST replayed batch must carry (the recovered checkpoint's
  /// WAL mark); 0 disables the check. The mid-replay gap check only sees
  /// holes *between* scanned batches — if every page of the batch at the
  /// mark was unreadable, its group is absent from the scan entirely and
  /// replay would otherwise start silently past the hole. RecoverWithWal
  /// always sets this; a mismatch is a torn tail before anything applies.
  uint64_t first_batch = 0;
};

struct WalReplayStats {
  uint64_t batches_replayed = 0;
  uint64_t ops_replayed = 0;
  /// Old-generation or duplicate-id batches passed over.
  uint64_t batches_skipped = 0;
  /// Complete batches beyond the to_batch bound (left unapplied).
  uint64_t batches_beyond_bound = 0;
  /// Replay stopped cleanly at an incomplete (torn) batch.
  bool torn_tail = false;
  uint64_t last_replayed_batch = 0;
};

/// Called after each replayed batch for every op, in apply order, with
/// op.result populated — the hook higher layers (dbtool's handle
/// registry) use to re-learn what the replayed inserts created.
using WalReplayObserver = std::function<void(const BatchOp& op)>;

/// Replays a scanned log through scheme->ApplyBatch: batch-atomic (only
/// complete batches apply), order-preserving (ApplyBatch applies the
/// logged order as given), idempotent (duplicate batch ids apply once),
/// and clean-stopping — an incomplete batch ends the replay with
/// Status::OK and stats->torn_tail, never an error, and later batches are
/// not applied even if complete (they were never acknowledged; applying
/// across a hole would reorder history). Each batch applies under one
/// EpochWriteLock with I/O attributed to IoPhase::kLogReplay.
Status ReplayScannedWal(PageCache* cache, LabelingScheme* scheme,
                        const WalScan& scan, const WalReplayOptions& options,
                        WalReplayStats* stats,
                        MetricsRegistry* metrics = nullptr,
                        const WalReplayObserver& observer = nullptr);

/// Appends batches to the op log. Single-writer, like the UpdateBuffer
/// that feeds it.
class WalWriter {
 public:
  explicit WalWriter(PageCache* cache);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends `ops` as the next batch — pooled or fresh pages, one Sync()
  /// — and consumes the batch id on success. On error the batch id is NOT
  /// consumed (a retry re-appends under the same id with a bumped attempt
  /// number) and any pages already written stay tracked, to be reclaimed
  /// by the next truncation.
  Status AppendBatch(const std::vector<BatchOp>& ops);

  /// Truncation: retires every live log page into the recycle pool and
  /// starts appending under `generation` (the sequence of the checkpoint
  /// that just committed, which covers all of them). Call only after
  /// CommitCheckpoint succeeded. Log pages are never given back to the
  /// allocator — a freed page's later reuse gets journaled, and the
  /// rollback journal would then revert acknowledged appends on recovery.
  /// Below-floor allocations the acquisition path had to reject ARE freed
  /// here (they were never written unjournaled, so they are ordinary
  /// pages).
  Status StartGeneration(uint64_t generation);

  /// Hands the writer the log pages found by a recovery scan so the next
  /// truncation retires them into the pool (their batches are either
  /// replayed into the next checkpoint or stale). This is also how prior
  /// sessions' pool pages come back — they still carry the log magic, so
  /// the scan finds them and nothing leaks.
  void AdoptPages(const WalScan& scan);

  uint64_t generation() const { return generation_; }
  uint64_t next_batch_id() const { return next_batch_id_; }
  void set_generation(uint64_t generation) { generation_ = generation; }
  void set_next_batch_id(uint64_t id) { next_batch_id_ = id; }
  /// Log pages currently tracked: live (not yet truncated) + pooled.
  size_t tracked_pages() const { return active_.size() + pool_.size(); }
  /// Pages waiting in the recycle pool.
  size_t pooled_pages() const { return pool_.size(); }

  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  /// Next page to append into: the pool if it has one, else the allocator
  /// — but only accepting pages at or above the store's unjournaled floor
  /// (a page freed since the last checkpoint may carry a journaled
  /// pre-image and may be referenced by the committed checkpoint; writing
  /// it unjournaled could corrupt a rollback). Rejected allocations are
  /// parked in `rejects_` so the allocator cannot hand them straight
  /// back, and are freed at the next truncation.
  StatusOr<PageId> AcquirePage();

  PageCache* cache_;  // not owned; pages bypass it (see .cc)
  uint64_t generation_ = 1;
  uint64_t next_batch_id_ = 1;
  uint32_t pending_attempt_ = 0;
  std::vector<PageId> active_;   // written this generation (live log)
  std::vector<PageId> pool_;     // retired log pages awaiting reuse
  std::vector<PageId> rejects_;  // below-floor allocations, freed at trunc
  MetricsRegistry* metrics_ = nullptr;  // not owned
};

/// Everything a caller needs to resume writing after recovery.
struct WalRecoveryResult {
  WalReplayStats replay;
  /// Committed checkpoint sequence (= the new write generation).
  uint64_t generation = 0;
  /// Checkpoint chain head; kInvalidPageId when the database crashed
  /// before its first checkpoint (the scheme was left empty and the whole
  /// log replayed).
  PageId checkpoint_head = kInvalidPageId;
  /// First batch id the resumed log must assign.
  uint64_t next_batch_id = 1;
  /// The scan, for WalWriter::AdoptPages.
  WalScan scan;
};

/// Restores the scheme's checkpoint via `restore` (the caller owns its
/// chain layout; pass scheme->Restore for a bare scheme) and replays the
/// op log. The cache must sit on a store already opened/rolled back with
/// FilePageStore::Mode::kOpen (or an equivalent in-memory image).
using SchemeRestorer = std::function<Status(PageId head)>;
StatusOr<WalRecoveryResult> RecoverWithWal(
    PageCache* cache, LabelingScheme* scheme, const SchemeRestorer& restore,
    const WalReplayOptions& bounds = {}, MetricsRegistry* metrics = nullptr,
    const WalReplayObserver& observer = nullptr);

/// Configuration of WalPipeline.
struct WalPipelineOptions {
  /// Flushes between durable checkpoints (the log truncation cadence).
  /// 1 degenerates to checkpoint-per-batch (PR 6's pipeline); larger
  /// intervals trade replay time at recovery for fewer checkpoint
  /// commits. Durability is interval-independent: every flush still pays
  /// its one log fdatasync.
  uint64_t checkpoint_interval = 64;
};

/// Glue binding an UpdateBuffer to the op log: installs the durability
/// hook (append + sync before apply) and the commit hook (checkpoint +
/// truncate every checkpoint_interval flushes), and owns the batch-id /
/// generation bookkeeping against the superblock's WAL mark.
class WalPipeline {
 public:
  /// Builds the checkpoint chain and returns its head. The default is
  /// scheme->Checkpoint(); callers with extra durable state (dbtool's
  /// handle registry) supply their own.
  using CheckpointBuilder = std::function<StatusOr<PageId>()>;

  WalPipeline(PageCache* cache, LabelingScheme* scheme,
              WalPipelineOptions options = {});

  WalPipeline(const WalPipeline&) = delete;
  WalPipeline& operator=(const WalPipeline&) = delete;

  void SetCheckpointBuilder(CheckpointBuilder builder) {
    checkpoint_builder_ = std::move(builder);
  }

  /// Observer of every durably appended batch, called right after the
  /// batch's fdatasync succeeds (and before the batch applies), with the
  /// id it was logged under. This is the replication tap: a WalShipper
  /// streams the ops to standbys from here. The hook must not fail —
  /// replication is asynchronous by design; a lost ship is healed by
  /// catch-up (see replication/wal_shipper.h), never by failing the
  /// primary's own durability path.
  using ShipHook = std::function<void(uint64_t generation, uint64_t batch_id,
                                      const std::vector<BatchOp>& ops)>;
  void SetShipHook(ShipHook hook) { ship_hook_ = std::move(hook); }

  /// Fresh or idle database: reads the superblock (sequence + WAL mark)
  /// and makes it durable — the generation filter is anchored there, so
  /// it must hit the disk before the first append does.
  Status Init();

  /// Continues a recovered database: seeds ids from the recovery result
  /// and adopts the scanned log pages for the next truncation.
  Status InitFromRecovery(const WalRecoveryResult& recovered);

  /// Installs the durability + commit hooks on `buffer`. The buffer must
  /// outlive this pipeline or clear its hooks first.
  void Attach(UpdateBuffer* buffer);

  /// Checkpoints now (regardless of the interval): builds the chain,
  /// commits it with the current WAL mark, frees the superseded chain,
  /// and truncates the log. Runs synchronously between flushes.
  Status CheckpointNow();

  uint64_t flushes_since_checkpoint() const {
    return flushes_since_checkpoint_;
  }
  WalWriter& writer() { return writer_; }

  /// The replication fencing token this node operates under (loaded from
  /// the superblock by Init/InitFromRecovery). A promotion calls
  /// SetFencingToken(token + 1) and then CheckpointNow() — the token is
  /// persisted in the same dual-slot commit as everything else, so a node
  /// restart cannot forget it was promoted (or deposed).
  uint64_t fencing_token() const { return fencing_token_; }
  void SetFencingToken(uint64_t token) { fencing_token_ = token; }

 private:
  Status OnFlushCommitted();

  PageCache* cache_;         // not owned
  LabelingScheme* scheme_;   // not owned
  const WalPipelineOptions options_;
  WalWriter writer_;
  CheckpointBuilder checkpoint_builder_;
  ShipHook ship_hook_;
  uint64_t flushes_since_checkpoint_ = 0;
  uint64_t fencing_token_ = 0;
};

}  // namespace boxes

#endif  // BOXES_STORAGE_WAL_H_
