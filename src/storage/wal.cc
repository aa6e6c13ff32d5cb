#include "storage/wal.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "core/common/epoch_guard.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace boxes {

namespace {

// Header field offsets within a log page (see wal.h for the layout).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffGeneration = 4;
constexpr size_t kOffBatchId = 12;
constexpr size_t kOffPageSeq = 20;
constexpr size_t kOffPageCount = 24;
constexpr size_t kOffOpCount = 28;
constexpr size_t kOffAttempt = 32;
constexpr size_t kOffPayloadUsed = 36;
constexpr size_t kOffHeaderCrc = 40;

// Record body layout: fixed prefix then the serialized subtree.
constexpr size_t kRecordFixedBytes = 8 + 1 + 8 + 8 + 4;
constexpr uint8_t kMaxRecordKind =
    static_cast<uint8_t>(BatchOp::Kind::kDeleteSubtree);

void AppendRecord(const BatchOp& op, const std::string& subtree_xml,
                  std::vector<uint8_t>* stream) {
  std::vector<uint8_t> body(kRecordFixedBytes + subtree_xml.size());
  uint8_t* p = body.data();
  EncodeFixed64(p, op.user_tag);
  p[8] = static_cast<uint8_t>(op.kind);
  EncodeFixed64(p + 9, op.anchor);
  EncodeFixed64(p + 17, op.anchor_end);
  EncodeFixed32(p + 25, static_cast<uint32_t>(subtree_xml.size()));
  std::memcpy(p + kRecordFixedBytes, subtree_xml.data(), subtree_xml.size());

  uint8_t frame[8];
  EncodeFixed32(frame, static_cast<uint32_t>(body.size()));
  EncodeFixed32(frame + 4, Crc32c(body.data(), body.size()));
  stream->insert(stream->end(), frame, frame + sizeof(frame));
  stream->insert(stream->end(), body.begin(), body.end());
}

}  // namespace

Status EncodeWalRecordStream(const std::vector<BatchOp>& ops,
                             std::vector<uint8_t>* stream) {
  stream->clear();
  for (const BatchOp& op : ops) {
    std::string subtree_xml;
    if (op.kind == BatchOp::Kind::kInsertSubtreeBefore) {
      if (op.subtree == nullptr) {
        return Status::InvalidArgument(
            "kInsertSubtreeBefore op without a subtree");
      }
      if (!op.subtree->empty()) {
        subtree_xml = xml::WriteDocument(*op.subtree, /*pretty=*/false);
      }
    }
    AppendRecord(op, subtree_xml, stream);
  }
  return Status::OK();
}

bool DecodeWalRecordStream(const std::vector<uint8_t>& stream,
                           uint32_t op_count, std::vector<WalRecord>* out) {
  out->clear();
  out->reserve(op_count);
  size_t pos = 0;
  for (uint32_t i = 0; i < op_count; ++i) {
    if (stream.size() - pos < 8) {
      return false;
    }
    const uint32_t body_len = DecodeFixed32(stream.data() + pos);
    const uint32_t crc = DecodeFixed32(stream.data() + pos + 4);
    pos += 8;
    if (stream.size() - pos < body_len ||
        body_len < kRecordFixedBytes) {
      return false;
    }
    const uint8_t* body = stream.data() + pos;
    if (Crc32c(body, body_len) != crc) {
      return false;
    }
    const uint8_t kind = body[8];
    const uint32_t subtree_len = DecodeFixed32(body + 25);
    if (kind > kMaxRecordKind ||
        subtree_len != body_len - kRecordFixedBytes) {
      return false;
    }
    WalRecord record;
    record.user_tag = DecodeFixed64(body);
    record.kind = static_cast<BatchOp::Kind>(kind);
    record.anchor = DecodeFixed64(body + 9);
    record.anchor_end = DecodeFixed64(body + 17);
    record.subtree_xml.assign(
        reinterpret_cast<const char*>(body + kRecordFixedBytes), subtree_len);
    out->push_back(std::move(record));
    pos += body_len;
  }
  // The writer records exact byte counts, so a complete batch consumes its
  // stream exactly; trailing garbage means a header lied.
  return pos == stream.size();
}

Status BuildOpsFromWalRecords(
    const std::vector<WalRecord>& records,
    std::vector<std::unique_ptr<xml::Document>>* docs,
    std::vector<BatchOp>* ops) {
  ops->clear();
  ops->reserve(records.size());
  for (const WalRecord& record : records) {
    BatchOp op;
    op.kind = record.kind;
    op.anchor = record.anchor;
    op.anchor_end = record.anchor_end;
    op.user_tag = record.user_tag;
    if (record.kind == BatchOp::Kind::kInsertSubtreeBefore) {
      if (record.subtree_xml.empty()) {
        docs->push_back(std::make_unique<xml::Document>());
      } else {
        auto parsed = xml::ParseDocument(record.subtree_xml);
        if (!parsed.ok()) {
          return Status::Corruption("op log record holds an unparsable "
                                    "subtree: " +
                                    parsed.status().message());
        }
        docs->push_back(
            std::make_unique<xml::Document>(std::move(parsed).value()));
      }
      op.subtree = docs->back().get();
    }
    ops->push_back(op);
  }
  return Status::OK();
}

namespace {

// One (batch_id, attempt) group under assembly during the scan.
struct PendingBatch {
  uint64_t generation = 0;
  uint32_t page_count = 0;
  uint32_t op_count = 0;
  bool inconsistent = false;
  std::vector<PageId> pages;
  // page_seq -> payload bytes; a duplicate seq marks the group inconsistent.
  std::map<uint32_t, std::vector<uint8_t>> payloads;
};

}  // namespace

StatusOr<WalScan> ScanWal(PageStore* store) {
  WalScan scan;
  const size_t page_size = store->page_size();
  if (page_size <= kWalPageHeaderSize) {
    return Status::InvalidArgument("page size too small for an op log page");
  }
  const size_t max_payload = page_size - kWalPageHeaderSize;
  std::vector<uint8_t> buf(page_size);
  std::map<std::pair<uint64_t, uint32_t>, PendingBatch> groups;

  const uint64_t total = store->total_pages();
  for (PageId id = 1; id < total; ++id) {  // page 0 is the superblock
    ++scan.scanned_pages;
    if (!store->Read(id, buf.data()).ok()) {
      // A torn or scribbled page — possibly mid-append at the crash. The
      // scan's job is salvage, so it skips rather than fails; whatever
      // batch the page belonged to simply stays incomplete.
      ++scan.unreadable_pages;
      continue;
    }
    if (DecodeFixed32(buf.data() + kOffMagic) != kWalPageMagic) {
      continue;
    }
    if (DecodeFixed32(buf.data() + kOffHeaderCrc) !=
        Crc32c(buf.data(), kOffHeaderCrc)) {
      // Magic without a matching header CRC: a data page that happens to
      // start with the magic bytes, not a log page. Log pages are recycled
      // forever, so misreading one here would inject garbage batches into
      // replay — the inner CRC is what makes the scan's page typing sound.
      continue;
    }
    ++scan.wal_pages;
    const uint64_t generation = DecodeFixed64(buf.data() + kOffGeneration);
    const uint64_t batch_id = DecodeFixed64(buf.data() + kOffBatchId);
    const uint32_t page_seq = DecodeFixed32(buf.data() + kOffPageSeq);
    const uint32_t page_count = DecodeFixed32(buf.data() + kOffPageCount);
    const uint32_t op_count = DecodeFixed32(buf.data() + kOffOpCount);
    const uint32_t attempt = DecodeFixed32(buf.data() + kOffAttempt);
    const uint32_t used = DecodeFixed32(buf.data() + kOffPayloadUsed);
    scan.max_batch_id = std::max(scan.max_batch_id, batch_id);

    PendingBatch& group = groups[{batch_id, attempt}];
    if (group.pages.empty()) {
      group.generation = generation;
      group.page_count = page_count;
      group.op_count = op_count;
    } else if (group.generation != generation ||
               group.page_count != page_count ||
               group.op_count != op_count) {
      group.inconsistent = true;
    }
    group.pages.push_back(id);
    if (page_count == 0 || page_seq >= page_count || used > max_payload ||
        !group.payloads
             .emplace(page_seq,
                      std::vector<uint8_t>(
                          buf.data() + kWalPageHeaderSize,
                          buf.data() + kWalPageHeaderSize + used))
             .second) {
      group.inconsistent = true;
    }
  }

  for (auto& [key, group] : groups) {
    WalBatch batch;
    batch.generation = group.generation;
    batch.batch_id = key.first;
    batch.attempt = key.second;
    batch.pages = std::move(group.pages);
    if (!group.inconsistent && group.payloads.size() == group.page_count) {
      std::vector<uint8_t> stream;
      for (auto& [seq, payload] : group.payloads) {
        stream.insert(stream.end(), payload.begin(), payload.end());
      }
      batch.complete =
          DecodeWalRecordStream(stream, group.op_count, &batch.records);
      if (!batch.complete) {
        batch.records.clear();
      }
    }
    scan.batches.push_back(std::move(batch));
  }
  // std::map already ordered the groups by (batch_id, attempt).
  return scan;
}

Status ReplayScannedWal(PageCache* cache, LabelingScheme* scheme,
                        const WalScan& scan, const WalReplayOptions& options,
                        WalReplayStats* stats, MetricsRegistry* metrics,
                        const WalReplayObserver& observer) {
  *stats = WalReplayStats{};
  bool replayed_any = false;
  bool stopped = false;

  size_t i = 0;
  while (i < scan.batches.size() && !stopped) {
    const uint64_t batch_id = scan.batches[i].batch_id;
    // Attempts of one batch id are adjacent; pick the LAST complete,
    // current-generation one. The copies need not be identical: a faulted
    // append's sync can fail with the pages intact on the device, and the
    // caller may enqueue more ops before retrying Flush — the retry then
    // re-logs the grown batch under the same id with a bumped attempt.
    // Only the final successful append was acknowledged, so an earlier
    // complete copy is a stale subset and replaying it would silently
    // drop acknowledged ops (and shift every later LID assignment).
    const WalBatch* chosen = nullptr;
    bool current_generation = false;
    for (; i < scan.batches.size() && scan.batches[i].batch_id == batch_id;
         ++i) {
      const WalBatch& attempt = scan.batches[i];
      if (attempt.generation < options.min_generation) {
        continue;  // covered by the recovered checkpoint; stale
      }
      current_generation = true;
      if (attempt.complete) {
        chosen = &attempt;  // highest attempt wins (scan order is sorted)
      }
    }
    if (!current_generation) {
      ++stats->batches_skipped;
      continue;
    }
    if (batch_id > options.to_batch) {
      // Point-in-time bound: acknowledged history past the bound exists
      // but is deliberately not applied. The caller must re-checkpoint and
      // truncate to seal the restore.
      ++stats->batches_beyond_bound;
      continue;
    }
    const uint64_t expected_id =
        replayed_any ? stats->last_replayed_batch + 1 : options.first_batch;
    if (chosen == nullptr ||
        (expected_id != 0 && batch_id != expected_id)) {
      // Torn tail (no complete copy) or a hole in the id sequence — either
      // between scanned batches or before the first one (the checkpoint's
      // WAL mark names the id replay must start at; a batch whose every
      // page was unreadable is absent from the scan, and only the mark can
      // expose that). Either way the acknowledged prefix ends here: stop
      // cleanly, apply nothing further — replaying across a hole would
      // reorder history.
      stats->torn_tail = true;
      stopped = true;
      continue;
    }

    // Rebuild the ops. Subtree documents are re-parsed from the logged
    // XML; parse failure after a CRC match means the writer logged
    // something unparsable, which is a bug, not a torn tail.
    std::vector<std::unique_ptr<xml::Document>> docs;
    std::vector<BatchOp> ops;
    {
      const Status built =
          BuildOpsFromWalRecords(chosen->records, &docs, &ops);
      if (!built.ok()) {
        return Status(built.code(), "op log batch " +
                                        std::to_string(batch_id) + ": " +
                                        built.message());
      }
    }

    BatchStats batch_stats;
    {
      // Same shape as a live flush: the whole batch is one write epoch,
      // applied in the logged order by the same ApplyBatch.
      EpochWriteLock lock(&scheme->epoch_guard());
      ScopedPhase phase(cache, IoPhase::kLogReplay);
      BOXES_RETURN_IF_ERROR(scheme->ApplyBatch(&ops, &batch_stats));
    }
    ++stats->batches_replayed;
    stats->ops_replayed += ops.size();
    stats->last_replayed_batch = batch_id;
    replayed_any = true;
    if (observer) {
      for (const BatchOp& op : ops) {
        observer(op);
      }
    }
  }

  if (metrics != nullptr) {
    metrics->IncrementCounter("recovery.replayed_batches",
                              stats->batches_replayed);
    metrics->IncrementCounter("recovery.replayed_ops", stats->ops_replayed);
    metrics->IncrementCounter("recovery.skipped_batches",
                              stats->batches_skipped);
    metrics->IncrementCounter("recovery.scanned_pages", scan.scanned_pages);
    metrics->IncrementCounter("recovery.unreadable_pages",
                              scan.unreadable_pages);
    if (stats->torn_tail) {
      metrics->IncrementCounter("recovery.torn_batches");
    }
  }
  return Status::OK();
}

WalWriter::WalWriter(PageCache* cache) : cache_(cache) {}

StatusOr<PageId> WalWriter::AcquirePage() {
  if (!pool_.empty()) {
    const PageId id = pool_.back();
    pool_.pop_back();
    return id;
  }
  PageStore* store = cache_->store();
  // The allocator's free list may hold pages freed since the last
  // checkpoint: those carry journaled pre-images (Free journals) and may
  // still be referenced by the committed checkpoint, so an unjournaled
  // overwrite would poison a future rollback. Park them and keep pulling;
  // the loop terminates because the free list is finite and growth
  // allocates at total_pages(), which is always >= the floor.
  for (;;) {
    BOXES_ASSIGN_OR_RETURN(const PageId id, store->Allocate());
    if (id >= store->unjournaled_floor()) {
      return id;
    }
    rejects_.push_back(id);
  }
}

Status WalWriter::AppendBatch(const std::vector<BatchOp>& ops) {
  // Log pages bypass the cache entirely: they are written once, synced
  // once, and never read back on the live path, so caching them would
  // only evict pages that matter — and durability requires them on the
  // device at Sync() time, not dirty in a frame.
  PageStore* store = cache_->store();
  const size_t page_size = store->page_size();
  if (page_size <= kWalPageHeaderSize) {
    return Status::InvalidArgument("page size too small for an op log page");
  }

  std::vector<uint8_t> stream;
  BOXES_RETURN_IF_ERROR(EncodeWalRecordStream(ops, &stream));

  const size_t max_payload = page_size - kWalPageHeaderSize;
  const uint32_t page_count = static_cast<uint32_t>(
      std::max<size_t>(1, (stream.size() + max_payload - 1) / max_payload));
  const uint32_t attempt = pending_attempt_;

  std::vector<uint8_t> buf(page_size);
  size_t offset = 0;
  Status status;
  for (uint32_t seq = 0; seq < page_count && status.ok(); ++seq) {
    StatusOr<PageId> page = AcquirePage();
    if (!page.ok()) {
      status = page.status();
      break;
    }
    // Track the page before writing it: if the write (or the sync) faults
    // the page is garbage on disk but still ours, and the next truncation
    // retires it.
    active_.push_back(*page);
    const size_t used = std::min(max_payload, stream.size() - offset);
    std::fill(buf.begin(), buf.end(), 0);
    EncodeFixed32(buf.data() + kOffMagic, kWalPageMagic);
    EncodeFixed64(buf.data() + kOffGeneration, generation_);
    EncodeFixed64(buf.data() + kOffBatchId, next_batch_id_);
    EncodeFixed32(buf.data() + kOffPageSeq, seq);
    EncodeFixed32(buf.data() + kOffPageCount, page_count);
    EncodeFixed32(buf.data() + kOffOpCount,
                  static_cast<uint32_t>(ops.size()));
    EncodeFixed32(buf.data() + kOffAttempt, attempt);
    EncodeFixed32(buf.data() + kOffPayloadUsed, static_cast<uint32_t>(used));
    EncodeFixed32(buf.data() + kOffHeaderCrc,
                  Crc32c(buf.data(), kOffHeaderCrc));
    std::memcpy(buf.data() + kWalPageHeaderSize, stream.data() + offset, used);
    // Unjournaled on purpose: a journaled append would be reverted by the
    // rollback pass of the very recovery that must read it (see wal.h).
    status = store->WriteUnjournaled(*page, buf.data());
    offset += used;
  }
  if (status.ok()) {
    // THE durability barrier: one fdatasync per flush. When this returns
    // OK the batch is recoverable, and only then may it be applied and
    // acknowledged.
    status = store->Sync();
  }
  if (!status.ok()) {
    // The batch id is not consumed — a retry re-appends the same id under
    // the next attempt number, and replay picks whichever copy is
    // complete.
    ++pending_attempt_;
    return status;
  }
  ++next_batch_id_;
  pending_attempt_ = 0;
  if (metrics_ != nullptr) {
    metrics_->IncrementCounter("wal.appended_batches");
    metrics_->IncrementCounter("wal.appended_records", ops.size());
    metrics_->IncrementCounter("wal.appended_pages", page_count);
    metrics_->IncrementCounter("wal.sync_calls");
  }
  return Status::OK();
}

Status WalWriter::StartGeneration(uint64_t generation) {
  // Retire, never free: once a page has carried an unjournaled log write
  // it must stay out of the allocator forever. Freeing it would journal a
  // pre-image on reuse, and the rollback pass of a later recovery would
  // then resurrect that pre-image — overwriting whatever acknowledged
  // batch lived there by then. The pool keeps the steady-state page cost
  // bounded by the longest checkpoint interval, and recovery re-learns
  // pool pages from the scan (they keep their magic), so nothing leaks
  // across sessions.
  const uint64_t retired = active_.size();
  pool_.insert(pool_.end(), active_.begin(), active_.end());
  active_.clear();
  // Below-floor allocations the acquisition loop parked are ordinary
  // pages (never written unjournaled); with the checkpoint committed it
  // is safe to hand them back for data use.
  Status first_error;
  for (PageId id : rejects_) {
    // FreePage drops any cached frame then frees in the store; these
    // pages are never cached, so this is a pure allocator operation.
    const Status status = cache_->FreePage(id);
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  }
  rejects_.clear();
  generation_ = generation;
  if (metrics_ != nullptr) {
    metrics_->IncrementCounter("wal.truncations");
    metrics_->IncrementCounter("wal.truncated_pages", retired);
  }
  return first_error;
}

void WalWriter::AdoptPages(const WalScan& scan) {
  for (const WalBatch& batch : scan.batches) {
    active_.insert(active_.end(), batch.pages.begin(), batch.pages.end());
  }
}

StatusOr<WalRecoveryResult> RecoverWithWal(
    PageCache* cache, LabelingScheme* scheme, const SchemeRestorer& restore,
    const WalReplayOptions& bounds, MetricsRegistry* metrics,
    const WalReplayObserver& observer) {
  WalRecoveryResult result;
  BOXES_ASSIGN_OR_RETURN(const SuperblockInfo info, LoadSuperblock(cache));
  result.generation = info.sequence;
  result.checkpoint_head = info.head;
  if (info.head != kInvalidPageId) {
    if (!restore) {
      return Status::InvalidArgument(
          "database holds a checkpoint but no restorer was given");
    }
    BOXES_RETURN_IF_ERROR(restore(info.head));
  }
  BOXES_ASSIGN_OR_RETURN(result.scan, ScanWal(cache->store()));

  WalReplayOptions options = bounds;
  // The generation filter is not a caller knob: batches below the
  // committed sequence are *inside* the checkpoint just restored. Neither
  // is the first-batch anchor: the checkpoint's WAL mark is the id of the
  // first batch it does NOT cover, so replay must start exactly there.
  options.min_generation = info.sequence;
  options.first_batch = info.wal_mark;
  BOXES_RETURN_IF_ERROR(ReplayScannedWal(cache, scheme, result.scan, options,
                                         &result.replay, metrics, observer));
  // Batch ids must stay monotonic across the crash: the mark floors them,
  // and any id the scan saw (even torn or beyond a restore bound) is
  // burned.
  result.next_batch_id =
      std::max(info.wal_mark, result.scan.max_batch_id + 1);
  return result;
}

WalPipeline::WalPipeline(PageCache* cache, LabelingScheme* scheme,
                         WalPipelineOptions options)
    : cache_(cache),
      scheme_(scheme),
      options_(options),
      writer_(cache) {}

Status WalPipeline::Init() {
  BOXES_ASSIGN_OR_RETURN(const SuperblockInfo info, LoadSuperblock(cache_));
  writer_.set_generation(info.sequence);
  // A database that lived before (pool pages from a clean prior session,
  // stale batches a checkpoint superseded) still carries log pages — and
  // log pages are never freed to the allocator, so an open path that
  // ignored them would leak them for the life of the file. Adopt whatever
  // the scan finds: the next truncation retires it all into the recycle
  // pool, which is safe because truncation only runs after a checkpoint
  // covering every prior batch has committed. The scan's max id also
  // floors the next batch id — reusing a burned id under the current
  // generation would make two different batches collide at replay.
  BOXES_ASSIGN_OR_RETURN(const WalScan scan, ScanWal(cache_->store()));
  writer_.AdoptPages(scan);
  writer_.set_next_batch_id(std::max(info.wal_mark, scan.max_batch_id + 1));
  writer_.SetMetrics(scheme_->metrics());
  fencing_token_ = info.fencing_token;
  // The generation filter anchors on the superblock's sequence number, so
  // the superblock must be on the device before the first append is — on a
  // fresh database page 0 is still only dirty in the cache.
  BOXES_RETURN_IF_ERROR(cache_->FlushAll());
  return cache_->store()->Sync();
}

Status WalPipeline::InitFromRecovery(const WalRecoveryResult& recovered) {
  writer_.set_generation(recovered.generation);
  writer_.set_next_batch_id(recovered.next_batch_id);
  writer_.AdoptPages(recovered.scan);
  writer_.SetMetrics(scheme_->metrics());
  BOXES_ASSIGN_OR_RETURN(const SuperblockInfo info, LoadSuperblock(cache_));
  fencing_token_ = info.fencing_token;
  return Status::OK();
}

void WalPipeline::Attach(UpdateBuffer* buffer) {
  buffer->SetDurabilityHook([this](const std::vector<BatchOp>& ops) {
    // AppendBatch consumes the id only on success, so it must be read
    // before the append to know what the batch was logged as.
    const uint64_t batch_id = writer_.next_batch_id();
    BOXES_RETURN_IF_ERROR(writer_.AppendBatch(ops));
    if (ship_hook_) {
      // Fired between "durable on the primary" and "applied": the shipped
      // stream is exactly what recovery would replay, so a standby that
      // applies it converges on the same structure.
      ship_hook_(writer_.generation(), batch_id, ops);
    }
    return Status::OK();
  });
  buffer->SetCommitHook([this] { return OnFlushCommitted(); });
}

Status WalPipeline::OnFlushCommitted() {
  ++flushes_since_checkpoint_;
  // interval 0: never checkpoint automatically (tests and PITR tooling
  // drive CheckpointNow themselves).
  if (options_.checkpoint_interval == 0 ||
      flushes_since_checkpoint_ < options_.checkpoint_interval) {
    return Status::OK();
  }
  return CheckpointNow();
}

Status WalPipeline::CheckpointNow() {
  BOXES_ASSIGN_OR_RETURN(const SuperblockInfo before, LoadSuperblock(cache_));
  StatusOr<PageId> head =
      checkpoint_builder_ ? checkpoint_builder_() : scheme_->Checkpoint();
  if (!head.ok()) {
    return head.status();
  }
  // The new slot's WAL mark = the next unassigned batch id: this
  // checkpoint covers every batch below it, which is exactly what the
  // recovery generation filter expresses from the other side. If the
  // commit faults partway, nothing below is freed — the old checkpoint,
  // its chain, and the whole log survive, and the counter stays over the
  // interval so the next flush retries. (The half-built chain leaks its
  // pages until then; crash recovery never sees them as anything.)
  BOXES_RETURN_IF_ERROR(CommitCheckpoint(cache_, *head,
                                         writer_.next_batch_id(),
                                         fencing_token_));
  flushes_since_checkpoint_ = 0;
  if (before.head != kInvalidPageId) {
    BOXES_RETURN_IF_ERROR(FreeMetadataChain(cache_, before.head));
  }
  // Truncation: every logged batch is now inside the checkpoint (or
  // stale); reclaim the pages and append under the new sequence.
  return writer_.StartGeneration(before.sequence + 1);
}

}  // namespace boxes
