#include "core/naive/naive.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/metadata_io.h"
#include "util/coding.h"

namespace boxes {

namespace {

/// Upper bound on value_limbs_ so records fit stack buffers; allows labels
/// of up to 8*64 = 512 bits (gap_bits up to ~460).
constexpr size_t kMaxValueLimbs = 8;

size_t ValueLimbs(const NaiveOptions& options) {
  // Values stay at or below (live + 1) << gap_bits; one extra bit of slack.
  const uint32_t bits = options.gap_bits + options.count_bits + 1;
  return (bits + 63) / 64;
}

}  // namespace

NaiveScheme::NaiveScheme(PageCache* cache, NaiveOptions options)
    : cache_(cache),
      options_(options),
      value_limbs_(ValueLimbs(options)),
      lidf_(cache, /*payload_size=*/2 * ValueLimbs(options) * 8) {
  BOXES_CHECK(options_.gap_bits >= 1);
  BOXES_CHECK(value_limbs_ <= kMaxValueLimbs);
}

NaiveScheme::~NaiveScheme() = default;

StatusOr<NaiveScheme::Record> NaiveScheme::ReadRecord(Lid lid) const {
  uint8_t payload[2 * kMaxValueLimbs * 8];
  BOXES_RETURN_IF_ERROR(lidf_.Read(lid, payload));
  Record record;
  record.value = BigUint::Deserialize(payload, value_limbs_);
  record.gap = BigUint::Deserialize(payload + value_limbs_ * 8, value_limbs_);
  return record;
}

Status NaiveScheme::WriteRecord(Lid lid, const Record& record) {
  uint8_t payload[2 * kMaxValueLimbs * 8];
  record.value.Serialize(payload, value_limbs_);
  record.gap.Serialize(payload + value_limbs_ * 8, value_limbs_);
  return lidf_.Write(lid, payload);
}

StatusOr<Label> NaiveScheme::Lookup(Lid lid) {
  ScopedTimer timer(metrics_, name() + ".lookup.us");
  ScopedPhase io_phase(cache_, IoPhase::kSearch);
  BOXES_ASSIGN_OR_RETURN(const Record record, ReadRecord(lid));
  return Label::FromBigUint(record.value, value_limbs_);
}

Status NaiveScheme::InsertBefore(Lid lid_new, Lid lid_old) {
  BOXES_ASSIGN_OR_RETURN(Record old_record, ReadRecord(lid_old));
  if (old_record.gap < BigUint(2)) {
    // The gap is exhausted: relabel the world (the adversarial case).
    BOXES_RETURN_IF_ERROR(RelabelAll());
    BOXES_ASSIGN_OR_RETURN(old_record, ReadRecord(lid_old));
    BOXES_CHECK(!(old_record.gap < BigUint(2)));
  }
  // Midpoint split: new = old - floor(gap/2); the new record's gap is
  // ceil(gap/2) and the old record keeps floor(gap/2).
  const BigUint half = old_record.gap.Half();
  Record fresh;
  fresh.value = old_record.value.Sub(half);
  fresh.gap = old_record.gap.Sub(half);
  old_record.gap = half;
  BOXES_RETURN_IF_ERROR(WriteRecord(lid_new, fresh));
  return WriteRecord(lid_old, old_record);
}

StatusOr<NewElement> NaiveScheme::InsertElementBefore(Lid lid) {
  if (lidf_.live_records() == 0) {
    return Status::FailedPrecondition("naive scheme is empty");
  }
  ScopedTimer timer(metrics_, name() + ".insert.us");
  BOXES_ASSIGN_OR_RETURN(const auto lids, lidf_.AllocatePair());
  BOXES_RETURN_IF_ERROR(InsertBefore(lids.second, lid));
  BOXES_RETURN_IF_ERROR(InsertBefore(lids.first, lids.second));
  return NewElement{lids.first, lids.second};
}

StatusOr<NewElement> NaiveScheme::InsertFirstElement() {
  if (lidf_.live_records() != 0) {
    return Status::FailedPrecondition("naive scheme is not empty");
  }
  BOXES_ASSIGN_OR_RETURN(const auto lids, lidf_.AllocatePair());
  const BigUint gap = BigUint::PowerOfTwo(options_.gap_bits);
  Record start{gap, gap};
  Record end{gap.MulU64(2), gap};
  BOXES_RETURN_IF_ERROR(WriteRecord(lids.first, start));
  BOXES_RETURN_IF_ERROR(WriteRecord(lids.second, end));
  max_value_ = end.value;
  return NewElement{lids.first, lids.second};
}

Status NaiveScheme::Delete(Lid lid) {
  ScopedTimer timer(metrics_, name() + ".delete.us");
  // Freeing the record leaves the successor's stored gap conservatively
  // small; labels never change on deletion.
  return lidf_.Free(lid);
}

Status NaiveScheme::BulkLoad(const xml::Document& doc,
                             std::vector<NewElement>* lids_out) {
  if (lidf_.live_records() != 0) {
    return Status::FailedPrecondition(
        "BulkLoad requires an empty naive scheme");
  }
  ScopedPhase io_phase(cache_, IoPhase::kBulkLoad);
  std::vector<NewElement> lids(doc.element_count());
  const BigUint gap = BigUint::PowerOfTwo(options_.gap_bits);
  uint64_t position = 0;
  Status status = Status::OK();
  doc.ForEachTag([&](xml::ElementId id, bool is_start) {
    if (!status.ok()) {
      return;
    }
    Lid lid;
    if (is_start) {
      StatusOr<std::pair<Lid, Lid>> pair = lidf_.AllocatePair();
      if (!pair.ok()) {
        status = pair.status();
        return;
      }
      lids[id] = NewElement{pair->first, pair->second};
      lid = pair->first;
    } else {
      lid = lids[id].end;
    }
    ++position;
    Record record{gap.MulU64(position), gap};
    status = WriteRecord(lid, record);
  });
  BOXES_RETURN_IF_ERROR(status);
  max_value_ = gap.MulU64(position);
  if (lids_out != nullptr) {
    *lids_out = std::move(lids);
  }
  return Status::OK();
}

Status NaiveScheme::ApplyBatch(std::vector<BatchOp>* ops,
                               BatchStats* stats) {
  // Count the labels headed for the gap before each anchor: an element
  // insert contributes its start and end, a subtree insert two labels per
  // element. `m` labels nesting into one gap can split it up to `m` times,
  // so gap >= 2^m guarantees the batch cannot exhaust it.
  std::unordered_map<Lid, uint64_t> incoming;
  for (const BatchOp& op : *ops) {
    if (op.kind == BatchOp::Kind::kInsertElementBefore) {
      incoming[op.anchor] += 2;
    } else if (op.kind == BatchOp::Kind::kInsertSubtreeBefore &&
               op.subtree != nullptr) {
      incoming[op.anchor] += 2 * op.subtree->element_count();
    }
  }
  uint64_t exhausted_anchors = 0;
  for (const auto& [anchor, count] : incoming) {
    if (!lidf_.IsLive(anchor)) {
      continue;  // bad anchors surface their error when the op applies
    }
    StatusOr<Record> record = ReadRecord(anchor);
    if (!record.ok()) {
      continue;
    }
    // Anchors needing more nesting depth than a fresh 2^k gap offers are
    // treated as exhausted too: relabeling up front still buys the
    // longest possible runway before the unavoidable mid-batch pass.
    const uint32_t shift = static_cast<uint32_t>(
        std::min<uint64_t>(count, options_.gap_bits));
    if (record->gap < BigUint::PowerOfTwo(shift)) {
      ++exhausted_anchors;
    }
  }
  if (exhausted_anchors > 0) {
    // One preemptive full-file pass replaces up to `exhausted_anchors`
    // op-triggered passes — the batch pipeline's relabel coalescing.
    BOXES_RETURN_IF_ERROR(RelabelAll());
    if (stats != nullptr) {
      stats->coalesced_relabels += exhausted_anchors;
    }
  }
  return LabelingScheme::ApplyBatch(ops, stats);
}

uint64_t NaiveScheme::BatchLocalityKey(const BatchOp& op) {
  const StatusOr<PageId> page = lidf_.PageOf(op.anchor);
  return page.ok() ? *page : 0;
}

Status NaiveScheme::RelabelAll() {
  ScopedPhase io_phase(cache_, IoPhase::kRelabel);
  ScopedTimer timer(metrics_, name() + ".relabel_all.us");
  // Pass 1: read every live record (the whole file) and sort by value in
  // memory (the paper grants the naive scheme free in-memory sorting).
  // Fixed-width limb keys avoid per-record allocations: relabeling is the
  // hot path of the adversarial experiments.
  uint64_t live = 0;
  Lid max_lid = 0;
  std::vector<uint64_t> rank_of;  // fresh value = rank_of[lid] << gap_bits
  if (value_limbs_ == 1) {
    // Fast path for word-sized values (small k): plain pair sort.
    std::vector<std::pair<uint64_t, Lid>> keys;
    keys.reserve(lidf_.live_records());
    BOXES_RETURN_IF_ERROR(
        lidf_.ForEachLive([&](Lid lid, const uint8_t* payload) {
          keys.push_back({DecodeFixed64(payload), lid});
          max_lid = std::max(max_lid, lid);
          return Status::OK();
        }));
    std::sort(keys.begin(), keys.end());
    rank_of.assign(max_lid + 1, 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      rank_of[keys[i].second] = i + 1;
    }
    live = keys.size();
  } else {
    struct Key {
      std::array<uint64_t, kMaxValueLimbs> limbs;  // little-endian
      Lid lid;
    };
    std::vector<Key> keys;
    keys.reserve(lidf_.live_records());
    BOXES_RETURN_IF_ERROR(
        lidf_.ForEachLive([&](Lid lid, const uint8_t* payload) {
          Key key;
          key.limbs.fill(0);
          for (size_t i = 0; i < value_limbs_; ++i) {
            key.limbs[i] = DecodeFixed64(payload + i * 8);
          }
          key.lid = lid;
          keys.push_back(key);
          max_lid = std::max(max_lid, lid);
          return Status::OK();
        }));
    std::sort(keys.begin(), keys.end(), [this](const Key& a, const Key& b) {
      for (size_t i = value_limbs_; i-- > 0;) {
        if (a.limbs[i] != b.limbs[i]) {
          return a.limbs[i] < b.limbs[i];
        }
      }
      return false;
    });
    rank_of.assign(max_lid + 1, 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      rank_of[keys[i].lid] = i + 1;
    }
    live = keys.size();
  }
  // Pass 2: rewrite every record as (rank << k, 2^k), one page access per
  // LIDF page.
  const uint32_t limb_index = options_.gap_bits / 64;
  const uint32_t bit_shift = options_.gap_bits % 64;
  const size_t record_bytes = lidf_.payload_size();
  BOXES_RETURN_IF_ERROR(
      lidf_.ForEachLiveMutable([&](Lid lid, uint8_t* payload) {
        std::memset(payload, 0, record_bytes);
        const uint64_t rank = rank_of[lid];
        if (bit_shift == 0) {
          EncodeFixed64(payload + limb_index * 8, rank);
        } else {
          EncodeFixed64(payload + limb_index * 8, rank << bit_shift);
          if (limb_index + 1 < value_limbs_) {
            EncodeFixed64(payload + (limb_index + 1) * 8,
                          rank >> (64 - bit_shift));
          }
        }
        uint8_t* gap_bytes = payload + value_limbs_ * 8;
        EncodeFixed64(gap_bytes + limb_index * 8,
                      bit_shift == 0 ? 1 : uint64_t{1} << bit_shift);
        return Status::OK();
      }));
  max_value_ = BigUint(live).ShiftLeft(options_.gap_bits);
  ++relabel_count_;
  if (listener_ != nullptr) {
    // Every label changed; nothing succinct describes the effect.
    listener_->OnInvalidateRange(
        Label::FromBigUint(BigUint(0), value_limbs_),
        Label::FromBigUint(BigUint::PowerOfTwo(
                               static_cast<uint32_t>(value_limbs_ * 64 - 1)),
                           value_limbs_));
  }
  return Status::OK();
}

namespace {
constexpr uint64_t kNaiveCheckpointMagic = 0x315649414eULL;  // "NAIV1"
}  // namespace

StatusOr<PageId> NaiveScheme::Checkpoint() {
  MetadataWriter writer;
  writer.PutU64(kNaiveCheckpointMagic);
  writer.PutU32(options_.gap_bits);
  writer.PutU32(options_.count_bits);
  writer.PutU64(cache_->page_size());
  writer.PutU64(relabel_count_);
  std::vector<uint8_t> max_value(value_limbs_ * 8);
  max_value_.Serialize(max_value.data(), value_limbs_);
  writer.PutBytes(max_value.data(), max_value.size());
  lidf_.SaveState(&writer);
  // Durability is the commit's job: CommitCheckpoint flushes and syncs the
  // chain (with every dirty data page) before flipping the superblock, so
  // syncing here too would just double the fdatasync bill per checkpoint.
  return writer.Finish(cache_);
}

Status NaiveScheme::Restore(PageId checkpoint_head) {
  if (lidf_.live_records() != 0) {
    return Status::FailedPrecondition(
        "Restore requires an empty naive scheme");
  }
  BOXES_ASSIGN_OR_RETURN(MetadataReader reader,
                         MetadataReader::Load(cache_, checkpoint_head));
  BOXES_ASSIGN_OR_RETURN(const uint64_t magic, reader.GetU64());
  if (magic != kNaiveCheckpointMagic) {
    return Status::Corruption("not a naive-k checkpoint");
  }
  BOXES_ASSIGN_OR_RETURN(const uint32_t gap_bits, reader.GetU32());
  BOXES_ASSIGN_OR_RETURN(const uint32_t count_bits, reader.GetU32());
  BOXES_ASSIGN_OR_RETURN(const uint64_t page_size, reader.GetU64());
  if (gap_bits != options_.gap_bits || count_bits != options_.count_bits ||
      page_size != cache_->page_size()) {
    return Status::InvalidArgument(
        "checkpoint options do not match this naive scheme");
  }
  BOXES_ASSIGN_OR_RETURN(relabel_count_, reader.GetU64());
  std::vector<uint8_t> max_value(value_limbs_ * 8);
  BOXES_RETURN_IF_ERROR(reader.GetBytes(max_value.data(), max_value.size()));
  max_value_ = BigUint::Deserialize(max_value.data(), value_limbs_);
  return lidf_.LoadState(&reader);
}

StatusOr<SchemeStats> NaiveScheme::GetStats() {
  SchemeStats stats;
  stats.height = 0;
  stats.index_pages = 0;  // the LIDF is the whole structure
  stats.lidf_pages = lidf_.page_count();
  stats.live_labels = lidf_.live_records();
  stats.max_label_bits = max_value_.BitLength();
  return stats;
}

Status NaiveScheme::CheckInvariants() {
  // Values must be positive, distinct, and each gap must not exceed the
  // distance to the previous live value (gaps may under-report after
  // deletions, never over-report).
  std::vector<std::pair<BigUint, BigUint>> records;  // (value, gap)
  BOXES_RETURN_IF_ERROR(
      lidf_.ForEachLive([&](Lid lid, const uint8_t* payload) {
        (void)lid;
        records.push_back(
            {BigUint::Deserialize(payload, value_limbs_),
             BigUint::Deserialize(payload + value_limbs_ * 8, value_limbs_)});
        return Status::OK();
      }));
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  BigUint prev(0);
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].first.IsZero()) {
      return Status::Corruption("naive label value is zero");
    }
    if (i > 0 && records[i].first == records[i - 1].first) {
      return Status::Corruption("duplicate naive label value");
    }
    const BigUint distance = records[i].first.Sub(prev);
    if (distance < records[i].second) {
      return Status::Corruption("naive gap exceeds distance to predecessor");
    }
    prev = records[i].first;
  }
  return Status::OK();
}

}  // namespace boxes
