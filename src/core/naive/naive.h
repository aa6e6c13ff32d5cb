#ifndef BOXES_CORE_NAIVE_NAIVE_H_
#define BOXES_CORE_NAIVE_NAIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/common/labeling_scheme.h"
#include "lidf/lidf.h"
#include "storage/page_cache.h"
#include "util/biguint.h"
#include "util/status.h"

namespace boxes {

/// Configuration of the naive-k baseline.
struct NaiveOptions {
  /// k: extra bits per label; adjacent labels start 2^k apart.
  uint32_t gap_bits = 16;

  /// Bits budgeted for the label count (labels use ~gap_bits + count_bits
  /// bits; determines the fixed record width).
  uint32_t count_bits = 40;
};

/// The naive gap-based relabeling scheme (paper §1/§7, "naive-k").
///
/// Every LIDF record directly stores the label value and the gap to the
/// previous label. Labels start 2^k apart; an insertion takes the midpoint
/// of the predecessor gap. When a gap is exhausted the ENTIRE file is
/// relabeled with fresh 2^k gaps — the failure mode the BOXes exist to
/// avoid. For large k the values exceed a machine word, so label arithmetic
/// runs on BigUint (the paper's point about long labels).
///
/// Deletions free the LID; the successor's stored gap goes conservatively
/// stale (it under-reports the real gap), which never causes collisions but
/// may trigger relabeling early.
class NaiveScheme : public LabelingScheme {
 public:
  NaiveScheme(PageCache* cache, NaiveOptions options = {});
  ~NaiveScheme() override;

  NaiveScheme(const NaiveScheme&) = delete;
  NaiveScheme& operator=(const NaiveScheme&) = delete;

  std::string name() const override {
    return "naive-" + std::to_string(options_.gap_bits);
  }

  StatusOr<Label> Lookup(Lid lid) override;
  StatusOr<NewElement> InsertElementBefore(Lid lid) override;
  StatusOr<NewElement> InsertFirstElement() override;
  Status Delete(Lid lid) override;
  Status BulkLoad(const xml::Document& doc,
                  std::vector<NewElement>* lids_out) override;
  /// Batch application with relabel coalescing: scans the batch for
  /// anchors whose stored gap cannot absorb the inserts headed their way
  /// and, if any exist, runs ONE preemptive RelabelAll for the whole batch
  /// instead of letting each exhausted anchor trigger its own full-file
  /// relabel mid-batch (the scheme's dominant cost).
  Status ApplyBatch(std::vector<BatchOp>* ops, BatchStats* stats) override;
  /// Batch ops sort by the LIDF page of their anchor — the record file IS
  /// the structure here, so LIDF-page order is label-locality order up to
  /// allocation churn.
  uint64_t BatchLocalityKey(const BatchOp& op) override;
  StatusOr<SchemeStats> GetStats() override;
  Status CheckInvariants() override;

  const NaiveOptions& options() const { return options_; }
  Lidf* lidf() override { return &lidf_; }
  uint64_t live_labels() const { return lidf_.live_records(); }
  /// Number of global relabelings performed (the scheme's pain metric).
  uint64_t relabel_count() const { return relabel_count_; }

  /// Persists all in-memory metadata into a metadata chain (see
  /// WBox::Checkpoint).
  StatusOr<PageId> Checkpoint() override;

  /// Restores a checkpoint into this freshly constructed instance.
  Status Restore(PageId checkpoint_head) override;

 private:
  struct Record {
    BigUint value;
    BigUint gap;  // distance to the previous label (or to 0 for the first)
  };

  StatusOr<Record> ReadRecord(Lid lid) const;
  Status WriteRecord(Lid lid, const Record& record);

  /// Places a new label halfway into the gap before `lid_old`; relabels
  /// everything first if the gap is exhausted.
  Status InsertBefore(Lid lid_new, Lid lid_old);

  /// Reassigns every live label to (i+1)·2^k in value order (paper: sort
  /// the LIDF in memory, rewrite every record).
  Status RelabelAll();

  PageCache* cache_;  // not owned
  const NaiveOptions options_;
  const size_t value_limbs_;
  Lidf lidf_;
  BigUint max_value_;
  uint64_t relabel_count_ = 0;
};

}  // namespace boxes

#endif  // BOXES_CORE_NAIVE_NAIVE_H_
