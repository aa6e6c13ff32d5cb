#ifndef BOXES_CORE_CACHELOG_MOD_LOG_H_
#define BOXES_CORE_CACHELOG_MOD_LOG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "core/common/label.h"

namespace boxes {

/// One logged modification effect (paper §6): either a range shift that can
/// be replayed onto a cached label, a range invalidation, or an ordinal
/// shift for ordinal-label caching.
struct LogEntry {
  enum class Kind { kShift, kInvalidate, kOrdinalShift };

  uint64_t timestamp = 0;
  Kind kind = Kind::kShift;
  Label lo;
  Label hi;
  int64_t delta = 0;
  uint64_t ordinal_from = 0;
};

/// Outcome of replaying logged effects onto a cached value.
enum class ReplayResult {
  kUsable,  // value updated in place; still valid
  kStale,   // too old or invalidated; caller must re-look it up
};

/// Adds `delta` to `*value` with overflow/underflow detection. Returns
/// false (leaving `*value` unspecified) when the shift would wrap — a
/// negative delta larger than the value, or a positive one past UINT64_MAX.
/// Replay treats a wrapping shift as staleness: the cached value cannot be
/// repaired and the caller must re-look it up.
inline bool CheckedShift(uint64_t* value, int64_t delta) {
  if (delta < 0) {
    // Two's-complement negation on the unsigned representation is well
    // defined even for INT64_MIN.
    const uint64_t magnitude = ~static_cast<uint64_t>(delta) + 1;
    if (magnitude > *value) {
      return false;
    }
    *value -= magnitude;
  } else {
    const uint64_t magnitude = static_cast<uint64_t>(delta);
    if (*value + magnitude < *value) {
      return false;
    }
    *value += magnitude;
  }
  return true;
}

/// Interface of a modification log usable by the caching layer. Two
/// implementations exist: ModificationLog (the paper's plain FIFO, O(k)
/// replay scans) and IndexedModificationLog (the paper's §8 future-work
/// item: an indexed store with O(log k) per relevant entry).
class ReplayLog {
 public:
  virtual ~ReplayLog() = default;

  virtual size_t capacity() const = 0;
  /// Current logical time: the timestamp of the latest modification.
  virtual uint64_t now() const = 0;

  /// Records a modification, assigning it the next timestamp and dropping
  /// the oldest entry beyond capacity.
  virtual void Append(LogEntry entry) = 0;

  void AppendShift(const Label& lo, const Label& hi, int64_t delta);
  void AppendInvalidate(const Label& lo, const Label& hi);
  void AppendOrdinalShift(uint64_t from, int64_t delta);

  /// Replays all modifications after `last_cached` onto `*label`.
  virtual ReplayResult Replay(uint64_t last_cached, Label* label) const = 0;

  /// Replays ordinal shifts after `last_cached` onto `*ordinal`. Value
  /// range invalidations do not affect ordinal labels.
  virtual ReplayResult ReplayOrdinal(uint64_t last_cached,
                                     uint64_t* ordinal) const = 0;
};

/// In-memory FIFO of the last k modifications to a labeled document
/// (paper §6, "Caching and logging approach").
///
/// The log assigns monotonically increasing timestamps. A cached value
/// carrying `last_cached = T` reflects all modifications with timestamp
/// <= T; it is usable iff every later modification is still in the log, in
/// which case those entries are replayed onto it in order.
///
/// Capacity 0 degenerates to the "basic caching approach": a single
/// last-modified timestamp, usable only if nothing changed since caching.
class ModificationLog : public ReplayLog {
 public:
  using ReplayResult = boxes::ReplayResult;  // historical spelling

  explicit ModificationLog(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const override { return capacity_; }
  uint64_t now() const override { return clock_; }
  void Append(LogEntry entry) override;
  ReplayResult Replay(uint64_t last_cached, Label* label) const override;
  ReplayResult ReplayOrdinal(uint64_t last_cached,
                             uint64_t* ordinal) const override;

 private:
  bool CoversSince(uint64_t last_cached) const {
    // Entries (clock_ - entries_.size(), clock_] are present.
    return last_cached + entries_.size() >= clock_;
  }

  /// The first entry newer than `last_cached`, found by arithmetic: the
  /// timestamps are contiguous, so with CoversSince(last_cached) it sits at
  /// index last_cached + size - clock_.
  std::deque<LogEntry>::const_iterator FirstEntryAfter(
      uint64_t last_cached) const {
    const uint64_t skip = std::min<uint64_t>(
        last_cached + entries_.size() - clock_, entries_.size());
    return entries_.begin() + static_cast<std::ptrdiff_t>(skip);
  }

  const size_t capacity_;
  uint64_t clock_ = 0;
  std::deque<LogEntry> entries_;
};

}  // namespace boxes

#endif  // BOXES_CORE_CACHELOG_MOD_LOG_H_
