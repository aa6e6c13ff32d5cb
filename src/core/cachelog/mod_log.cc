#include "core/cachelog/mod_log.h"

#include <vector>

#include "util/status.h"

namespace boxes {

void ReplayLog::AppendShift(const Label& lo, const Label& hi,
                            int64_t delta) {
  LogEntry entry;
  entry.kind = LogEntry::Kind::kShift;
  entry.lo = lo;
  entry.hi = hi;
  entry.delta = delta;
  Append(std::move(entry));
}

void ReplayLog::AppendInvalidate(const Label& lo, const Label& hi) {
  LogEntry entry;
  entry.kind = LogEntry::Kind::kInvalidate;
  entry.lo = lo;
  entry.hi = hi;
  Append(std::move(entry));
}

void ReplayLog::AppendOrdinalShift(uint64_t from, int64_t delta) {
  LogEntry entry;
  entry.kind = LogEntry::Kind::kOrdinalShift;
  entry.ordinal_from = from;
  entry.delta = delta;
  Append(std::move(entry));
}

void ModificationLog::Append(LogEntry entry) {
  entry.timestamp = ++clock_;
  if (capacity_ == 0) {
    return;  // basic caching: only the clock is kept
  }
  entries_.push_back(std::move(entry));
  if (entries_.size() > capacity_) {
    entries_.pop_front();
  }
}

ModificationLog::ReplayResult ModificationLog::Replay(uint64_t last_cached,
                                                      Label* label) const {
  if (!CoversSince(last_cached)) {
    return ReplayResult::kStale;
  }
  for (auto it = FirstEntryAfter(last_cached); it != entries_.end(); ++it) {
    const LogEntry& entry = *it;
    switch (entry.kind) {
      case LogEntry::Kind::kShift: {
        if (entry.lo <= *label && *label <= entry.hi) {
          std::vector<uint64_t> components = label->components();
          BOXES_CHECK(!components.empty());
          if (!CheckedShift(&components.back(), entry.delta)) {
            // The shift would wrap the component (e.g. a negative delta
            // larger than the last component); the cached value cannot be
            // repaired by replay.
            return ReplayResult::kStale;
          }
          *label = Label::FromComponents(std::move(components));
        }
        break;
      }
      case LogEntry::Kind::kInvalidate:
        if (entry.lo <= *label && *label <= entry.hi) {
          return ReplayResult::kStale;
        }
        break;
      case LogEntry::Kind::kOrdinalShift:
        break;  // does not affect value labels
    }
  }
  return ReplayResult::kUsable;
}

ModificationLog::ReplayResult ModificationLog::ReplayOrdinal(
    uint64_t last_cached, uint64_t* ordinal) const {
  if (!CoversSince(last_cached)) {
    return ReplayResult::kStale;
  }
  for (auto it = FirstEntryAfter(last_cached); it != entries_.end(); ++it) {
    const LogEntry& entry = *it;
    if (entry.kind != LogEntry::Kind::kOrdinalShift) {
      continue;
    }
    if (*ordinal >= entry.ordinal_from) {
      if (!CheckedShift(ordinal, entry.delta)) {
        return ReplayResult::kStale;
      }
    }
  }
  return ReplayResult::kUsable;
}

}  // namespace boxes
