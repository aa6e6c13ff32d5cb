#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>

#include "core/bbox/bbox.h"
#include "core/common/epoch_guard.h"
#include "query/structural_join.h"
#include "query/twig.h"
#include "storage/snapshot.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/runner.h"

namespace perfbench {

using boxes::xml::Document;
using boxes::xml::ElementId;

// --------------------------------------------------------------------------
// Samples

Samples::Samples(size_t capacity) : kept_(capacity, 0) {}

void Samples::Decimate() {
  // Kept samples are operations stride, 2*stride, ...; doubling the stride
  // keeps the odd positions 2*stride, 4*stride, ...
  for (size_t i = 0; i < size_ / 2; ++i) {
    kept_[i] = kept_[2 * i + 1];
  }
  size_ /= 2;
  stride_ *= 2;
}

double Samples::Quantile(double q) const {
  if (size_ == 0) {
    return 0;
  }
  std::vector<uint64_t> sorted(kept_.begin(),
                               kept_.begin() + static_cast<ptrdiff_t>(size_));
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(size_)));
  rank = std::clamp<size_t>(rank, 1, size_) - 1;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<ptrdiff_t>(rank), sorted.end());
  return static_cast<double>(sorted[rank]);
}

std::pair<double, double> Samples::Tail() const {
  double level = 0;
  for (double beyond = 0.01; static_cast<double>(count_) * beyond >= 10;
       beyond /= 10) {
    level = 1 - beyond;
  }
  if (level == 0) {
    return {0, 0};
  }
  return {level, Quantile(level)};
}

// --------------------------------------------------------------------------
// Result

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Result::Fail(const std::string& what) {
  ++failed_;
  // Every failure is counted; the first ones are printed in full.
  if (failed_ <= 20) {
    std::printf("FAILED: %s\n", what.c_str());
  } else if (failed_ == 21) {
    std::printf("FAILED: (further failures counted, not printed)\n");
  }
}

bool Result::Check(const Status& status, const std::string& what) {
  if (status.ok()) {
    return true;
  }
  Fail(what + ": " + status.ToString());
  return false;
}

void Result::PrintTiming(const char* name, const Samples& timing,
                         double divisor, const char* unit, double ref_ns) {
  const auto [level, tail] = timing.Tail();
  const double p50 = timing.Quantile(0.5);
  std::printf("  %-26s p50=%.3f %s (%.3f ref)  p99=%.3f %s", name,
              p50 / divisor, unit, ref_ns > 0 ? p50 / ref_ns : 0,
              timing.Quantile(0.99) / divisor, unit);
  if (level > 0) {
    std::printf("  p%g=%.3f %s", level * 100, tail / divisor, unit);
  }
  std::printf("  n=%llu\n", static_cast<unsigned long long>(timing.count()));
}

void Result::PrintSetup(const Samples& setups, double ref_ns) {
  std::printf("  %-26s %.4f s at a %.0f-ns ref (wall median %.4f s)  n=%llu\n",
              "setup_s", SetupSeconds(setups, ref_ns), kNominalRefNs,
              setups.Quantile(0.5) / 1e9,
              static_cast<unsigned long long>(setups.count()));
}

void Result::PrintJson() const {
  std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double value =
        std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --------------------------------------------------------------------------
// Tracing

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[] = {
      "op",          "page_cache.begin_op", "page_cache.end_op",
      "scheme.lookup_call", "scheme.insert_call", "scheme.lookup_shared",
      "query",       "query.match_twig",    "query.collect_intervals",
      "update_buffer.enqueue", "update_buffer.flush", "wal.checkpoint_build",
      "overlay.recompile", "store.read", "store.write",
      "store.write_unjournaled", "store.sync"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

Tracer::Tracer(uint64_t raw_requests) : raw_requests_(raw_requests) {
  stack_.reserve(16);
}

void Tracer::Open(SpanName name) {
  int64_t raw_index = -1;
  if (request_ <= raw_requests_) {
    raw_index = static_cast<int64_t>(raw_.size());
    raw_.push_back(RawSpan{name,
                           stack_.empty() ? -1 : stack_.back().raw_index,
                           request_, 0, 0});
  }
  stack_.push_back(OpenSpan{name, NowNs(), 0, raw_index});
}

void Tracer::Close() {
  const uint64_t end = NowNs();
  const OpenSpan span = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - span.start_ns;
  SpanStats& stats = stats_[static_cast<size_t>(span.name)];
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - std::min(duration, span.child_ns);
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (Samples* samples = durations_[static_cast<size_t>(span.name)].get()) {
    samples->Add(duration);
  }
  if (span.raw_index >= 0) {
    raw_[static_cast<size_t>(span.raw_index)].start_ns = span.start_ns;
    raw_[static_cast<size_t>(span.raw_index)].end_ns = end;
  }
}

Status Tracer::WriteRaw(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot write " + path);
  }
  for (size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& span = raw_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << SpanNameString(span.name)
        << "\", \"request\": " << span.request << ", \"parent\": "
        << span.parent << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << "}\n";
  }
  return out.good() ? Status::OK() : Status::IoError("short write " + path);
}

// --------------------------------------------------------------------------
// CountingStore

Status CountingStore::Read(PageId id, uint8_t* buf) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Span span(tracer_, SpanName::kStoreRead);
  return base_->Read(id, buf);
}

Status CountingStore::Write(PageId id, const uint8_t* buf) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  Span span(tracer_, SpanName::kStoreWrite);
  return base_->Write(id, buf);
}

Status CountingStore::WriteUnjournaled(PageId id, const uint8_t* buf) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  Span span(tracer_, SpanName::kStoreWriteUnjournaled);
  return base_->WriteUnjournaled(id, buf);
}

Status CountingStore::Sync() {
  syncs_.fetch_add(1, std::memory_order_relaxed);
  Span span(tracer_, SpanName::kStoreSync);
  const uint64_t start = NowNs();
  Status status = base_->Sync();
  sync_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  return status;
}

// --------------------------------------------------------------------------
// Helpers

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double SpaceBytesPerLabel(const boxes::SchemeStats& stats, size_t page_size) {
  if (stats.live_labels == 0) {
    return 0;
  }
  return static_cast<double>((stats.index_pages + stats.lidf_pages) *
                             page_size) /
         static_cast<double>(stats.live_labels);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --------------------------------------------------------------------------
// Yardstick and slices

namespace {

constexpr uint64_t kYardstickKeys = 262144;
constexpr int kYardstickFinds = 32768;  // one chunk, about 2 ms

uint64_t YardstickKey(uint64_t i) { return i * 2654435761ull; }

}  // namespace

Yardstick::Yardstick() {
  table_.reserve(kYardstickKeys);
  for (uint64_t i = 0; i < kYardstickKeys; ++i) {
    table_.emplace(YardstickKey(i), i);
  }
}

double Yardstick::TimeChunk(uint64_t* state) const {
  uint64_t x = *state;
  uint64_t sum = 0;
  const uint64_t start = NowNs();
  for (int i = 0; i < kYardstickFinds; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sum += table_.find(YardstickKey((x >> 33) % kYardstickKeys))->second;
  }
  const uint64_t elapsed = NowNs() - start;
  // The found values feed the generator, so no find can be optimized away.
  *state = x ^ sum;
  return static_cast<double>(elapsed) / kYardstickFinds;
}

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          allowed.push_back(cpu);
        }
      }
    }
    return allowed;
  }();
  return cpus;
}

Slicer::Slicer(const Yardstick* yardstick, std::vector<int> cpus)
    : yardstick_(yardstick), cpus_(std::move(cpus)) {}

void Slicer::Close(uint64_t now) {
  total_ops_ += ops_;
  total_ns_ += now - start_ns_;
  ops_ = 0;
  if (!cpus_.empty()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[++next_cpu_ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  chunk_ns_.push_back(yardstick_->TimeChunk(&state_));
  start_ns_ = NowNs();
}

double SetupSeconds(const Samples& setups, double ref_ns) {
  return ref_ns > 0 ? setups.Quantile(0.5) / ref_ns * kNominalRefNs / 1e9 : 0;
}

double Slicer::ops_per_s() const {
  return total_ns_ == 0 ? 0
                        : static_cast<double>(total_ops_) /
                              (static_cast<double>(total_ns_) / 1e9);
}

namespace {

// Label-free twig evaluation by walking the document tree (the same ground
// truth TwigMatchTest uses).
bool SubtreeMatches(const Document& doc, ElementId root,
                    const boxes::query::TwigPattern& pattern);

bool HasMatchingDescendant(const Document& doc, ElementId root,
                           const boxes::query::TwigPattern& pattern) {
  for (ElementId child : doc.element(root).children) {
    if (SubtreeMatches(doc, child, pattern) ||
        HasMatchingDescendant(doc, child, pattern)) {
      return true;
    }
  }
  return false;
}

bool SubtreeMatches(const Document& doc, ElementId root,
                    const boxes::query::TwigPattern& pattern) {
  if (doc.element(root).tag != pattern.tag) {
    return false;
  }
  for (const boxes::query::TwigPattern& child : pattern.children) {
    if (!HasMatchingDescendant(doc, root, child)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<ElementId> BruteForceTwigRoots(const Document& doc,
                                           const std::string& pattern_text) {
  const StatusOr<boxes::query::TwigPattern> pattern =
      boxes::query::ParseTwigPattern(pattern_text);
  BOXES_CHECK_OK(pattern.status());
  std::vector<ElementId> roots;
  for (ElementId id = 0; id < doc.element_count(); ++id) {
    if (SubtreeMatches(doc, id, *pattern)) {
      roots.push_back(id);
    }
  }
  return roots;
}

void CheckDocumentOrder(boxes::LabelingScheme* scheme, const Document& doc,
                        const std::vector<NewElement>& lids, Result* result) {
  boxes::Label previous;
  bool first = true;
  doc.ForEachTag([&](ElementId id, bool is_start) {
    const Lid lid = is_start ? lids[id].start : lids[id].end;
    StatusOr<boxes::Label> label = scheme->Lookup(lid);
    if (!label.ok()) {
      result->Fail("order check lookup of element " + std::to_string(id) +
                   ": " + label.status().ToString());
      return;
    }
    if (!first && !(previous < *label)) {
      result->Fail("labels out of document order at element " +
                   std::to_string(id) + ": " + previous.ToString() +
                   " then " + label->ToString());
    }
    previous = std::move(*label);
    first = false;
  });
}

StatusOr<std::vector<ElementId>> RunTwigQuery(
    boxes::LabelingScheme* scheme, const Document& doc,
    const std::vector<NewElement>& lids, Tracer* tracer, QueryCost* cost) {
  static const boxes::query::TwigPattern pattern = [] {
    StatusOr<boxes::query::TwigPattern> parsed =
        boxes::query::ParseTwigPattern(kTwigPattern);
    BOXES_CHECK_OK(parsed.status());
    return *parsed;
  }();
  StatusOr<std::vector<boxes::query::Interval>> roots = Status::OK();
  {
    Span match(tracer, SpanName::kMatchTwig);
    roots = boxes::query::MatchTwig(
        pattern,
        [&](const std::string& tag)
            -> StatusOr<std::vector<boxes::query::Interval>> {
          Span collect(tracer, SpanName::kCollect);
          const uint64_t start = NowNs();
          StatusOr<std::vector<boxes::query::Interval>> intervals =
              boxes::query::CollectIntervals(scheme, doc, lids, tag);
          cost->collect_ns += NowNs() - start;
          cost->elements_scanned += doc.element_count();
          if (intervals.ok()) {
            cost->label_lookups += 2 * intervals->size();
          }
          return intervals;
        });
  }
  if (!roots.ok()) {
    return roots.status();
  }
  std::vector<ElementId> handles;
  handles.reserve(roots->size());
  for (const boxes::query::Interval& interval : *roots) {
    handles.push_back(interval.handle);
  }
  std::sort(handles.begin(), handles.end());
  return handles;
}

boxes::PhaseIoTable PhaseDelta(const boxes::PhaseIoTable& after,
                               const boxes::PhaseIoTable& before) {
  boxes::PhaseIoTable delta{};
  for (size_t p = 0; p < delta.size(); ++p) {
    delta[p] = after[p].Delta(before[p]);
  }
  return delta;
}

bool SamePhaseIo(const boxes::PhaseIoTable& a, const boxes::PhaseIoTable& b) {
  for (size_t p = 0; p < a.size(); ++p) {
    if (a[p].reads != b[p].reads || a[p].writes != b[p].writes) {
      return false;
    }
  }
  return true;
}

void SetPhaseMetrics(const boxes::PhaseIoTable& delta, uint64_t ops,
                     Result* result) {
  static constexpr boxes::IoPhase kPhases[] = {
      boxes::IoPhase::kSearch, boxes::IoPhase::kLidfDeref,
      boxes::IoPhase::kRelabel, boxes::IoPhase::kRebalance,
      boxes::IoPhase::kOther};
  const double denominator = ops == 0 ? 1.0 : static_cast<double>(ops);
  for (boxes::IoPhase phase : kPhases) {
    const boxes::IoStats& io = delta[static_cast<size_t>(phase)];
    const std::string name = boxes::IoPhaseName(phase);
    result->Set("page_cache.reads_per_op." + name,
                static_cast<double>(io.reads) / denominator, "count");
    result->Set("page_cache.writes_per_op." + name,
                static_cast<double>(io.writes) / denominator, "count");
  }
}

// --------------------------------------------------------------------------
// Layer probes

namespace {

constexpr size_t kProbeCount = 4096;
constexpr int kProbeReps = 15;

/// Keeps probed results observable so no call is optimized away.
volatile uint64_t probe_sink = 0;
void Consume(uint64_t value) { probe_sink = probe_sink + value; }

/// Median over `reps` timed batches of the per-call time of fn(0..n-1).
double TimePerCall(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const uint64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    per_call.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(n));
  }
  return Median(per_call);
}

/// A scheme bulk loaded from the workload's document on its own in-memory
/// store, for layers the workload itself does not run.
struct SideScheme {
  boxes::MemoryPageStore memory;
  boxes::PageCache cache{&memory};
  std::unique_ptr<boxes::LabelingScheme> scheme;
  std::vector<NewElement> lids;
};

}  // namespace

void ProbeLayers(const ProbeTarget& target, bool want_op_probe,
                 bool want_bbox_probe, bool want_query_probe,
                 Result* result) {
  const Document& doc = *target.doc;
  const std::vector<NewElement>& lids = *target.lids;
  // Probe picks: (element, start or end) drawn from the workload's own
  // document, so every probed structure resolves the same elements.
  boxes::Random rng(target.seed ^ 0x70726f6265ull);
  std::vector<std::pair<ElementId, bool>> picks;
  while (picks.size() < kProbeCount) {
    const ElementId id = rng.Uniform(doc.element_count());
    if (lids[id].start != boxes::kInvalidLid) {
      picks.push_back({id, rng.Bernoulli(0.5)});
    }
  }
  const auto lid_of = [&](const std::vector<NewElement>& by_element,
                          size_t i) {
    return picks[i].second ? by_element[picks[i].first].start
                           : by_element[picks[i].first].end;
  };

  // PageCache hit and LIDF dereference, on the workload's own cache.
  boxes::Lidf* lidf = target.scheme->lidf();
  std::vector<PageId> pages(kProbeCount);
  if (target.cache_in_op) {
    target.cache->BeginOp();
  }
  for (size_t i = 0; i < kProbeCount; ++i) {
    StatusOr<PageId> block = lidf->ReadBlockPtr(lid_of(lids, i));
    result->Check(block.status(), "probe ReadBlockPtr");
    pages[i] = block.ok() ? *block : 0;
    result->Check(target.cache->GetPage(pages[i]).status(), "probe GetPage");
  }
  result->Set("page_cache.hit_ns", TimePerCall(kProbeCount, [&](size_t i) {
                Consume(target.cache->GetPage(pages[i]).ok());
              }),
              "ns");
  result->Set("lidf.read_block_ptr_ns", TimePerCall(kProbeCount, [&](size_t i) {
                Consume(lidf->ReadBlockPtr(lid_of(lids, i)).ok());
              }),
              "ns");
  if (target.cache_in_op) {
    result->Check(target.cache->EndOp(), "probe EndOp");
  }

  // PageCache miss inside an operation, and BeginOp + EndOp, on a fresh
  // cache over the workload's store.
  std::vector<PageId> distinct = pages;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  {
    boxes::PageCache cold(target.store);
    std::vector<double> miss_ns;
    std::vector<double> op_ns;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      cold.BeginOp();
      const uint64_t start = NowNs();
      for (PageId page : distinct) {
        Consume(cold.GetPage(page).ok());
      }
      miss_ns.push_back(static_cast<double>(NowNs() - start) /
                        static_cast<double>(distinct.size()));
      result->Check(cold.EndOp(), "probe EndOp");
      uint64_t bracket_ns = 0;
      for (PageId page : distinct) {
        const uint64_t t0 = NowNs();
        cold.BeginOp();
        const uint64_t t1 = NowNs();
        Consume(cold.GetPage(page).ok());
        const uint64_t t2 = NowNs();
        result->Check(cold.EndOp(), "probe EndOp");
        bracket_ns += (t1 - t0) + (NowNs() - t2);
      }
      op_ns.push_back(static_cast<double>(bracket_ns) /
                      static_cast<double>(distinct.size()));
    }
    result->Set("page_cache.miss_ns", Median(miss_ns), "ns");
    if (want_op_probe) {
      result->Set("page_cache.op_ns", Median(op_ns), "ns");
    }
  }

  result->Set("label.from_scalar_ns", TimePerCall(kProbeCount, [&](size_t i) {
                Consume(boxes::Label::FromScalar(i).components().size());
              }),
              "ns");
  result->Set("epoch_guard.read_ns", TimePerCall(kProbeCount, [&](size_t) {
                boxes::EpochReadLock lock(&target.scheme->epoch_guard());
                Consume(lock.epoch());
              }),
              "ns");

  // W-BOX Lookup, registry detached and attached.
  std::unique_ptr<SideScheme> side_wbox;
  boxes::WBox* wbox = target.wbox;
  const std::vector<NewElement>* wbox_lids = &lids;
  if (wbox == nullptr) {
    side_wbox = std::make_unique<SideScheme>();
    side_wbox->scheme = std::make_unique<boxes::WBox>(&side_wbox->cache);
    result->Check(side_wbox->scheme->BulkLoad(doc, &side_wbox->lids),
                  "probe W-BOX bulk load");
    wbox = static_cast<boxes::WBox*>(side_wbox->scheme.get());
    wbox_lids = &side_wbox->lids;
  }
  {
    boxes::MetricsRegistry* previous = wbox->metrics();
    boxes::MetricsRegistry registry;
    const auto lookup = [&](size_t i) {
      Consume(wbox->Lookup(lid_of(*wbox_lids, i)).ok());
    };
    for (size_t i = 0; i < kProbeCount; ++i) {
      lookup(i);  // warm
    }
    // Alternate detached and attached batches so drift between them (CPU
    // frequency, neighbours) lands on both sides equally.
    std::vector<double> detached;
    std::vector<double> attached;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      for (boxes::MetricsRegistry* attach :
           {static_cast<boxes::MetricsRegistry*>(nullptr), &registry}) {
        wbox->SetMetrics(attach);
        const uint64_t start = NowNs();
        for (size_t i = 0; i < kProbeCount; ++i) {
          lookup(i);
        }
        (attach == nullptr ? detached : attached)
            .push_back(static_cast<double>(NowNs() - start) / kProbeCount);
      }
    }
    wbox->SetMetrics(previous);
    result->Set("wbox.lookup_ns", Median(detached), "ns");
    result->Set("metrics.overhead_ns", Median(attached) - Median(detached),
                "ns");
  }
  side_wbox.reset();

  // B-BOX scheme calls inside their own operation, as paper-xmark makes
  // them, on a B-BOX bulk loaded from this workload's document.
  if (want_bbox_probe) {
    SideScheme side;
    side.scheme = std::make_unique<boxes::BBox>(&side.cache);
    result->Check(boxes::workload::UnmeasuredOp(&side.cache, [&] {
                    return side.scheme->BulkLoad(doc, &side.lids);
                  }),
                  "probe B-BOX bulk load");
    uint64_t lookup_ns = 0;
    for (size_t i = 0; i < kProbeCount; ++i) {
      side.cache.BeginOp();
      const uint64_t start = NowNs();
      Consume(side.scheme->Lookup(lid_of(side.lids, i)).ok());
      lookup_ns += NowNs() - start;
      result->Check(side.cache.EndOp(), "probe EndOp");
    }
    constexpr size_t kInserts = 1024;
    uint64_t insert_ns = 0;
    for (size_t i = 0; i < kInserts; ++i) {
      side.cache.BeginOp();
      const uint64_t start = NowNs();
      result->Check(side.scheme
                        ->InsertElementBefore(side.lids[picks[i].first].end)
                        .status(),
                    "probe B-BOX insert");
      insert_ns += NowNs() - start;
      result->Check(side.cache.EndOp(), "probe EndOp");
    }
    result->Set("bbox.lookup_call_ns",
                static_cast<double>(lookup_ns) / kProbeCount, "ns");
    result->Set("bbox.insert_call_us",
                static_cast<double>(insert_ns) / kInserts / 1000.0, "us");
  }

  // Silo: compile the workload's scheme, publish, reopen and serve.
  {
    const std::string path = target.run_dir + "/probe.silo";
    std::vector<double> build_ms;
    std::vector<double> publish_ms;
    std::vector<double> open_ms;
    std::unique_ptr<boxes::SnapshotReader> reader;
    uint64_t image_bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      boxes::SnapshotWriter writer;
      const uint64_t t0 = NowNs();
      StatusOr<std::string> image = writer.BuildImage(target.scheme);
      const uint64_t t1 = NowNs();
      if (!result->Check(image.status(), "probe BuildImage")) {
        return;
      }
      result->Check(writer.Publish(*image, path), "probe Publish");
      const uint64_t t2 = NowNs();
      StatusOr<std::unique_ptr<boxes::SnapshotReader>> opened =
          boxes::SnapshotReader::Open(path);
      const uint64_t t3 = NowNs();
      if (!result->Check(opened.status(), "probe Open")) {
        return;
      }
      reader = std::move(*opened);
      image_bytes = image->size();
      build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      publish_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      open_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    }
    std::vector<size_t> indexes(kProbeCount);
    for (size_t i = 0; i < kProbeCount; ++i) {
      indexes[i] = reader->FindIndex(lid_of(lids, i));
      if (indexes[i] == boxes::SnapshotReader::kNotFound) {
        result->Fail("probe lid missing from the silo image");
        return;
      }
    }
    result->Set("snapshot.find_index_ns",
                TimePerCall(kProbeCount,
                            [&](size_t i) {
                              Consume(reader->FindIndex(lid_of(lids, i)));
                            }),
                "ns");
    result->Set("snapshot.label_at_ns", TimePerCall(kProbeCount, [&](size_t i) {
                  Consume(reader->LabelAt(indexes[i]).components().size());
                }),
                "ns");
    result->Set("snapshot.build_ms", Median(build_ms), "ms");
    result->Set("snapshot.publish_ms", Median(publish_ms), "ms");
    result->Set("snapshot.open_ms", Median(open_ms), "ms");
    result->Set("snapshot.image_bytes_per_label",
                static_cast<double>(image_bytes) /
                    static_cast<double>(reader->entry_count()),
                "B");
  }

  if (want_query_probe) {
    constexpr int kQueries = 5;
    QueryCost cost;
    uint64_t total_ns = 0;
    for (int i = 0; i < kQueries; ++i) {
      boxes::EpochReadLock lock(&target.scheme->epoch_guard());
      const uint64_t start = NowNs();
      result->Check(
          RunTwigQuery(target.scheme, doc, lids, nullptr, &cost).status(),
          "probe twig query");
      total_ns += NowNs() - start;
    }
    result->Set("query.collect_ms",
                static_cast<double>(cost.collect_ns) / kQueries / 1e6, "ms");
    result->Set("query.match_ms",
                static_cast<double>(total_ns - cost.collect_ns) / kQueries /
                    1e6,
                "ms");
    result->Set("query.lookups_per_query",
                static_cast<double>(cost.label_lookups) / kQueries, "count");
    result->Set("query.elements_scanned_per_query",
                static_cast<double>(cost.elements_scanned) / kQueries,
                "count");
  }
}

}  // namespace perfbench
