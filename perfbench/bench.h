// Shared infrastructure of the perfbench workloads: nanosecond latency
// samples, the yardstick and slicer that put timings in reference units, the
// run result, an in-memory span tracer, a counting/tracing PageStore and the
// layer probes.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/common/labeling_scheme.h"
#include "core/wbox/wbox.h"
#include "storage/page_cache.h"
#include "storage/page_store.h"
#include "util/status.h"
#include "xml/document.h"

namespace perfbench {

using boxes::Lid;
using boxes::NewElement;
using boxes::PageId;
using boxes::Status;
using boxes::StatusOr;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-operation latencies in nanoseconds, kept in the benchmark's own
/// buffer (no lock, no unit rounding). The buffer is allocated and touched
/// up front; when it fills, every other kept sample is dropped and the
/// sampling stride doubles. It therefore always holds a uniform systematic
/// sample of the whole run, and its memory does not depend on how many
/// operations a run managed to complete.
class Samples {
 public:
  explicit Samples(size_t capacity = size_t{1} << 18);

  void Add(uint64_t ns) {
    ++count_;
    if (--countdown_ != 0) {
      return;
    }
    countdown_ = stride_;
    if (size_ == kept_.size()) {
      Decimate();
    }
    kept_[size_++] = ns;
  }

  /// Operations recorded (not only the kept ones).
  uint64_t count() const { return count_; }

  /// Nearest-rank quantile of the kept samples, in ns; 0 when empty.
  double Quantile(double q) const;

  /// The highest of p99, p99.9, p99.99, ... that has at least ten recorded
  /// operations beyond it; {0, 0} when there are fewer than 1,000.
  std::pair<double, double> Tail() const;

 private:
  void Decimate();

  std::vector<uint64_t> kept_;
  size_t size_ = 0;
  uint64_t count_ = 0;
  uint64_t stride_ = 1;
  uint64_t countdown_ = 1;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// Reference units. The host this benchmark runs on is shared, and its speed
// drifts for minutes at a time, longer than a run, so a time measured in one
// run moves with the minute it ran in and no statistic inside the run
// removes that. Every workload therefore also times a fixed piece of work
// beside its own, on the same thread and in the same minutes: random finds
// in a 262,144-entry std::unordered_map, code no change to the library can
// alter. A workload timing divided by the find time (a "ref") repeats where
// either time alone drifts. On a 4-vCPU KVM guest, over 200 s in which a
// B-BOX lookup loop's interquartile range was 27% of its median, the loop's
// log time had a standard deviation of 0.13-0.15 and its time in refs one
// of 0.03-0.05; the find tracked the loop better than a page copy, a
// pointer chase, a sort or an allocator loop did.

/// The reference work: builds its table once (about 10 MB), then times
/// chunks of finds in it. Read-only after construction, so threads share it.
class Yardstick {
 public:
  Yardstick();

  Yardstick(const Yardstick&) = delete;
  Yardstick& operator=(const Yardstick&) = delete;

  /// Times one chunk of finds with the caller's generator state; returns
  /// the mean time of one find, in ns.
  double TimeChunk(uint64_t* state) const;

 private:
  std::unordered_map<uint64_t, uint64_t> table_;
};

/// The CPUs this process may run on: its affinity mask when first called,
/// which must be before any Slicer pins a thread.
const std::vector<int>& AllowedCpus();

/// Times one thread's measured phase in slices of a few tenths of a second.
/// At every slice boundary the thread moves to the next of its CPUs and
/// times a yardstick chunk there, so the reference samples the same CPU and
/// minutes as the slice after it. The CPUs of a shared host are not equally
/// fast, and which is slow changes by the minute; a thread the scheduler
/// left on one CPU for a whole run would measure that CPU, while rotating
/// samples them all alike. (Ten paper-xmark runs, five seeds alternating
/// with and without rotation: the spread of lookup_p50_ref fell from 0.07
/// to 0.02.) A phase's throughput is its operations over the summed slice
/// time: the yardstick, and the unmeasured work between rounds (set-ups,
/// verification), fall outside every slice.
class Slicer {
 public:
  /// Rotates the calling thread over `cpus`; an empty list pins nothing.
  Slicer(const Yardstick* yardstick, std::vector<int> cpus);

  /// Starts a slice at `now`.
  void Start(uint64_t now) { start_ns_ = now; }
  /// Counts `ops` finished operations of the current slice.
  void Count(uint64_t ops) { ops_ += ops; }
  /// Closes the current slice at `now`, moves to the next CPU, times a
  /// yardstick chunk and starts the next slice after it.
  void Close(uint64_t now);

  size_t slices() const { return chunk_ns_.size(); }
  double ops_per_s() const;
  /// Median over this phase's yardstick chunks of the find time, in ns.
  double ref_ns() const { return Median(chunk_ns_); }
  /// ops_per_s in operations per 1,000 refs.
  double ops_per_kref() const { return ops_per_s() * ref_ns() * 1e-6; }

 private:
  const Yardstick* yardstick_;
  const std::vector<int> cpus_;
  size_t next_cpu_ = 0;
  uint64_t state_ = 0x9e3779b97f4a7c15ull;
  uint64_t start_ns_ = 0;
  uint64_t ops_ = 0;
  uint64_t total_ops_ = 0;
  uint64_t total_ns_ = 0;
  std::vector<double> chunk_ns_;
};

/// The find time, in ns, of the host the benchmark was written on (a 4-vCPU
/// KVM guest, whose ref was 52-61 ns across the runs that set the bounds).
inline constexpr double kNominalRefNs = 50;

/// setup_s: the median of `setups` (ns) in refs of `ref_ns`, turned back
/// into seconds at kNominalRefNs per ref. Set-up time drifts with the host
/// like every other timing: between two ten-run sets of the same code its
/// median moved by up to 37% in wall time and by up to 14% in refs.
/// BENCHMARK.json requires setup_s in seconds, hence the fixed scale.
double SetupSeconds(const Samples& setups, double ref_ns);

/// One named metric value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the operation tally that feeds success_rate and
/// every metric the workload produced.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// Counts operations attempted; `failed` of them returned an error or
  /// failed verification.
  void Attempt(uint64_t ops) { attempted_ += ops; }

  /// Records one failed operation or check: printed, counted, and the run
  /// is marked incorrect.
  void Fail(const std::string& what);

  /// Convenience: Fail(what + status) when `status` is not OK.
  bool Check(const Status& status, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Prints setup_s (SetupSeconds) beside the wall-time median.
  static void PrintSetup(const Samples& setups, double ref_ns);

  /// Prints "<name> p50=... p99=... p<tail>=... n=..." for one timing,
  /// with its p50 in refs of `ref_ns`.
  static void PrintTiming(const char* name, const Samples& timing,
                          double divisor, const char* unit, double ref_ns);

  /// The result line the runner parses: PERFBENCH_RESULT {json}.
  void PrintJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// --------------------------------------------------------------------------
// Tracing

/// Layer boundaries the benchmark records spans at. Every span is opened by
/// the benchmark's own code around one call it makes into a layer.
enum class SpanName : uint8_t {
  kOp,           // one whole operation (the request)
  kBeginOp,      // PageCache::BeginOp
  kEndOp,        // PageCache::EndOp
  kLookupCall,   // the scheme's Lookup call inside an operation
  kInsertCall,   // the scheme's InsertElementBefore call inside an operation
  kLookup,       // LookupShared (query-resident, serve-durable)
  kQuery,        // one twig query under one read ticket
  kMatchTwig,    // query::MatchTwig
  kCollect,      // one CollectIntervals, through MatchTwig's tag callback
  kEnqueue,      // UpdateBuffer enqueue
  kFlush,        // UpdateBuffer::Flush
  kCheckpoint,   // checkpoint chain build (inside Flush's commit hook)
  kRecompile,    // OverlayedScheme::Recompile
  kStoreRead,    // PageStore::Read
  kStoreWrite,   // PageStore::Write
  kStoreWriteUnjournaled,  // PageStore::WriteUnjournaled
  kStoreSync,    // PageStore::Sync
  kCount,
};

const char* SpanNameString(SpanName name);

struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus the time covered by child spans

  double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
};

/// In-memory span recorder for one thread. Aggregates (count, total, self
/// time) are exact over every span; raw spans — name, start, end, parent,
/// request id — are kept for the first `raw_requests` requests only (the
/// sampling) and written out at exit.
class Tracer {
 public:
  explicit Tracer(uint64_t raw_requests);

  /// Starts the next request; spans opened until the next call share its id.
  void NextRequest() { ++request_; }

  void Open(SpanName name);
  void Close();

  const SpanStats& stats(SpanName name) const {
    return stats_[static_cast<size_t>(name)];
  }
  /// Also keeps the duration of every `name` span, for its quantiles.
  void KeepDurations(SpanName name) {
    durations_[static_cast<size_t>(name)] = std::make_unique<Samples>();
  }
  /// The kept durations of `name`, or nullptr if not requested.
  const Samples* durations(SpanName name) const {
    return durations_[static_cast<size_t>(name)].get();
  }

  /// Writes the kept raw spans as JSON lines.
  Status WriteRaw(const std::string& path) const;

 private:
  struct OpenSpan {
    SpanName name;
    uint64_t start_ns;
    uint64_t child_ns;
    int64_t raw_index;  // -1 when this request is beyond the raw sample
  };
  struct RawSpan {
    SpanName name;
    int64_t parent;
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  const uint64_t raw_requests_;
  uint64_t request_ = 0;
  std::vector<OpenSpan> stack_;
  std::vector<RawSpan> raw_;
  std::array<SpanStats, static_cast<size_t>(SpanName::kCount)> stats_{};
  std::array<std::unique_ptr<Samples>, static_cast<size_t>(SpanName::kCount)>
      durations_;
};

/// Starts the next request on `tracer`, if any.
inline void NextRequest(Tracer* tracer) {
  if (tracer != nullptr) {
    tracer->NextRequest();
  }
}

/// RAII span; a null tracer (an untraced phase) makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Open(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Close();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Forwarding PageStore the benchmark places under each workload's
/// PageCache: counts device calls and times syncs in every run, and records
/// store spans when a tracer is set. Spans go to one tracer, so only a single-threaded
/// workload may drive the store while tracing.
class CountingStore : public boxes::PageStore {
 public:
  explicit CountingStore(boxes::PageStore* base) : base_(base) {}

  CountingStore(const CountingStore&) = delete;
  CountingStore& operator=(const CountingStore&) = delete;

  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  /// Page writes, journaled and unjournaled.
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  /// Time spent inside the base store's Sync, in ns.
  uint64_t sync_ns() const { return sync_ns_.load(std::memory_order_relaxed); }

  size_t page_size() const override { return base_->page_size(); }
  StatusOr<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status Read(PageId id, uint8_t* buf) override;
  Status Write(PageId id, const uint8_t* buf) override;
  Status WriteUnjournaled(PageId id, const uint8_t* buf) override;
  Status WriteTorn(PageId id, const uint8_t* buf, size_t prefix) override {
    return base_->WriteTorn(id, buf, prefix);
  }
  PageId unjournaled_floor() const override {
    return base_->unjournaled_floor();
  }
  Status Sync() override;
  Status CommitEpoch(uint64_t epoch) override {
    return base_->CommitEpoch(epoch);
  }
  uint64_t allocated_pages() const override {
    return base_->allocated_pages();
  }
  uint64_t total_pages() const override { return base_->total_pages(); }
  void SnapshotAllocator(uint64_t* total,
                         std::vector<PageId>* free_pages) const override {
    base_->SnapshotAllocator(total, free_pages);
  }
  Status RestoreAllocator(uint64_t total,
                          const std::vector<PageId>& free_pages) override {
    return base_->RestoreAllocator(total, free_pages);
  }

 private:
  boxes::PageStore* base_;  // not owned
  Tracer* tracer_ = nullptr;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
};

// --------------------------------------------------------------------------
// Helpers shared by the workloads

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Working directory of this run (database files, silo images, spans).
  std::string run_dir;
};

/// Whether a phase that has run `rounds` rounds in `stream_ns` starts
/// another: always a first one, then only while one more round of the
/// average length fits in `seconds`, so a run ends near its --seconds even
/// when the host is slow and rounds are long.
inline bool AnotherRound(uint64_t rounds, uint64_t stream_ns, double seconds) {
  return rounds == 0 ||
         static_cast<double>(stream_ns + stream_ns / rounds) <= seconds * 1e9;
}

/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// (index pages + LIDF pages) x page size / live labels.
double SpaceBytesPerLabel(const boxes::SchemeStats& stats, size_t page_size);

/// Ids (ascending) of the elements that root a match of `pattern`, by
/// walking the document tree: the label-free evaluation of a twig.
std::vector<boxes::xml::ElementId> BruteForceTwigRoots(
    const boxes::xml::Document& doc, const std::string& pattern);

/// Checks that walking `doc` in document order visits strictly increasing
/// labels, looking each tag's label up through `scheme`; every violation is
/// a failure in `result`.
void CheckDocumentOrder(boxes::LabelingScheme* scheme,
                            const boxes::xml::Document& doc,
                            const std::vector<NewElement>& lids,
                            Result* result);

/// Everything the layer probes need from one workload. Pointers are not
/// owned; optional ones may be null.
struct ProbeTarget {
  boxes::PageCache* cache = nullptr;  // the workload's cache
  bool cache_in_op = false;           // hits must be taken inside an op
  boxes::PageStore* store = nullptr;  // pages on it are readable
  boxes::LabelingScheme* scheme = nullptr;
  boxes::WBox* wbox = nullptr;  // the workload's W-BOX, if it has one
  const boxes::xml::Document* doc = nullptr;
  const std::vector<NewElement>* lids = nullptr;  // by ElementId
  uint64_t seed = 0;
  std::string run_dir;
};

/// Times each layer's public functions on the workload's probe LIDs and
/// sets the per-layer probe metrics (page_cache.hit_ns / miss_ns,
/// lidf.read_block_ptr_ns, label.from_scalar_ns, epoch_guard.read_ns,
/// wbox.lookup_ns, metrics.overhead_ns, snapshot.*). Workloads without a
/// W-BOX (or without a B-BOX) probe one bulk loaded from their own
/// document. `want_op_probe` also sets page_cache.op_ns from a probe;
/// `want_bbox_probe` sets bbox.lookup_call_ns / bbox.insert_call_us;
/// `want_query_probe` sets the query.* metrics.
void ProbeLayers(const ProbeTarget& target, bool want_op_probe,
                 bool want_bbox_probe, bool want_query_probe,
                 Result* result);

/// The twig pattern query-resident repeats (and the query probe uses).
inline constexpr char kTwigPattern[] = "item[//mailbox][//incategory]//text";

/// Per-query accounting of one twig evaluation.
struct QueryCost {
  uint64_t collect_ns = 0;    // time inside CollectIntervals callbacks
  uint64_t label_lookups = 0;
  uint64_t elements_scanned = 0;
};

/// Runs kTwigPattern once against `scheme` (the caller holds whatever read
/// ticket it needs), recording spans into `tracer` and costs into `cost`.
/// Returns the ids of the match roots, ascending.
StatusOr<std::vector<boxes::xml::ElementId>> RunTwigQuery(
    boxes::LabelingScheme* scheme, const boxes::xml::Document& doc,
    const std::vector<NewElement>& lids, Tracer* tracer, QueryCost* cost);

/// `after` minus `before`, phase by phase.
boxes::PhaseIoTable PhaseDelta(const boxes::PhaseIoTable& after,
                               const boxes::PhaseIoTable& before);

/// Whether two phase tables hold the same counts.
bool SamePhaseIo(const boxes::PhaseIoTable& a, const boxes::PhaseIoTable& b);

/// Sets the page_cache.{reads,writes}_per_op.<phase> metrics from a phase
/// table delta over `ops` operations.
void SetPhaseMetrics(const boxes::PhaseIoTable& delta, uint64_t ops,
                     Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
