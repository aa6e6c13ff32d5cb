// paper-xmark: the paper's Fig. 8 XMark insertion sequence on B-BOX, in the
// paper's §7 accounting (every operation in its own IoScope, nothing kept
// across operations), with 7 random label lookups after each insert.

#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/bbox/bbox.h"
#include "util/random.h"
#include "workload/runner.h"
#include "workload/sequences.h"
#include "xml/xmark.h"

namespace perfbench {
namespace {

using boxes::xml::Document;
using boxes::xml::ElementId;

constexpr uint64_t kDocElements = 336242;    // the paper's Fig. 8 document
constexpr uint64_t kPrimeElements = 200000;  // bulk loaded before the stream
constexpr int kLookupsPerInsert = 7;
// Inserts (each with its lookups) per slice, about 0.3 s; a yardstick chunk
// is timed between every two slices.
constexpr uint64_t kSliceInserts = 8192;
// Set-ups per round (one builds the round's structure); setup_s is the
// median of all of them, spread through the run.
constexpr int kSetupsPerRound = 2;

struct Input {
  Document doc;
  std::vector<ElementId> preorder;
  Document prefix;  // the first kPrimeElements elements in preorder
  /// kLookupsPerInsert per insert: preorder position * 2 + (1 for start).
  std::vector<uint32_t> lookups;
};

Input MakeInput(uint64_t seed) {
  Input in;
  in.doc = boxes::xml::MakeXmarkDocument(kDocElements, seed);
  in.preorder = in.doc.PreorderIds();
  // Prefix element i is in.preorder[i]: a preorder prefix is a tree, and
  // Document numbers elements in creation order.
  std::vector<ElementId> prefix_of(in.doc.element_count());
  for (uint64_t i = 0; i < kPrimeElements; ++i) {
    const ElementId orig = in.preorder[i];
    prefix_of[orig] =
        i == 0 ? in.prefix.AddRoot(in.doc.element(orig).tag)
               : in.prefix.AddChild(prefix_of[in.doc.element(orig).parent],
                                    in.doc.element(orig).tag);
  }
  boxes::Random rng(seed);
  in.lookups.reserve((in.preorder.size() - kPrimeElements) *
                     kLookupsPerInsert);
  for (uint64_t i = kPrimeElements; i < in.preorder.size(); ++i) {
    // After inserting preorder[i], elements preorder[0..i] are live.
    for (int k = 0; k < kLookupsPerInsert; ++k) {
      in.lookups.push_back(static_cast<uint32_t>(rng.Uniform(i + 1) * 2 +
                                                 rng.Uniform(2)));
    }
  }
  return in;
}

/// One B-BOX on its own in-memory store and non-retaining cache.
struct Stack {
  boxes::MemoryPageStore memory;
  CountingStore store{&memory};
  boxes::PageCache cache{&store};
  boxes::BBox bbox{&cache};
  std::vector<NewElement> lids;  // by ElementId of the full document
};

/// Exact per-round counts: every round replays the same inputs, so these
/// must repeat exactly.
struct RoundCounts {
  uint64_t insert_io = 0;
  uint64_t lookup_io = 0;
  uint64_t store_writes = 0;
  uint64_t store_syncs = 0;
  uint64_t contention = 0;  // PageCache shard contention events
  boxes::PhaseIoTable phases{};

  bool operator==(const RoundCounts& o) const {
    return insert_io == o.insert_io && lookup_io == o.lookup_io &&
           store_writes == o.store_writes && store_syncs == o.store_syncs &&
           contention == o.contention && SamePhaseIo(phases, o.phases);
  }
};

struct Phase {
  explicit Phase(const Yardstick* yardstick)
      : slicer(yardstick, AllowedCpus()) {}

  Samples setup{64};
  Samples lookups{size_t{1} << 20};
  Samples inserts{size_t{1} << 18};
  Slicer slicer;
  uint64_t stream_ns = 0;
  uint64_t rounds = 0;
};

/// Bulk loads the prefix; returns its duration.
uint64_t SetUp(const Input& in, Stack* stack, Result* result) {
  const uint64_t start = NowNs();
  std::vector<NewElement> prime;
  result->Check(boxes::workload::UnmeasuredOp(&stack->cache,
                                              [&] {
                                                return stack->bbox.BulkLoad(
                                                    in.prefix, &prime);
                                              }),
                "bulk load");
  stack->lids.assign(in.doc.element_count(), NewElement{});
  for (uint64_t i = 0; i < prime.size(); ++i) {
    stack->lids[in.preorder[i]] = prime[i];
  }
  return NowNs() - start;
}

/// The insert stream with its lookups; returns the round's exact counts.
RoundCounts Stream(const Input& in, Stack* stack, Tracer* tracer, Phase* phase,
                   Result* result) {
  RoundCounts counts;
  boxes::PageCache& cache = stack->cache;
  const boxes::PhaseIoTable phases_before = cache.phase_stats();
  const uint64_t writes_before = stack->store.writes();
  const uint64_t syncs_before = stack->store.syncs();
  const uint64_t contention_before = cache.shard_contention();
  const uint64_t start = NowNs();
  phase->slicer.Start(start);
  const uint32_t* next_lookup = in.lookups.data();
  for (uint64_t i = kPrimeElements; i < in.preorder.size(); ++i) {
    if (i > kPrimeElements && (i - kPrimeElements) % kSliceInserts == 0) {
      phase->slicer.Close(NowNs());
    }
    const ElementId id = in.preorder[i];
    const Lid anchor = stack->lids[in.doc.element(id).parent].end;
    NextRequest(tracer);
    const boxes::IoStats io_before = cache.stats();
    const uint64_t t0 = NowNs();
    StatusOr<NewElement> inserted = Status::OK();
    Status ended;
    {
      Span op(tracer, SpanName::kOp);
      {
        Span span(tracer, SpanName::kBeginOp);
        cache.BeginOp();
      }
      {
        Span span(tracer, SpanName::kInsertCall);
        inserted = stack->bbox.InsertElementBefore(anchor);
      }
      Span span(tracer, SpanName::kEndOp);
      ended = cache.EndOp();
    }
    phase->inserts.Add(NowNs() - t0);
    counts.insert_io += cache.stats().Delta(io_before).total();
    if (result->Check(inserted.status(), "insert") &&
        result->Check(ended, "insert EndOp")) {
      stack->lids[id] = *inserted;
    }

    for (int k = 0; k < kLookupsPerInsert; ++k, ++next_lookup) {
      const NewElement& element = stack->lids[in.preorder[*next_lookup / 2]];
      const Lid lid = (*next_lookup & 1) != 0 ? element.start : element.end;
      NextRequest(tracer);
      const boxes::IoStats before = cache.stats();
      const uint64_t l0 = NowNs();
      StatusOr<boxes::Label> label = Status::OK();
      Status lookup_ended;
      {
        Span op(tracer, SpanName::kOp);
        {
          Span span(tracer, SpanName::kBeginOp);
          cache.BeginOp();
        }
        {
          Span span(tracer, SpanName::kLookupCall);
          label = stack->bbox.Lookup(lid);
        }
        Span span(tracer, SpanName::kEndOp);
        lookup_ended = cache.EndOp();
      }
      phase->lookups.Add(NowNs() - l0);
      counts.lookup_io += cache.stats().Delta(before).total();
      if (result->Check(label.status(), "lookup")) {
        result->Check(lookup_ended, "lookup EndOp");
      }
    }
    phase->slicer.Count(1 + kLookupsPerInsert);
  }
  const uint64_t end = NowNs();
  phase->slicer.Close(end);
  phase->stream_ns += end - start;
  ++phase->rounds;
  counts.phases = PhaseDelta(cache.phase_stats(), phases_before);
  counts.store_writes = stack->store.writes() - writes_before;
  counts.store_syncs = stack->store.syncs() - syncs_before;
  counts.contention = cache.shard_contention() - contention_before;
  result->Attempt((in.preorder.size() - kPrimeElements) *
                  (1 + kLookupsPerInsert));
  return counts;
}

}  // namespace

void RunPaperXmark(const RunOptions& options, Result* result) {
  const Input in = MakeInput(options.seed);
  const uint64_t inserts = in.preorder.size() - kPrimeElements;
  std::printf(
      "config: scheme=B-BOX page_size=%zu document=XMark %llu elements "
      "(target %llu) prime=%llu inserts=%llu lookups/insert=%d "
      "cache=no retention, one IoScope per operation, one thread\n",
      boxes::kDefaultPageSize,
      static_cast<unsigned long long>(in.doc.element_count()),
      static_cast<unsigned long long>(kDocElements),
      static_cast<unsigned long long>(kPrimeElements),
      static_cast<unsigned long long>(inserts), kLookupsPerInsert);

  // Rounds (set-ups + the whole stream) repeat while another fits in the
  // phase's share of --seconds; a traced run first runs an untraced phase
  // of the same length, which gives the tracing overhead.
  const double phase_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Tracer tracer(2000);
  const Yardstick yardstick;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<RoundCounts> first_counts;
  Phase untraced(&yardstick);
  Phase traced(&yardstick);
  for (Phase* phase : {&untraced, &traced}) {
    if (phase == &traced && !options.trace) {
      break;
    }
    Tracer* phase_tracer = phase == &traced ? &tracer : nullptr;
    while (AnotherRound(phase->rounds, phase->stream_ns, phase_seconds)) {
      for (int i = 0; i < kSetupsPerRound; ++i) {
        stack.reset();
        stack = std::make_unique<Stack>();
        phase->setup.Add(SetUp(in, stack.get(), result));
      }
      stack->store.SetTracer(phase_tracer);
      const RoundCounts counts =
          Stream(in, stack.get(), phase_tracer, phase, result);
      stack->store.SetTracer(nullptr);
      if (first_counts == nullptr) {
        first_counts = std::make_unique<RoundCounts>(counts);
      } else if (!(counts == *first_counts)) {
        result->Fail("I/O counts differ between rounds of the same input");
      }
    }
  }
  const Phase& measured = untraced;
  const RoundCounts& counts = *first_counts;
  const uint64_t lookups = inserts * kLookupsPerInsert;

  // Verification on the last round's structure.
  {
    boxes::IoScope scope(&stack->cache);
    result->Check(stack->bbox.CheckInvariants(), "B-BOX invariants");
    CheckDocumentOrder(&stack->bbox, in.doc, stack->lids, result);
    result->Check(scope.End(), "verification EndOp");
  }
  StatusOr<boxes::SchemeStats> stats = Status::OK();
  {
    boxes::IoScope scope(&stack->cache);
    stats = stack->bbox.GetStats();
    result->Check(stats.status(), "GetStats");
  }

  // Cross-check against the insertion run bench_fig8_xmark itself makes,
  // for the same seed.
  uint64_t fig8_io = 0;
  {
    Stack fig8;
    boxes::workload::RunStats fig8_stats;
    result->Check(boxes::workload::RunDocumentOrderInsertion(
                      &fig8.bbox, &fig8.cache, in.doc, kPrimeElements,
                      &fig8_stats),
                  "fig8 insertion run");
    fig8_io = fig8_stats.totals.total();
  }
  const std::string traced_rounds =
      options.trace ? " + " + std::to_string(traced.rounds) + " traced" : "";
  std::printf("rounds: %llu untraced%s, each = %d set-ups + %llu inserts + "
              "%llu lookups in slices of %llu inserts; exact counts repeated "
              "in every round\n",
              static_cast<unsigned long long>(untraced.rounds),
              traced_rounds.c_str(), kSetupsPerRound,
              static_cast<unsigned long long>(inserts),
              static_cast<unsigned long long>(lookups),
              static_cast<unsigned long long>(kSliceInserts));
  std::printf(
      "paper cross-check: insert I/Os %llu over %llu inserts (%.4f per "
      "insert); bench_fig8_xmark --elements=%llu --prime=%llu "
      "--schemes=bbox --seed=%llu gives %llu (%s)\n",
      static_cast<unsigned long long>(counts.insert_io),
      static_cast<unsigned long long>(inserts),
      static_cast<double>(counts.insert_io) / static_cast<double>(inserts),
      static_cast<unsigned long long>(kDocElements),
      static_cast<unsigned long long>(kPrimeElements),
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(fig8_io),
      fig8_io == counts.insert_io ? "match" : "MISMATCH");
  if (fig8_io != counts.insert_io) {
    result->Fail("insert I/Os differ from bench_fig8_xmark's");
  }

  const double ref_ns = measured.slicer.ref_ns();
  std::printf("timings (untraced; 1 ref = %.3f ns, the median of %zu "
              "yardstick chunks):\n",
              ref_ns, measured.slicer.slices());
  Result::PrintTiming("lookup_ns", measured.lookups, 1, "ns", ref_ns);
  Result::PrintTiming("update_us (insert)", measured.inserts, 1e3, "us",
                      ref_ns);
  Result::PrintSetup(measured.setup, ref_ns);

  const double ops_per_s = measured.slicer.ops_per_s();
  const double io_per_lookup =
      static_cast<double>(counts.lookup_io) / static_cast<double>(lookups);
  const double io_per_update =
      static_cast<double>(counts.insert_io) / static_cast<double>(inserts);
  const double space =
      stats.ok() ? SpaceBytesPerLabel(*stats, boxes::kDefaultPageSize) : 0;
  const double syncs_per_update =
      static_cast<double>(counts.store_syncs) / static_cast<double>(inserts);
  std::printf("  ops_per_s=%.1f (%.4f per 1,000 refs)\n", ops_per_s,
              measured.slicer.ops_per_kref());
  std::printf("  io_per_lookup=%.6f io_per_update=%.6f syncs_per_update=%.6f "
              "space_bytes_per_label=%.6f\n",
              io_per_lookup, io_per_update, syncs_per_update, space);

  result->Set("setup_s", SetupSeconds(measured.setup, ref_ns), "s");
  result->Set("ops_per_kref", measured.slicer.ops_per_kref(), "ops/kref");
  result->Set("lookup_p50_ref", measured.lookups.Quantile(0.5) / ref_ns,
              "ref");
  result->Set("update_or_query_p50_ref",
              measured.inserts.Quantile(0.5) / ref_ns, "ref");
  result->Set("space_bytes_per_label", space, "B");
  result->Set("io_per_lookup", io_per_lookup, "count");
  result->Set("io_per_update", io_per_update, "count");
  result->Set("syncs_per_update", syncs_per_update, "count");
  if (!options.trace) {
    return;
  }

  // Per-layer metrics: spans of the traced phase, counts, probes.
  const double traced_ops_per_s = traced.slicer.ops_per_s();
  result->Set("yardstick.find_ns", ref_ns, "ns");
  result->Set("tracing.lookup_ns_p50_delta",
              traced.lookups.Quantile(0.5) - measured.lookups.Quantile(0.5),
              "ns");
  result->Set("tracing.ops_per_s_delta_pct",
              100.0 * (traced_ops_per_s - ops_per_s) / ops_per_s, "%");
  result->Set("page_cache.op_ns",
              tracer.stats(SpanName::kBeginOp).mean_ns() +
                  tracer.stats(SpanName::kEndOp).mean_ns(),
              "ns");
  result->Set("bbox.lookup_call_ns",
              tracer.stats(SpanName::kLookupCall).mean_ns(), "ns");
  result->Set("bbox.insert_call_us",
              tracer.stats(SpanName::kInsertCall).mean_ns() / 1e3, "us");
  SetPhaseMetrics(counts.phases, inserts + lookups, result);
  result->Set("page_cache.shard_contention_per_lookup",
              static_cast<double>(counts.contention) /
                  static_cast<double>(lookups),
              "count");
  if (stats.ok()) {
    result->Set("scheme.height", static_cast<double>(stats->height), "count");
    result->Set("scheme.index_pages", static_cast<double>(stats->index_pages),
                "count");
    result->Set("scheme.lidf_pages", static_cast<double>(stats->lidf_pages),
                "count");
  }
  result->Set("store.pages_written_per_update",
              static_cast<double>(counts.store_writes) /
                  static_cast<double>(inserts),
              "count");
  result->Set("store.bytes_written_per_update",
              static_cast<double>(counts.store_writes) *
                  boxes::kDefaultPageSize / static_cast<double>(inserts),
              "B");
  ProbeTarget target;
  target.cache = &stack->cache;
  target.cache_in_op = true;
  target.store = &stack->store;
  target.scheme = &stack->bbox;
  target.doc = &in.doc;
  target.lids = &stack->lids;
  target.seed = options.seed;
  target.run_dir = options.run_dir;
  ProbeLayers(target, /*want_op_probe=*/false, /*want_bbox_probe=*/false,
              /*want_query_probe=*/true, result);
  result->Check(tracer.WriteRaw(options.run_dir + "/spans.jsonl"),
                "writing spans");
}

}  // namespace perfbench
