// query-resident: a W-BOX whose pages all stay resident in the PageCache
// (no IoScope), with a MetricsRegistry attached. Two client threads and no
// writer: one calls LookupShared on uniformly random labels, the other
// repeats one twig query under one read ticket per query.

#include <atomic>
#include <barrier>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "util/metrics.h"
#include "util/random.h"
#include "xml/xmark.h"

namespace perfbench {
namespace {

using boxes::xml::Document;
using boxes::xml::ElementId;

constexpr uint64_t kDocElements = 100000;
constexpr size_t kLookupPicks = size_t{1} << 20;
constexpr uint64_t kWarmupLookups = 200000;
// Client windows per phase; a fresh set-up precedes each, so setup_s is the
// median of set-ups spread through the run.
constexpr int kWindows = 5;
// Operations per slice of each client; each client times a yardstick chunk
// between every two of its slices.
constexpr uint64_t kSliceLookups = uint64_t{1} << 18;  // about 0.4 s
constexpr uint64_t kSliceQueries = 8;                  // about 0.5 s

/// The resident W-BOX. The default (non-retaining) cache with no operation
/// ever begun keeps every page it has seen. The registry is declared first
/// so it outlives the scheme that records into it.
struct Stack {
  boxes::MetricsRegistry registry;
  boxes::MemoryPageStore memory;
  CountingStore store{&memory};
  boxes::PageCache cache{&store};
  boxes::WBox wbox{&cache};
  std::vector<NewElement> lids;
};

/// Device and cache counts of a phase, summed over its windows.
struct Counts {
  uint64_t store_reads = 0;
  uint64_t store_writes = 0;
  uint64_t store_syncs = 0;
  uint64_t contention = 0;  // PageCache shard contention events
  boxes::PhaseIoTable phases{};

  void Take(const Stack& s) {
    store_reads = s.store.reads();
    store_writes = s.store.writes();
    store_syncs = s.store.syncs();
    contention = s.cache.shard_contention();
    phases = s.cache.phase_stats();
  }
  /// Adds `after` - `before`.
  void Add(const Counts& after, const Counts& before) {
    store_reads += after.store_reads - before.store_reads;
    store_writes += after.store_writes - before.store_writes;
    store_syncs += after.store_syncs - before.store_syncs;
    contention += after.contention - before.contention;
    const boxes::PhaseIoTable delta = PhaseDelta(after.phases, before.phases);
    for (size_t p = 0; p < phases.size(); ++p) {
      phases[p].reads += delta[p].reads;
      phases[p].writes += delta[p].writes;
    }
  }
};

/// The clients rotate over disjoint CPUs, so they never share one: the
/// lookup client over the even-numbered entries of `cpus`, the query client
/// over the odd ones (over all of them when there is only one).
std::vector<int> EveryOther(const std::vector<int>& cpus, size_t first) {
  std::vector<int> picked;
  for (size_t i = first; i < cpus.size(); i += 2) {
    picked.push_back(cpus[i]);
  }
  return picked.empty() ? cpus : picked;
}

struct Phase {
  explicit Phase(const Yardstick* yardstick)
      : lookup_slicer(yardstick, EveryOther(AllowedCpus(), 0)),
        query_slicer(yardstick, EveryOther(AllowedCpus(), 1)) {}

  Samples setup{64};
  Samples lookups{size_t{1} << 20};
  Samples queries{size_t{1} << 14};
  Slicer lookup_slicer;
  Slicer query_slicer;
  uint64_t ops = 0;
  QueryCost query_cost;
  Counts counts;

  /// Both clients' throughputs added; in ops_per_kref each client's is in
  /// its own thread's refs.
  double ops_per_s() const {
    return lookup_slicer.ops_per_s() + query_slicer.ops_per_s();
  }
  double ops_per_kref() const {
    return lookup_slicer.ops_per_kref() + query_slicer.ops_per_kref();
  }
};

/// Builds a fresh stack: bulk load, warm-up lookups and one twig query.
/// Returns its duration.
uint64_t SetUp(const Document& doc, const std::vector<uint32_t>& picks,
               std::unique_ptr<Stack>* stack, Result* result) {
  stack->reset();
  const uint64_t start = NowNs();
  *stack = std::make_unique<Stack>();
  Stack& s = **stack;
  s.wbox.SetMetrics(&s.registry);
  result->Check(s.wbox.BulkLoad(doc, &s.lids), "bulk load");
  for (uint64_t k = 0; k < kWarmupLookups; ++k) {
    const uint32_t pick = picks[k % kLookupPicks];
    const NewElement& element = s.lids[pick / 2];
    (void)s.wbox.LookupShared((pick & 1) != 0 ? element.start : element.end);
  }
  {
    QueryCost cost;
    boxes::EpochReadLock lock(&s.wbox.epoch_guard());
    (void)RunTwigQuery(&s.wbox, doc, s.lids, nullptr, &cost);
  }
  return NowNs() - start;
}

}  // namespace

void RunQueryResident(const RunOptions& options, Result* result) {
  const Document doc =
      boxes::xml::MakeXmarkDocument(kDocElements, options.seed);
  const std::vector<ElementId> expected_roots =
      BruteForceTwigRoots(doc, kTwigPattern);
  boxes::Random rng(options.seed);
  std::vector<uint32_t> picks(kLookupPicks);  // element * 2 + (1 for start)
  for (uint32_t& pick : picks) {
    pick = static_cast<uint32_t>(rng.Uniform(doc.element_count()) * 2 +
                                 rng.Uniform(2));
  }
  std::printf(
      "config: scheme=W-BOX page_size=%zu document=XMark %llu elements "
      "cache=resident (no IoScope) registry=attached threads=2 "
      "(LookupShared + twig '%s', no writer) twig matches=%zu\n",
      boxes::kDefaultPageSize,
      static_cast<unsigned long long>(doc.element_count()), kTwigPattern,
      expected_roots.size());

  const Yardstick yardstick;
  Phase untraced(&yardstick);
  Phase traced(&yardstick);
  std::unique_ptr<Stack> stack;
  untraced.setup.Add(SetUp(doc, picks, &stack, result));

  // Expected labels of every pick, read single-threaded before the clients
  // start: the structure is static and every set-up builds the same one, so
  // each concurrent LookupShared must return exactly these.
  std::vector<uint64_t> expected(kLookupPicks);
  for (size_t i = 0; i < kLookupPicks; ++i) {
    const NewElement& element = stack->lids[picks[i] / 2];
    StatusOr<boxes::Label> label =
        stack->wbox.Lookup((picks[i] & 1) != 0 ? element.start : element.end);
    if (result->Check(label.status(), "expected label")) {
      expected[i] = label->scalar();
    }
  }

  const double phase_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Tracer lookup_tracer(2000);
  Tracer query_tracer(200);
  std::atomic<uint64_t> failures{0};
  // The two clients live for the whole run, so each keeps one malloc arena
  // and the peak RSS repeats; between windows they wait at `sync` while the
  // main thread sets up the next stack. Each client cuts its own slices by
  // operation count and closes the partial one at a window's end.
  struct Window {
    Phase* phase = nullptr;  // null: the clients exit
    bool tracing = false;
  } window;
  std::barrier<> sync(3);
  std::atomic<bool> stop{false};
  uint64_t lookups_done = 0;  // in the current window
  uint64_t queries_done = 0;
  std::thread lookup_client([&] {
    size_t i = 0;
    for (;;) {
      sync.arrive_and_wait();  // window start
      if (window.phase == nullptr) {
        return;
      }
      Phase* phase = window.phase;
      Tracer* tracer = window.tracing ? &lookup_tracer : nullptr;
      Stack& s = *stack;
      phase->lookup_slicer.Start(NowNs());
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t pick = picks[i];
        const NewElement& element = s.lids[pick / 2];
        const Lid lid = (pick & 1) != 0 ? element.start : element.end;
        NextRequest(tracer);
        const uint64_t t0 = NowNs();
        StatusOr<boxes::VersionedLabel> label = Status::OK();
        {
          Span span(tracer, SpanName::kLookup);
          label = s.wbox.LookupShared(lid);
        }
        const uint64_t t1 = NowNs();
        phase->lookups.Add(t1 - t0);
        if (!label.ok() || label->label.scalar() != expected[i]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        phase->lookup_slicer.Count(1);
        if (++lookups_done % kSliceLookups == 0) {
          phase->lookup_slicer.Close(t1);
        }
        i = (i + 1) % kLookupPicks;
      }
      phase->lookup_slicer.Close(NowNs());
      sync.arrive_and_wait();  // window end
    }
  });
  std::thread query_client([&] {
    for (;;) {
      sync.arrive_and_wait();  // window start
      if (window.phase == nullptr) {
        return;
      }
      Phase* phase = window.phase;
      Tracer* tracer = window.tracing ? &query_tracer : nullptr;
      Stack& s = *stack;
      phase->query_slicer.Start(NowNs());
      while (!stop.load(std::memory_order_relaxed)) {
        NextRequest(tracer);
        const uint64_t t0 = NowNs();
        StatusOr<std::vector<ElementId>> roots = Status::OK();
        {
          Span span(tracer, SpanName::kQuery);
          boxes::EpochReadLock lock(&s.wbox.epoch_guard());
          roots = RunTwigQuery(&s.wbox, doc, s.lids, tracer,
                               &phase->query_cost);
        }
        const uint64_t t1 = NowNs();
        phase->queries.Add(t1 - t0);
        if (!roots.ok() || *roots != expected_roots) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        phase->query_slicer.Count(1);
        if (++queries_done % kSliceQueries == 0) {
          phase->query_slicer.Close(t1);
        }
      }
      phase->query_slicer.Close(NowNs());
      sync.arrive_and_wait();  // window end
    }
  });
  for (Phase* phase : {&untraced, &traced}) {
    if (phase == &traced && !options.trace) {
      break;
    }
    for (int w = 0; w < kWindows; ++w) {
      if (phase != &untraced || w > 0) {
        phase->setup.Add(SetUp(doc, picks, &stack, result));
      }
      window = Window{phase, phase == &traced};
      Counts before;
      before.Take(*stack);
      lookups_done = 0;
      queries_done = 0;
      sync.arrive_and_wait();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(phase_seconds / kWindows));
      stop.store(true, std::memory_order_relaxed);
      sync.arrive_and_wait();
      stop.store(false, std::memory_order_relaxed);
      Counts after;
      after.Take(*stack);
      phase->counts.Add(after, before);
      phase->ops += lookups_done + queries_done;
      result->Attempt(lookups_done + queries_done);
    }
  }
  window = Window{};
  sync.arrive_and_wait();
  lookup_client.join();
  query_client.join();
  Stack& s = *stack;
  for (uint64_t i = 0; i < failures.load(); ++i) {
    result->Fail("a concurrent lookup or twig query returned a wrong answer");
  }
  CheckDocumentOrder(&s.wbox, doc, s.lids, result);

  // Device traffic while the clients ran (both phases): 0 when resident.
  const double ops = static_cast<double>(untraced.ops + traced.ops);
  const double io_per_lookup =
      static_cast<double>(untraced.counts.store_reads +
                          traced.counts.store_reads) /
      ops;
  // No client updates: the page writes and syncs of the whole client phase
  // are reported per operation.
  const double io_per_update =
      static_cast<double>(untraced.counts.store_writes +
                          traced.counts.store_writes) /
      ops;
  const double syncs_per_update =
      static_cast<double>(untraced.counts.store_syncs +
                          traced.counts.store_syncs) /
      ops;
  const double ops_per_s = untraced.ops_per_s();
  StatusOr<boxes::SchemeStats> stats = s.wbox.GetStats();
  result->Check(stats.status(), "GetStats");
  const double space =
      stats.ok() ? SpaceBytesPerLabel(*stats, boxes::kDefaultPageSize) : 0;

  const double lookup_ref_ns = untraced.lookup_slicer.ref_ns();
  const double query_ref_ns = untraced.query_slicer.ref_ns();
  std::printf("timings (untraced; 1 ref = %.3f ns on the lookup client, "
              "%.3f ns on the query client, medians of %zu and %zu "
              "yardstick chunks):\n",
              lookup_ref_ns, query_ref_ns, untraced.lookup_slicer.slices(),
              untraced.query_slicer.slices());
  Result::PrintTiming("lookup_ns (LookupShared)", untraced.lookups, 1, "ns",
                      lookup_ref_ns);
  Result::PrintTiming("query_ms (twig)", untraced.queries, 1e6, "ms",
                      query_ref_ns);
  // The main thread sets up; the lookup client's ref stands for the host.
  Result::PrintSetup(untraced.setup, lookup_ref_ns);
  std::printf("  ops_per_s=%.1f (%.4f per 1,000 refs)\n", ops_per_s,
              untraced.ops_per_kref());
  std::printf("  io_per_lookup=%.6f io_per_update=%.6f syncs_per_update=%.6f "
              "(no updates: per operation) space_bytes_per_label=%.6f\n",
              io_per_lookup, io_per_update, syncs_per_update, space);

  result->Set("setup_s", SetupSeconds(untraced.setup, lookup_ref_ns), "s");
  result->Set("ops_per_kref", untraced.ops_per_kref(), "ops/kref");
  result->Set("lookup_p50_ref", untraced.lookups.Quantile(0.5) / lookup_ref_ns,
              "ref");
  result->Set("update_or_query_p50_ref",
              untraced.queries.Quantile(0.5) / query_ref_ns, "ref");
  result->Set("space_bytes_per_label", space, "B");
  result->Set("io_per_lookup", io_per_lookup, "count");
  result->Set("io_per_update", io_per_update, "count");
  result->Set("syncs_per_update", syncs_per_update, "count");
  if (!options.trace) {
    return;
  }

  const double traced_ops_per_s = traced.ops_per_s();
  result->Set("yardstick.find_ns", lookup_ref_ns, "ns");
  result->Set("tracing.lookup_ns_p50_delta",
              traced.lookups.Quantile(0.5) - untraced.lookups.Quantile(0.5),
              "ns");
  result->Set("tracing.ops_per_s_delta_pct",
              100.0 * (traced_ops_per_s - ops_per_s) / ops_per_s, "%");
  const SpanStats& query_spans = query_tracer.stats(SpanName::kQuery);
  const double traced_queries =
      query_spans.count == 0 ? 1.0 : static_cast<double>(query_spans.count);
  result->Set("query.collect_ms",
              static_cast<double>(
                  query_tracer.stats(SpanName::kCollect).total_ns) /
                  traced_queries / 1e6,
              "ms");
  result->Set("query.match_ms",
              static_cast<double>(
                  query_tracer.stats(SpanName::kMatchTwig).self_ns) /
                  traced_queries / 1e6,
              "ms");
  result->Set("query.lookups_per_query",
              static_cast<double>(traced.query_cost.label_lookups) /
                  traced_queries,
              "count");
  result->Set("query.elements_scanned_per_query",
              static_cast<double>(traced.query_cost.elements_scanned) /
                  traced_queries,
              "count");
  Counts client_counts = untraced.counts;
  client_counts.Add(traced.counts, Counts{});
  SetPhaseMetrics(client_counts.phases, untraced.ops + traced.ops, result);
  result->Set("page_cache.shard_contention_per_lookup",
              static_cast<double>(client_counts.contention) /
                  static_cast<double>(untraced.lookups.count() +
                                      traced.lookups.count()),
              "count");
  if (stats.ok()) {
    result->Set("scheme.height", static_cast<double>(stats->height), "count");
    result->Set("scheme.index_pages", static_cast<double>(stats->index_pages),
                "count");
    result->Set("scheme.lidf_pages", static_cast<double>(stats->lidf_pages),
                "count");
  }
  result->Set("store.pages_written_per_update", io_per_update, "count");
  result->Set("store.bytes_written_per_update",
              io_per_update * boxes::kDefaultPageSize, "B");
  ProbeTarget target;
  target.cache = &s.cache;
  target.store = &s.store;
  target.scheme = &s.wbox;
  target.wbox = &s.wbox;
  target.doc = &doc;
  target.lids = &s.lids;
  target.seed = options.seed;
  target.run_dir = options.run_dir;
  ProbeLayers(target, /*want_op_probe=*/true, /*want_bbox_probe=*/true,
              /*want_query_probe=*/false, result);
  result->Check(lookup_tracer.WriteRaw(options.run_dir + "/spans-lookup.jsonl"),
                "writing spans");
  result->Check(query_tracer.WriteRaw(options.run_dir + "/spans-query.jsonl"),
                "writing spans");
}

}  // namespace perfbench
