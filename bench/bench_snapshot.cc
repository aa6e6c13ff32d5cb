// Silo vs live serving (DESIGN.md §4l): compiles a loaded W-BOX into an
// immutable mmap-able snapshot image and compares lookup cost against the
// live structure under the paper's main experimental setting (working set
// dropped per operation). Reported: latency and block reads per lookup for
// the live path, the silo path (which must be zero-I/O), and the silo
// under delta pressure (a fraction of lookups route to the authority),
// plus the cost of a Recompile() and its amortization over the absorbed
// updates. Exits nonzero if the silo path fails its contract (any page
// reads, or slower than live lookups, with or without delta pressure) so
// CI can gate on it.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/common/overlay.h"
#include "util/flags.h"
#include "util/random.h"
#include "workload/runner.h"
#include "xml/generators.h"

namespace boxes::bench {
namespace {

double NsPerOp(std::chrono::steady_clock::duration elapsed, int64_t ops) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(ops);
}

int Run(int argc, char** argv) {
  const bool smoke = ExtractSmokeFlag(&argc, argv);
  FlagParser flags;
  int64_t* elements = flags.AddInt64("elements", 100000, "document elements");
  int64_t* lookups = flags.AddInt64("lookups", 200000, "lookups per phase");
  int64_t* updates =
      flags.AddInt64("updates", 2000, "inserts absorbed by the overlay");
  int64_t* page_size = flags.AddInt64("page_size", 8192, "block size");
  std::string* metrics_json =
      flags.AddString("metrics_json", "", "write metrics JSON here");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  SmokeCap(smoke, elements, 10000);
  SmokeCap(smoke, lookups, 20000);
  SmokeCap(smoke, updates, 400);

  SchemeUnderTest unit(static_cast<size_t>(*page_size));
  CheckOkOrDie(MakeScheme("wbox", &unit), "MakeScheme");
  OverlayOptions options;
  options.snapshot_path = "/tmp/boxes_bench_snapshot_" +
                          std::to_string(::getpid()) + ".silo";
  OverlayedScheme overlay(unit.scheme.get(), options);
  overlay.SetMetrics(&GlobalMetrics());

  const xml::Document doc =
      xml::MakeTwoLevelDocument(static_cast<uint64_t>(*elements));
  std::vector<NewElement> lids;
  CheckOkOrDie(workload::UnmeasuredOp(unit.cache.get(),
                                      [&] { return overlay.BulkLoad(doc, &lids); }),
               "BulkLoad");
  std::printf("SNAPSHOT: %lld elements, %lld lookups/phase, %lld updates\n\n",
              static_cast<long long>(*elements),
              static_cast<long long>(*lookups),
              static_cast<long long>(*updates));
  std::printf("%-22s %12s %14s %22s\n", "phase", "ns/lookup", "reads/lookup",
              "serve mix (base/live)");

  Random rng(42);
  const auto probe = [&]() -> Lid {
    const NewElement& element = lids[rng.Uniform(lids.size())];
    return rng.Bernoulli(0.5) ? element.start : element.end;
  };

  // Live W-BOX lookups, each bracketed as one logical operation (the
  // paper's setting: nothing survives across operations).
  workload::RunStats live_stats;
  const auto live_begin = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < *lookups; ++i) {
    CheckOkOrDie(workload::MeasureOp(
                     unit.cache.get(),
                     [&] { return unit.scheme->Lookup(probe()).status(); },
                     &live_stats),
                 "live lookup");
  }
  const double live_ns = NsPerOp(std::chrono::steady_clock::now() - live_begin,
                                 *lookups);
  std::printf("%-22s %12.0f %14.2f %22s\n", "live wbox", live_ns,
              live_stats.MeanCost(), "-");

  // Compile + silo lookups: no deltas yet, so every lookup must be served
  // from the mmap image with zero PageCache traffic.
  const auto compile_begin = std::chrono::steady_clock::now();
  CheckOkOrDie(overlay.Recompile(), "Recompile");
  const double first_compile_us =
      NsPerOp(std::chrono::steady_clock::now() - compile_begin, 1) / 1000.0;
  unit.cache->ResetStats();
  const OverlayServeStats before_silo = overlay.serve_stats();
  const auto silo_begin = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < *lookups; ++i) {
    CheckOkOrDie(overlay.Lookup(probe()).status(), "silo lookup");
  }
  const double silo_ns = NsPerOp(std::chrono::steady_clock::now() - silo_begin,
                                 *lookups);
  const uint64_t silo_reads = unit.cache->stats().reads;
  const OverlayServeStats after_silo = overlay.serve_stats();
  const uint64_t silo_base = (after_silo.served_base + after_silo.served_repaired) -
                             (before_silo.served_base + before_silo.served_repaired);
  const uint64_t silo_live =
      (after_silo.served_overlay + after_silo.served_fallback) -
      (before_silo.served_overlay + before_silo.served_fallback);
  std::printf("%-22s %12.0f %14.2f %14llu/%llu\n", "silo (no deltas)",
              silo_ns,
              static_cast<double>(silo_reads) / static_cast<double>(*lookups),
              static_cast<unsigned long long>(silo_base),
              static_cast<unsigned long long>(silo_live));

  // Delta pressure: absorb updates, then look up again — delta-map hits
  // route to the authority, everything else stays on the image.
  std::vector<NewElement> fresh;
  fresh.reserve(static_cast<size_t>(*updates));
  for (int64_t i = 0; i < *updates; ++i) {
    CheckOkOrDie(
        workload::UnmeasuredOp(
            unit.cache.get(),
            [&] {
              StatusOr<NewElement> inserted = overlay.InsertElementBefore(
                  lids[rng.Uniform(lids.size())].start);
              if (inserted.ok()) {
                fresh.push_back(*inserted);
              }
              return inserted.status();
            }),
        "update");
  }
  unit.cache->ResetStats();
  const OverlayServeStats before_mixed = overlay.serve_stats();
  const auto mixed_begin = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < *lookups; ++i) {
    // 1 in 5 probes targets an element inserted since the compile — those
    // are delta-map hits and must route to the live authority.
    const Lid lid = rng.Bernoulli(0.2)
                        ? fresh[rng.Uniform(fresh.size())].start
                        : probe();
    CheckOkOrDie(overlay.Lookup(lid).status(), "mixed lookup");
  }
  const double mixed_ns = NsPerOp(
      std::chrono::steady_clock::now() - mixed_begin, *lookups);
  const OverlayServeStats after_mixed = overlay.serve_stats();
  std::printf(
      "%-22s %12.0f %14.2f %14llu/%llu\n", "silo (delta pressure)", mixed_ns,
      static_cast<double>(unit.cache->stats().reads) /
          static_cast<double>(*lookups),
      static_cast<unsigned long long>(
          (after_mixed.served_base + after_mixed.served_repaired) -
          (before_mixed.served_base + before_mixed.served_repaired)),
      static_cast<unsigned long long>(
          (after_mixed.served_overlay + after_mixed.served_fallback) -
          (before_mixed.served_overlay + before_mixed.served_fallback)));

  // Recompile cost and amortization over the updates it folds in.
  const auto recompile_begin = std::chrono::steady_clock::now();
  CheckOkOrDie(overlay.Recompile(), "Recompile");
  const double recompile_us =
      NsPerOp(std::chrono::steady_clock::now() - recompile_begin, 1) / 1000.0;
  std::printf(
      "\nfirst compile: %.0f us; recompile after %lld updates: %.0f us "
      "(%.1f us/update amortized)\n",
      first_compile_us, static_cast<long long>(*updates), recompile_us,
      recompile_us / static_cast<double>(*updates));
  std::printf("delta entries after recompile: %zu\n", overlay.delta_size());

  overlay.PublishMetrics();
  FoldPhaseIoIntoGlobalMetrics(unit);
  MaybeWriteMetricsJson(*metrics_json);
  ::unlink(options.snapshot_path.c_str());

  // CI gate: the silo path's whole point is zero-I/O lookups faster than
  // the live structure, also once updates since the compile need repair.
  if (silo_reads != 0) {
    std::fprintf(stderr, "FAIL: silo path performed %llu page reads\n",
                 static_cast<unsigned long long>(silo_reads));
    return 2;
  }
  if (silo_base != static_cast<uint64_t>(*lookups)) {
    std::fprintf(stderr,
                 "FAIL: %llu of %lld delta-free lookups left the image\n",
                 static_cast<unsigned long long>(silo_live),
                 static_cast<long long>(*lookups));
    return 2;
  }
  if (silo_ns >= live_ns) {
    std::fprintf(stderr,
                 "FAIL: silo lookups (%.0f ns) not faster than live (%.0f ns)\n",
                 silo_ns, live_ns);
    return 2;
  }
  if (mixed_ns >= live_ns) {
    std::fprintf(stderr,
                 "FAIL: silo lookups under delta pressure (%.0f ns) not faster "
                 "than live (%.0f ns)\n",
                 mixed_ns, live_ns);
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace boxes::bench

int main(int argc, char** argv) { return boxes::bench::Run(argc, argv); }
