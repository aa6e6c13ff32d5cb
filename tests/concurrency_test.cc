// Concurrency tests (DESIGN.md §4g): the single-writer/multi-reader epoch
// guard, the sharded thread-safe PageCache, thread-safe metrics, and
// N-readers/1-writer stress on every scheme asserting that concurrent
// lookups are never torn. Run under TSan via the sanitize-thread preset
// (tests/run_tsan.sh); labeled `concurrency` in ctest.

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/bbox/bbox.h"
#include "core/cachelog/caching_store.h"
#include "core/common/epoch_guard.h"
#include "core/naive/naive.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "lidf/lidf.h"
#include "model_tree.h"
#include "storage/page_cache.h"
#include "storage/page_store.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/concurrent_runner.h"
#include "xml/generators.h"

namespace boxes::testing {
namespace {

constexpr size_t kHammerThreads = 8;

/// Runs `body(thread_index)` on `threads` threads, joining all. A simple
/// spin barrier releases every thread at once so the interleaving window
/// is as wide as possible.
void RunThreads(size_t threads, const std::function<void(size_t)>& body) {
  std::atomic<size_t> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < threads) {
        std::this_thread::yield();
      }
      body(t);
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry / Histogram under concurrent hammering (the latent race
// this PR fixes: counters and histograms used to be plain integers).

TEST(ConcurrentMetricsTest, CounterHammerIsExact) {
  MetricsRegistry registry;
  constexpr uint64_t kPerThread = 20000;
  RunThreads(kHammerThreads, [&](size_t t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      registry.IncrementCounter("hammer.shared");
      registry.IncrementCounter("hammer.thread." + std::to_string(t));
    }
  });
  EXPECT_EQ(registry.CounterValue("hammer.shared"),
            kHammerThreads * kPerThread);
  for (size_t t = 0; t < kHammerThreads; ++t) {
    EXPECT_EQ(registry.CounterValue("hammer.thread." + std::to_string(t)),
              kPerThread);
  }
}

TEST(ConcurrentMetricsTest, HistogramHammerIsExact) {
  MetricsRegistry registry;
  constexpr uint64_t kPerThread = 10000;
  RunThreads(kHammerThreads, [&](size_t t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      registry.RecordValue("hammer.histogram", t + 1);
    }
  });
  const Histogram* h = registry.GetHistogram("hammer.histogram");
  EXPECT_EQ(h->count(), kHammerThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (size_t t = 0; t < kHammerThreads; ++t) {
    expected_sum += (t + 1) * kPerThread;
  }
  EXPECT_EQ(h->sum(), expected_sum);
  EXPECT_EQ(h->min(), 1u);
  EXPECT_EQ(h->max(), kHammerThreads);
}

TEST(ConcurrentMetricsTest, ReadersWhileWriting) {
  // ToJson / CounterValue / GetHistogram racing with increments must be
  // clean (TSan) and see internally consistent state.
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry.ToJson();
      (void)registry.CounterValue("mixed.counter");
    }
  });
  for (int i = 0; i < 5000; ++i) {
    registry.IncrementCounter("mixed.counter");
    registry.RecordValue("mixed.histogram", static_cast<uint64_t>(i));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(registry.CounterValue("mixed.counter"), 5000u);
}

// ---------------------------------------------------------------------------
// EpochGuard protocol.

TEST(EpochGuardTest, EpochCountsCommittedWrites) {
  EpochGuard guard;
  EXPECT_EQ(guard.epoch(), 0u);
  EXPECT_FALSE(guard.writer_active());
  {
    EpochWriteLock lock(&guard);
    EXPECT_TRUE(guard.writer_active());
    // A reader arriving mid-write bounces instead of blocking.
    EXPECT_FALSE(guard.TryBeginRead().has_value());
    EXPECT_GE(guard.reader_retries(), 1u);
  }
  EXPECT_FALSE(guard.writer_active());
  EXPECT_EQ(guard.epoch(), 1u);
  const auto ticket = guard.TryBeginRead();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->epoch, 1u);
  guard.EndRead();
}

TEST(EpochGuardTest, ReadersSeeMonotonicEpochs) {
  EpochGuard guard;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> max_seen{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        EpochReadLock lock(&guard);
        EXPECT_GE(lock.epoch(), last);  // epochs never run backwards
        last = lock.epoch();
        uint64_t seen = max_seen.load(std::memory_order_relaxed);
        while (seen < last &&
               !max_seen.compare_exchange_weak(seen, last)) {
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    EpochWriteLock lock(&guard);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(guard.epoch(), 200u);
  EXPECT_LE(max_seen.load(), 200u);
}

// ---------------------------------------------------------------------------
// Sharded PageCache.

TEST(ConcurrentPageCacheTest, ConcurrentReadersChargeEachPageOnce) {
  TestDb db;
  constexpr size_t kPages = 64;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t* data = nullptr;
    ASSERT_OK_AND_ASSIGN(const PageId id, db.cache.AllocatePage(&data));
    std::memset(data, static_cast<int>(i + 1), db.cache.page_size());
    ids.push_back(id);
  }
  ASSERT_OK(db.cache.FlushAll());  // drop: every first touch is a miss
  db.cache.ResetStats();

  std::atomic<uint64_t> mismatches{0};
  RunThreads(kHammerThreads, [&](size_t t) {
    Random rng(t);
    for (int i = 0; i < 2000; ++i) {
      const size_t slot = rng.Uniform(kPages);
      StatusOr<uint8_t*> page = db.cache.GetPage(ids[slot]);
      ASSERT_OK(page.status());
      // Every byte must carry the page's fill pattern — a torn install
      // or cross-page aliasing would break this.
      if ((*page)[0] != static_cast<uint8_t>(slot + 1) ||
          (*page)[db.cache.page_size() - 1] !=
              static_cast<uint8_t>(slot + 1)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  // Racing misses on one page resolve to a single charged load.
  EXPECT_EQ(db.cache.stats().reads, kPages);
  EXPECT_EQ(db.cache.resident_pages(), kPages);
}

TEST(ConcurrentPageCacheTest, PerThreadPhaseAttribution) {
  TestDb db;
  constexpr size_t kPages = 32;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t* data = nullptr;
    ASSERT_OK_AND_ASSIGN(const PageId id, db.cache.AllocatePage(&data));
    ids.push_back(id);
  }
  ASSERT_OK(db.cache.FlushAll());
  db.cache.ResetStats();

  // Each thread reads its own disjoint page range under its own phase;
  // attribution must not leak across threads.
  RunThreads(2, [&](size_t t) {
    ScopedPhase phase(&db.cache,
                      t == 0 ? IoPhase::kSearch : IoPhase::kRelabel);
    for (size_t i = 0; i < kPages / 2; ++i) {
      ASSERT_OK(db.cache.GetPage(ids[t * (kPages / 2) + i]).status());
    }
  });
  EXPECT_EQ(db.cache.phase_stats(IoPhase::kSearch).reads, kPages / 2);
  EXPECT_EQ(db.cache.phase_stats(IoPhase::kRelabel).reads, kPages / 2);
  EXPECT_EQ(db.cache.current_phase(), IoPhase::kOther);
}

// ---------------------------------------------------------------------------
// Scheme stress: N readers / 1 writer, observations never torn.

struct SchemeFactory {
  const char* name;
  std::unique_ptr<LabelingScheme> (*make)(PageCache* cache);
};

// gtest prints the parameter after each test name, and gtest_discover_tests
// copies that text into the ctest name. Print the scheme name: the default
// byte dump shows the struct's pointers, which change with every build and
// every run, so ctest names would never stay the same.
void PrintTo(const SchemeFactory& factory, std::ostream* os) {
  *os << factory.name;
}

std::unique_ptr<LabelingScheme> MakeWbox(PageCache* cache) {
  return std::make_unique<WBox>(cache);
}
std::unique_ptr<LabelingScheme> MakeBbox(PageCache* cache) {
  return std::make_unique<BBox>(cache);
}
std::unique_ptr<LabelingScheme> MakeNaive(PageCache* cache) {
  NaiveOptions options;
  options.gap_bits = 16;
  return std::make_unique<NaiveScheme>(cache, options);
}

class SchemeConcurrencyTest
    : public ::testing::TestWithParam<SchemeFactory> {};

/// Snapshot the probe labels; call under the write lock (or before
/// readers exist).
std::map<Lid, Label> SnapshotProbes(LabelingScheme* scheme,
                                    const std::vector<Lid>& probes) {
  std::map<Lid, Label> out;
  for (const Lid lid : probes) {
    StatusOr<Label> label = scheme->Lookup(lid);
    EXPECT_OK(label.status());
    if (label.ok()) {
      out[lid] = *label;
    }
  }
  return out;
}

TEST_P(SchemeConcurrencyTest, ReadersNeverObserveTornLabels) {
  TestDb db;
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);

  const xml::Document doc = xml::MakeTwoLevelDocument(120);
  std::vector<NewElement> loaded;
  ASSERT_OK(scheme->BulkLoad(doc, &loaded));
  std::vector<Lid> probes;
  for (size_t i = 0; i < loaded.size(); i += 3) {
    probes.push_back(loaded[i].start);
  }

  EpochLabelOracle oracle;
  EpochGuard& guard = scheme->epoch_guard();
  oracle.RecordEpoch(guard.epoch(), SnapshotProbes(scheme.get(), probes));

  constexpr int kReaders = 4;
  constexpr int kLookupsPerReader = 3000;
  constexpr int kWriterOps = 60;
  std::atomic<uint64_t> violations{0};
  std::atomic<int> readers_done{0};

  std::vector<std::thread> pool;
  for (int t = 0; t < kReaders; ++t) {
    pool.emplace_back([&, t] {
      Random rng(100 + t);
      uint64_t last_epoch = 0;
      for (int i = 0; i < kLookupsPerReader; ++i) {
        const Lid lid = probes[rng.Uniform(probes.size())];
        StatusOr<VersionedLabel> got = scheme->LookupShared(lid);
        ASSERT_OK(got.status());
        // Per-thread epochs are monotone, and every observation matches
        // the recorded state of exactly its epoch.
        EXPECT_GE(got->epoch, last_epoch);
        last_epoch = got->epoch;
        const Status check =
            oracle.CheckObservation(lid, got->label, got->epoch);
        if (!check.ok()) {
          ADD_FAILURE() << check.ToString();
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }

  std::thread writer([&] {
    Random rng(7);
    std::vector<NewElement> inserted;
    for (int op = 0; op < kWriterOps; ++op) {
      EpochWriteLock lock(&guard);
      if (!inserted.empty() && rng.Bernoulli(0.3)) {
        const NewElement victim = inserted.back();
        inserted.pop_back();
        ASSERT_OK(scheme->Delete(victim.start));
        ASSERT_OK(scheme->Delete(victim.end));
      } else {
        const Lid before = probes[rng.Uniform(probes.size())];
        StatusOr<NewElement> fresh = scheme->InsertElementBefore(before);
        ASSERT_OK(fresh.status());
        inserted.push_back(*fresh);
      }
      // Still under the lock: define what the next epoch must look like
      // before any reader can be admitted into it.
      oracle.RecordEpoch(guard.epoch() + 1,
                         SnapshotProbes(scheme.get(), probes));
      // Let readers in between writes on a single-core machine.
      if (readers_done.load(std::memory_order_acquire) == kReaders) {
        break;
      }
    }
  });

  for (std::thread& t : pool) {
    t.join();
  }
  writer.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_OK(scheme->CheckInvariants());
  // The writer committed at least one epoch while readers ran, and the
  // guard's epoch equals the number of recorded post-write states.
  EXPECT_GE(guard.epoch(), 1u);
  EXPECT_EQ(oracle.recorded_epochs(), guard.epoch() + 1);
}

TEST_P(SchemeConcurrencyTest, ShutdownUnderLoad) {
  // Readers are still issuing lookups when the test decides to stop: all
  // threads must drain cleanly, and the structure must stay consistent.
  TestDb db;
  std::unique_ptr<LabelingScheme> scheme = GetParam().make(&db.cache);
  const xml::Document doc = xml::MakeTwoLevelDocument(60);
  std::vector<NewElement> loaded;
  ASSERT_OK(scheme->BulkLoad(doc, &loaded));
  std::vector<Lid> probes;
  for (const NewElement& element : loaded) {
    probes.push_back(element.start);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Random rng(t);
      while (!stop.load(std::memory_order_acquire)) {
        ASSERT_OK(
            scheme->LookupShared(probes[rng.Uniform(probes.size())])
                .status());
      }
    });
  }
  std::thread writer([&] {
    Random rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      EpochWriteLock lock(&scheme->epoch_guard());
      StatusOr<NewElement> fresh = scheme->InsertElementBefore(
          probes[rng.Uniform(probes.size())]);
      ASSERT_OK(fresh.status());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  writer.join();
  EXPECT_OK(scheme->CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeConcurrencyTest,
    ::testing::Values(SchemeFactory{"wbox", &MakeWbox},
                      SchemeFactory{"bbox", &MakeBbox},
                      SchemeFactory{"naive16", &MakeNaive}),
    [](const ::testing::TestParamInfo<SchemeFactory>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// LIDF dereference and the caching/replay read path under concurrency.

TEST(ConcurrentLidfTest, ConcurrentDereference) {
  TestDb db;
  Lidf lidf(&db.cache, /*payload_size=*/16);
  constexpr size_t kRecords = 256;
  std::vector<Lid> lids;
  std::vector<uint8_t> fill(lidf.payload_size());
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_OK_AND_ASSIGN(const Lid lid, lidf.Allocate());
    std::memset(fill.data(), static_cast<int>(i & 0xff), fill.size());
    ASSERT_OK(lidf.Write(lid, fill.data()));
    lids.push_back(lid);
  }
  ASSERT_OK(db.cache.FlushAll());

  RunThreads(kHammerThreads, [&](size_t t) {
    Random rng(t);
    std::vector<uint8_t> payload(lidf.payload_size());
    for (int i = 0; i < 2000; ++i) {
      const size_t slot = rng.Uniform(kRecords);
      ASSERT_OK(lidf.Read(lids[slot], payload.data()));
      EXPECT_EQ(payload[0], static_cast<uint8_t>(slot & 0xff));
      EXPECT_EQ(payload[lidf.payload_size() - 1],
                static_cast<uint8_t>(slot & 0xff));
    }
  });
}

TEST(ConcurrentCachingStoreTest, ResilientLookupsUnderConcurrentWrites) {
  TestDb db;
  std::unique_ptr<LabelingScheme> scheme = MakeWbox(&db.cache);
  const xml::Document doc = xml::MakeTwoLevelDocument(80);
  std::vector<NewElement> loaded;
  ASSERT_OK(scheme->BulkLoad(doc, &loaded));

  CachingLabelStore store(scheme.get(), /*log_capacity=*/128);
  EpochGuard& guard = scheme->epoch_guard();

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Refs are caller-owned mutable state: one private set per thread.
      std::vector<CachedLabelRef> refs;
      refs.reserve(loaded.size());
      for (const NewElement& element : loaded) {
        refs.push_back(store.MakeRef(element.start));
      }
      Random rng(t);
      while (!stop.load(std::memory_order_acquire)) {
        CachedLabelRef& ref = refs[rng.Uniform(refs.size())];
        // The epoch read lock brackets the whole serve path, so replay
        // from the mod log cannot race the writer appending to it.
        EpochReadLock lock(&guard);
        StatusOr<ResilientLabel> got = store.LookupResilient(&ref);
        ASSERT_OK(got.status());
        EXPECT_FALSE(got->possibly_stale);  // store is healthy throughout
      }
    });
  }
  std::thread writer([&] {
    Random rng(5);
    while (!stop.load(std::memory_order_acquire)) {
      EpochWriteLock lock(&guard);
      ASSERT_OK(scheme
                    ->InsertElementBefore(
                        loaded[rng.Uniform(loaded.size())].start)
                    .status());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  writer.join();

  EXPECT_GT(store.served_fresh() + store.served_replayed() +
                store.served_full(),
            0u);
  EXPECT_EQ(store.served_degraded(), 0u);
  EXPECT_OK(scheme->CheckInvariants());
}

// ---------------------------------------------------------------------------
// The ConcurrentRunner itself (deterministic writer quota).

TEST(ConcurrentRunnerTest, MixedWorkloadRuns) {
  TestDb db;
  std::unique_ptr<LabelingScheme> scheme = MakeWbox(&db.cache);
  const xml::Document doc = xml::MakeTwoLevelDocument(100);
  std::vector<NewElement> loaded;
  ASSERT_OK(scheme->BulkLoad(doc, &loaded));
  std::vector<Lid> probes;
  for (const NewElement& element : loaded) {
    probes.push_back(element.start);
  }

  workload::ConcurrentOptions options;
  options.reader_threads = 4;
  options.lookups_per_thread = 500;
  options.writer_ops = 40;
  options.drop_cache_every = 10;
  ASSERT_OK_AND_ASSIGN(
      const workload::ConcurrentStats stats,
      workload::RunConcurrent(scheme.get(), &db.cache, probes, options));
  EXPECT_EQ(stats.lookups + stats.not_found + stats.errors, 4u * 500u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.not_found, 0u);  // the writer never deletes probe lids
  EXPECT_EQ(stats.writer_ops, 40u);
  EXPECT_EQ(stats.cache_drops, 4u);
  EXPECT_GT(stats.lookups_per_sec, 0.0);
  EXPECT_OK(scheme->CheckInvariants());

  MetricsRegistry registry;
  workload::ExportConcurrentStats("test", stats, &registry);
  EXPECT_EQ(registry.CounterValue("test.lookups"), stats.lookups);
  EXPECT_EQ(registry.CounterValue("concurrency.reader_retries"),
            stats.reader_retries);
  EXPECT_EQ(registry.CounterValue("cache.shard_contention"),
            stats.shard_contention);
}

}  // namespace
}  // namespace boxes::testing
