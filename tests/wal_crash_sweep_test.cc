// Crash sweep of the write-ahead op log: a batched workload runs with the
// WAL pipeline attached (one log append + fdatasync per flush, a durable
// checkpoint only every few flushes) against a fault-injected file store
// that crashes at every k-th page write, tearing the in-flight frame.
//
// The contract under test is strictly stronger than the batch sweep's:
// NO ACKNOWLEDGED LOSS. Once Flush() has returned OK the batch must
// survive any later crash — even though no checkpoint covered it — because
// its log records were synced before it was applied. Every reopened image
// must recover to exactly one flush boundary (same LIDs, same label order,
// same live count: replay is LID-stable), at or above the last flush whose
// Flush() call had returned when the crash hit; a torn log tail must end
// replay cleanly, never fail it and never surface a partial batch.
//
// The overlayed variants write through an OverlayedScheme (the serving
// stack: UpdateBuffer + WalPipeline over the overlay, over the scheme) and
// recover through the plain scheme, as a restarted process would; the
// order the overlay's buffer logs must be the order its authority applies.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/bbox/bbox.h"
#include "core/common/overlay.h"
#include "core/common/update_buffer.h"
#include "core/naive/naive.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "storage/metadata_io.h"
#include "storage/page_cache.h"
#include "storage/page_store.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/random.h"

namespace boxes {
namespace {

using testing::LabelsStrictlyIncreasing;

constexpr size_t kPageSize = 1024;  // smallest size WBox's b >= 24 allows
// The WAL pipeline is write-lean — data pages reach the store only at
// checkpoint barriers — so the op count must be generous for the sweep to
// see >= 150 distinct crash points.
constexpr int kOps = 768;
constexpr size_t kBatch = 16;
// Several flushes ride on the log alone between checkpoints — the sweep
// crosses both kinds of boundary many times.
constexpr uint64_t kCheckpointInterval = 4;
constexpr uint64_t kWorkloadSeed = 0x77a10b0cu;

struct FlushSnapshot {
  uint64_t index = 0;       // flush number, 0-based (== batch id - 1)
  uint64_t ack_writes = 0;  // wrapper writes committed when Flush returned
  std::vector<Lid> order;   // expected tag order at the boundary
};

struct WorkloadState {
  std::vector<Lid> order;
  std::vector<std::pair<Lid, Lid>> elements;
};

struct PlannedOp {
  bool is_delete = false;
  UpdateBuffer::Ticket ticket = 0;
  Lid anchor = kInvalidLid;
  std::pair<Lid, Lid> victim;
};

Status ApplyPlanToModel(const UpdateBuffer& buffer,
                        const std::vector<PlannedOp>& plan,
                        WorkloadState* state) {
  for (const PlannedOp& op : plan) {
    if (op.is_delete) {
      auto& order = state->order;
      order.erase(std::remove_if(order.begin(), order.end(),
                                 [&](Lid lid) {
                                   return lid == op.victim.first ||
                                          lid == op.victim.second;
                                 }),
                  order.end());
      auto& elements = state->elements;
      elements.erase(
          std::remove(elements.begin(), elements.end(), op.victim),
          elements.end());
      continue;
    }
    BOXES_ASSIGN_OR_RETURN(const NewElement fresh, buffer.Result(op.ticket));
    if (op.anchor == kInvalidLid) {  // bootstrap
      state->order = {fresh.start, fresh.end};
      state->elements = {{fresh.start, fresh.end}};
      continue;
    }
    auto it = std::find(state->order.begin(), state->order.end(), op.anchor);
    if (it == state->order.end()) {
      return Status::Internal("anchor vanished from the model");
    }
    state->order.insert(it, {fresh.start, fresh.end});
    state->elements.push_back({fresh.start, fresh.end});
  }
  return Status::OK();
}

// Runs the WAL-attached workload until done or the injected crash fires.
// On the fault-free run, `snapshots` receives one entry per acknowledged
// flush, stamped with the write count at acknowledgment time. With
// `overlayed`, the pipeline and the buffer take an OverlayedScheme wrapping
// `scheme` instead of `scheme` itself.
template <typename Scheme>
Status RunWalWorkload(PageCache* cache, Scheme* scheme,
                      FaultInjectionPageStore* wrapper,
                      std::vector<FlushSnapshot>* snapshots, bool overlayed) {
  BOXES_RETURN_IF_ERROR(InitializeSuperblock(cache));
  std::optional<OverlayedScheme> overlay;
  LabelingScheme* writer = scheme;
  if (overlayed) {
    writer = &overlay.emplace(scheme, OverlayOptions{});
  }
  WalPipeline pipeline(cache, writer,
                       {.checkpoint_interval = kCheckpointInterval});
  BOXES_RETURN_IF_ERROR(pipeline.Init());
  UpdateBuffer buffer(writer,
                      {.flush_threshold = kBatch, .auto_flush = false});
  pipeline.Attach(&buffer);

  const Status run = [&]() -> Status {
    Random rng(kWorkloadSeed);
    WorkloadState state;
    std::vector<PlannedOp> plan;
    uint64_t flush_index = 0;
    auto flush_batch = [&]() -> Status {
      BOXES_RETURN_IF_ERROR(buffer.Flush());
      // This is the acknowledgment point: Flush returned OK, so the batch's
      // log records are on the device and synced. A crash at any write from
      // here on must not lose it.
      BOXES_RETURN_IF_ERROR(ApplyPlanToModel(buffer, plan, &state));
      if (snapshots != nullptr) {
        snapshots->push_back(
            {flush_index, wrapper->writes_committed(), state.order});
      }
      ++flush_index;
      plan.clear();
      return Status::OK();
    };

    {
      PlannedOp op;
      BOXES_ASSIGN_OR_RETURN(op.ticket, buffer.InsertFirstElement());
      plan.push_back(op);
      BOXES_RETURN_IF_ERROR(flush_batch());
    }

    int ops_done = 0;
    while (ops_done < kOps) {
      const size_t snapshot_size = state.elements.size();
      std::unordered_set<size_t> touched;
      const size_t batch =
          std::min<size_t>(kBatch, static_cast<size_t>(kOps - ops_done));
      for (size_t i = 0; i < batch; ++i, ++ops_done) {
        size_t target = snapshot_size;
        for (int tries = 0; tries < 50; ++tries) {
          const size_t candidate = rng.Uniform(snapshot_size);
          if (touched.count(candidate) == 0) {
            target = candidate;
            break;
          }
        }
        if (target == snapshot_size) {
          break;  // batch starved; flush what we have
        }
        touched.insert(target);
        PlannedOp op;
        if (snapshot_size > 6 && rng.Bernoulli(0.3)) {
          op.is_delete = true;
          op.victim = state.elements[target];
          BOXES_RETURN_IF_ERROR(buffer.Delete(op.victim.first).status());
          BOXES_RETURN_IF_ERROR(buffer.Delete(op.victim.second).status());
        } else {
          op.anchor = rng.Bernoulli(0.5) ? state.elements[target].first
                                         : state.elements[target].second;
          BOXES_ASSIGN_OR_RETURN(op.ticket,
                                 buffer.InsertElementBefore(op.anchor));
        }
        plan.push_back(op);
      }
      BOXES_RETURN_IF_ERROR(flush_batch());
    }
    return Status::OK();
  }();
  if (!run.ok()) {
    // The injected crash fired mid-flush. A crash in the WAL append leaves
    // the batch pending by design (real callers may retry Flush once the
    // fault clears), but this "process" is dead — the sweep reopens the
    // image from disk. Acknowledge the loss so the buffer's unflushed-op
    // leak check (an abort in debug builds) doesn't fire on the unwind.
    buffer.DiscardPending();
  }
  return run;
}

std::string SweepPath(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/boxes_wal_sweep_" + tag + ".db";
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  return path;
}

bool IsCleanErrorCode(StatusCode code) {
  return code == StatusCode::kCorruption || code == StatusCode::kIoError ||
         code == StatusCode::kNotFound ||
         code == StatusCode::kInvalidArgument;
}

// Recovers the crashed image through checkpoint restore + log replay.
// Returns the recovered flush count (0 = empty database), or -1 for a
// clean open failure. Anything that is not EXACTLY a flush boundary fails
// the test.
template <typename Scheme, typename Options>
int64_t RecoverCrashedImage(const std::string& path, const Options& options,
                            const std::vector<FlushSnapshot>& snapshots,
                            uint64_t crash_point) {
  FilePageStore store(path, kPageSize, FilePageStore::Mode::kOpen);
  if (!store.status().ok()) {
    EXPECT_TRUE(IsCleanErrorCode(store.status().code()))
        << "crash point " << crash_point
        << ": reopen failed uncleanly: " << store.status().ToString();
    return -1;
  }
  PageCache cache(&store);
  Scheme scheme(&cache, options);
  const StatusOr<WalRecoveryResult> recovered = RecoverWithWal(
      &cache, &scheme, [&](PageId head) { return scheme.Restore(head); });
  if (!recovered.ok()) {
    // Recovery itself must never fail on a crash image: a torn tail is a
    // clean stop, not an error. The only excusable failure is a superblock
    // that never became readable (crash before the first commit finished).
    EXPECT_TRUE(IsCleanErrorCode(recovered.status().code()))
        << "crash point " << crash_point << ": "
        << recovered.status().ToString();
    return -1;
  }

  // Which flush boundary did we land on? The checkpoint covers
  // wal_mark - 1 flushes; replay extends that to its last batch id.
  const StatusOr<SuperblockInfo> info = LoadSuperblock(&cache);
  EXPECT_TRUE(info.ok());
  if (!info.ok()) {
    return -1;
  }
  const uint64_t flushes = recovered->replay.batches_replayed > 0
                               ? recovered->replay.last_replayed_batch
                               : info->wal_mark - 1;

  const Status invariants = scheme.CheckInvariants();
  EXPECT_TRUE(invariants.ok())
      << "crash point " << crash_point << ": " << invariants.ToString();
  if (flushes == 0) {
    StatusOr<SchemeStats> stats = scheme.GetStats();
    EXPECT_TRUE(stats.ok() && stats->live_labels == 0)
        << "crash point " << crash_point
        << ": pre-bootstrap image must recover empty";
    return 0;
  }
  if (flushes > snapshots.size()) {
    ADD_FAILURE() << "crash point " << crash_point
                  << ": recovered unknown flush boundary " << flushes;
    return -1;
  }
  // The no-partial-batch check: the recovered tree IS the boundary
  // snapshot, LID for LID — every expected label present and ordered, and
  // not one label more.
  const FlushSnapshot& model = snapshots[flushes - 1];
  EXPECT_TRUE(LabelsStrictlyIncreasing(&scheme, model.order))
      << "crash point " << crash_point << ", flush boundary " << flushes;
  StatusOr<SchemeStats> stats = scheme.GetStats();
  EXPECT_TRUE(stats.ok());
  if (stats.ok()) {
    EXPECT_EQ(stats->live_labels, model.order.size())
        << "crash point " << crash_point << ", flush boundary " << flushes
        << ": recovered a partially applied batch";
  }
  return static_cast<int64_t>(flushes);
}

template <typename Scheme, typename Options>
void RunWalCrashSweep(const std::string& tag, const Options& options,
                      bool overlayed = false) {
  std::vector<FlushSnapshot> snapshots;
  uint64_t total_writes = 0;
  {
    const std::string path = SweepPath(tag + "_ref");
    FilePageStore base(path, kPageSize);
    ASSERT_OK(base.status());
    FaultInjectionPageStore wrapper(&base);
    PageCache cache(&wrapper);
    Scheme scheme(&cache, options);
    ASSERT_OK(
        RunWalWorkload(&cache, &scheme, &wrapper, &snapshots, overlayed));
    total_writes = wrapper.writes_committed();
  }
  ASSERT_GE(snapshots.size(), 8u) << "workload must span several flushes";
  ASSERT_GE(total_writes, 150u) << "workload too small for the sweep";

  const uint64_t stride = std::max<uint64_t>(1, total_writes / 150);
  uint64_t points = 0;
  uint64_t recovered_images = 0;
  const std::string path = SweepPath(tag);
  for (uint64_t crash = 0; crash < total_writes; crash += stride) {
    ++points;
    {
      FilePageStore base(path, kPageSize);
      ASSERT_OK(base.status());
      FaultInjectionPageStore wrapper(&base);
      wrapper.SetSeed(crash);
      wrapper.SetTornWrites(true);
      wrapper.CrashAfterWrites(crash);
      PageCache cache(&wrapper);
      Scheme scheme(&cache, options);
      const Status run =
          RunWalWorkload(&cache, &scheme, &wrapper, nullptr, overlayed);
      ASSERT_FALSE(run.ok()) << "crash point " << crash << " never fired";
      ASSERT_EQ(run.code(), StatusCode::kIoError)
          << "crash point " << crash << ": " << run.ToString();
      ASSERT_TRUE(wrapper.crashed());
    }
    // The no-acknowledged-loss floor: every flush whose Flush() call had
    // returned before the crash write must be recovered.
    int64_t acked = 0;
    for (const FlushSnapshot& snapshot : snapshots) {
      if (snapshot.ack_writes <= crash) {
        acked = static_cast<int64_t>(snapshot.index) + 1;
      }
    }
    const int64_t got = RecoverCrashedImage<Scheme, Options>(
        path, options, snapshots, crash);
    if (got >= 0) {
      ++recovered_images;
      EXPECT_GE(got, acked)
          << "crash point " << crash << " lost an acknowledged flush";
    } else {
      EXPECT_EQ(acked, 0)
          << "crash point " << crash
          << ": image with acknowledged flushes failed to open";
    }
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ASSERT_GE(points, 100u);
  EXPECT_GT(recovered_images, points / 2);
  ::testing::Test::RecordProperty("crash_points", static_cast<int>(points));
  ::testing::Test::RecordProperty("recovered",
                                  static_cast<int>(recovered_images));
}

TEST(WalCrashSweepTest, WBoxNeverLosesAcknowledgedFlushes) {
  RunWalCrashSweep<WBox>("wbox", WBoxOptions{});
}

TEST(WalCrashSweepTest, BBoxNeverLosesAcknowledgedFlushes) {
  RunWalCrashSweep<BBox>("bbox", BBoxOptions{});
}

TEST(WalCrashSweepTest, NaiveNeverLosesAcknowledgedFlushes) {
  RunWalCrashSweep<NaiveScheme>(
      "naive", NaiveOptions{.gap_bits = 8, .count_bits = 30});
}

TEST(WalCrashSweepTest, OverlayedWBoxNeverLosesAcknowledgedFlushes) {
  RunWalCrashSweep<WBox>("overlay_wbox", WBoxOptions{}, /*overlayed=*/true);
}

TEST(WalCrashSweepTest, OverlayedBBoxNeverLosesAcknowledgedFlushes) {
  RunWalCrashSweep<BBox>("overlay_bbox", BBoxOptions{}, /*overlayed=*/true);
}

TEST(WalCrashSweepTest, OverlayedNaiveNeverLosesAcknowledgedFlushes) {
  RunWalCrashSweep<NaiveScheme>(
      "overlay_naive", NaiveOptions{.gap_bits = 8, .count_bits = 30},
      /*overlayed=*/true);
}

}  // namespace
}  // namespace boxes
