// Crash sweep of the group-commit write pipeline: a batched workload
// (UpdateBuffer, one checkpoint commit per flush) runs against a
// fault-injected file store that crashes at every k-th page write, tearing
// the in-flight frame. Recovery must be all-or-nothing at BATCH
// granularity: every reopened image must restore exactly one
// flush-boundary snapshot — same label order, same live-label count —
// never a partially applied batch, and never lose a batch whose commit
// completed before the crash.

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/bbox/bbox.h"
#include "core/common/update_buffer.h"
#include "core/naive/naive.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "storage/metadata_io.h"
#include "storage/page_cache.h"
#include "storage/page_store.h"
#include "test_util.h"
#include "util/random.h"

namespace boxes {
namespace {

using testing::LabelsStrictlyIncreasing;

constexpr size_t kPageSize = 1024;  // smallest size WBox's b >= 24 allows
// Group commit coalesces page writes (that is the point), so the op count
// must be generous for the sweep to see >= 150 distinct crash points.
constexpr int kOps = 640;
constexpr size_t kBatch = 16;
constexpr uint64_t kWorkloadSeed = 0x6c0bba7cu;

struct BatchSnapshot {
  uint64_t index = 0;          // flush number, 0-based
  uint64_t commit_writes = 0;  // wrapper writes when the commit completed
  std::vector<Lid> order;      // expected tag order at the boundary
};

struct WorkloadState {
  std::vector<Lid> order;                     // tag order, start/end lids
  std::vector<std::pair<Lid, Lid>> elements;  // live elements
};

struct PlannedOp {
  bool is_delete = false;
  UpdateBuffer::Ticket ticket = 0;   // insert: resolves to the new LIDs
  Lid anchor = kInvalidLid;          // insert: tag the new element precedes
  std::pair<Lid, Lid> victim;        // delete: the removed element
};

// Applies one flushed batch to the model state, in enqueue order. Anchors
// are distinct per batch, so sequential replay reproduces what the
// (possibly reordered) batch application produced.
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
      elements.erase(std::remove(elements.begin(), elements.end(),
                                 op.victim),
                     elements.end());
      continue;
    }
    BOXES_ASSIGN_OR_RETURN(const NewElement fresh,
                           buffer.Result(op.ticket));
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

// Runs the batched workload: kOps planned ops in batches of kBatch, each
// flush group-committing one checkpoint whose chain carries
// [flush_index, scheme head]. Stops at the first error (the injected
// crash). On the fault-free run, `snapshots` receives one entry per flush.
template <typename Scheme>
Status RunBatchedWorkload(PageCache* cache, Scheme* scheme,
                          FaultInjectionPageStore* wrapper,
                          std::vector<BatchSnapshot>* snapshots) {
  BOXES_RETURN_IF_ERROR(InitializeSuperblock(cache));
  UpdateBuffer buffer(scheme,
                      {.flush_threshold = kBatch, .auto_flush = false});
  uint64_t flush_index = 0;
  uint64_t last_commit_writes = 0;
  PageId previous_chain = kInvalidPageId;
  buffer.SetCommitHook([&]() -> Status {
    BOXES_ASSIGN_OR_RETURN(const PageId scheme_head, scheme->Checkpoint());
    MetadataWriter writer;
    writer.PutU64(flush_index);
    writer.PutU64(scheme_head);
    BOXES_ASSIGN_OR_RETURN(const PageId head, writer.Finish(cache));
    BOXES_RETURN_IF_ERROR(CommitCheckpoint(cache, head));
    last_commit_writes = wrapper->writes_committed();
    // Reclaim the superseded chain only after the new commit is durable.
    if (previous_chain != kInvalidPageId) {
      BOXES_RETURN_IF_ERROR(FreeMetadataChain(cache, previous_chain));
      BOXES_RETURN_IF_ERROR(cache->FlushAll());
    }
    previous_chain = head;
    return Status::OK();
  });

  Random rng(kWorkloadSeed);
  WorkloadState state;
  std::vector<PlannedOp> plan;
  auto flush_batch = [&]() -> Status {
    BOXES_RETURN_IF_ERROR(buffer.Flush());
    BOXES_RETURN_IF_ERROR(ApplyPlanToModel(buffer, plan, &state));
    if (snapshots != nullptr) {
      snapshots->push_back({flush_index, last_commit_writes, state.order});
    }
    ++flush_index;
    plan.clear();
    return Status::OK();
  };

  // Bootstrap batch: the first element, alone (nothing else can anchor on
  // it until it has flushed).
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
      // Pick an element that existed at batch start and is untouched by
      // this batch, so every anchor honors the ApplyBatch contract.
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
        BOXES_RETURN_IF_ERROR(
            buffer.Delete(op.victim.first).status());
        BOXES_RETURN_IF_ERROR(
            buffer.Delete(op.victim.second).status());
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
}

std::string SweepPath(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/boxes_batch_sweep_" + tag + ".db";
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  return path;
}

bool IsCleanErrorCode(StatusCode code) {
  return code == StatusCode::kCorruption || code == StatusCode::kIoError ||
         code == StatusCode::kNotFound ||
         code == StatusCode::kInvalidArgument;
}

// Reopens the crashed image. Returns the recovered flush index, or -1 for
// a clean pre-first-commit error. Any state that is not EXACTLY a flush
// boundary fails the test.
template <typename Scheme, typename Options>
int64_t VerifyCrashedImage(const std::string& path, const Options& options,
                           const std::vector<BatchSnapshot>& snapshots,
                           uint64_t crash_point) {
  FilePageStore store(path, kPageSize, FilePageStore::Mode::kOpen);
  if (!store.status().ok()) {
    EXPECT_TRUE(IsCleanErrorCode(store.status().code()))
        << "crash point " << crash_point
        << ": reopen failed uncleanly: " << store.status().ToString();
    return -1;
  }
  PageCache cache(&store);
  const StatusOr<PageId> head = LoadCheckpointHead(&cache);
  if (!head.ok()) {
    EXPECT_TRUE(IsCleanErrorCode(head.status().code()))
        << "crash point " << crash_point << ": "
        << head.status().ToString();
    return -1;
  }
  StatusOr<MetadataReader> reader = MetadataReader::Load(&cache, *head);
  if (!reader.ok()) {
    ADD_FAILURE() << "crash point " << crash_point
                  << ": committed chain unreadable: "
                  << reader.status().ToString();
    return -1;
  }
  StatusOr<uint64_t> index = reader->GetU64();
  StatusOr<uint64_t> scheme_head =
      index.ok() ? reader->GetU64() : StatusOr<uint64_t>(index.status());
  if (!index.ok() || !scheme_head.ok()) {
    ADD_FAILURE() << "crash point " << crash_point
                  << ": committed chain truncated";
    return -1;
  }
  if (*index >= snapshots.size()) {
    ADD_FAILURE() << "crash point " << crash_point
                  << ": recovered unknown batch boundary " << *index;
    return -1;
  }
  Scheme scheme(&cache, options);
  const Status restored = scheme.Restore(*scheme_head);
  if (!restored.ok()) {
    ADD_FAILURE() << "crash point " << crash_point
                  << ": Restore failed: " << restored.ToString();
    return -1;
  }
  const Status invariants = scheme.CheckInvariants();
  if (!invariants.ok()) {
    ADD_FAILURE() << "crash point " << crash_point
                  << ": invariants violated: " << invariants.ToString();
    return -1;
  }
  // The all-or-nothing check: the recovered tree IS the boundary snapshot
  // — every expected label present and ordered, and not one label more.
  const BatchSnapshot& model = snapshots[*index];
  EXPECT_TRUE(LabelsStrictlyIncreasing(&scheme, model.order))
      << "crash point " << crash_point << ", batch boundary " << *index;
  StatusOr<SchemeStats> stats = scheme.GetStats();
  EXPECT_TRUE(stats.ok());
  if (stats.ok()) {
    EXPECT_EQ(stats->live_labels, model.order.size())
        << "crash point " << crash_point << ", batch boundary " << *index
        << ": recovered a partially applied batch";
  }
  return static_cast<int64_t>(*index);
}

template <typename Scheme, typename Options>
void RunBatchCrashSweep(const std::string& tag, const Options& options) {
  std::vector<BatchSnapshot> snapshots;
  uint64_t total_writes = 0;
  {
    const std::string path = SweepPath(tag + "_ref");
    FilePageStore base(path, kPageSize);
    ASSERT_OK(base.status());
    FaultInjectionPageStore wrapper(&base);
    PageCache cache(&wrapper);
    Scheme scheme(&cache, options);
    ASSERT_OK(RunBatchedWorkload(&cache, &scheme, &wrapper, &snapshots));
    total_writes = wrapper.writes_committed();
  }
  ASSERT_GE(snapshots.size(), 5u) << "workload must span several batches";
  ASSERT_GE(total_writes, 150u) << "workload too small for the sweep";

  const uint64_t stride = std::max<uint64_t>(1, total_writes / 130);
  uint64_t points = 0;
  uint64_t recovered = 0;
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
          RunBatchedWorkload(&cache, &scheme, &wrapper, nullptr);
      ASSERT_FALSE(run.ok()) << "crash point " << crash << " never fired";
      ASSERT_EQ(run.code(), StatusCode::kIoError)
          << "crash point " << crash << ": " << run.ToString();
      ASSERT_TRUE(wrapper.crashed());
    }
    // Strict floor: a batch whose commit completed must never be lost.
    int64_t expected_min = -1;
    for (const BatchSnapshot& snapshot : snapshots) {
      if (snapshot.commit_writes <= crash) {
        expected_min = static_cast<int64_t>(snapshot.index);
      }
    }
    const int64_t got = VerifyCrashedImage<Scheme, Options>(
        path, options, snapshots, crash);
    if (got >= 0) {
      ++recovered;
    }
    EXPECT_GE(got, expected_min)
        << "crash point " << crash << " lost a committed batch";
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ASSERT_GE(points, 100u);
  EXPECT_GT(recovered, points / 2);
  ::testing::Test::RecordProperty("crash_points", static_cast<int>(points));
  ::testing::Test::RecordProperty("recovered", static_cast<int>(recovered));
}

TEST(BatchCrashSweepTest, WBoxBatchesAreAllOrNothing) {
  RunBatchCrashSweep<WBox>("wbox", WBoxOptions{});
}

TEST(BatchCrashSweepTest, BBoxBatchesAreAllOrNothing) {
  RunBatchCrashSweep<BBox>("bbox", BBoxOptions{});
}

TEST(BatchCrashSweepTest, NaiveBatchesAreAllOrNothing) {
  RunBatchCrashSweep<NaiveScheme>(
      "naive", NaiveOptions{.gap_bits = 8, .count_bits = 30});
}

}  // namespace
}  // namespace boxes
