// Tests of the group-commit write pipeline (DESIGN.md §4h) and of the two
// write-path fixes that ride with it:
//
//   * UpdateBuffer mechanics: tickets, auto-flush, one write epoch per
//     flushed batch, batch.* metrics;
//   * checkpoint sync accounting: Checkpoint() alone must not fdatasync at
//     all, a committed checkpoint costs exactly two fdatasyncs, and a
//     redundant commit (nothing dirty) costs exactly one — the regression
//     tests for the double-fsync-per-checkpoint bug;
//   * group commit amortization: sync calls per op strictly decrease as
//     the batch size grows;
//   * LID-stable subtree operations: subtree inserts/deletes interleaved
//     with relabel passes (naive-k RelabelAll, W-BOX global rebuilds) must
//     land exactly where their anchor LIDs say, no matter how label values
//     move mid-operation.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/bbox/bbox.h"
#include "core/common/update_buffer.h"
#include "core/naive/naive.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "model_tree.h"
#include "storage/metadata_io.h"
#include "storage/page_cache.h"
#include "storage/page_store.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/random.h"
#include "xml/generators.h"

namespace boxes::testing {
namespace {

constexpr size_t kPageSize = 1024;

std::string TempDbPath(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/boxes_ubuf_" + tag + ".db";
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  return path;
}

// ---------------------------------------------------------------------------
// UpdateBuffer mechanics (on the in-memory store).

TEST(UpdateBufferTest, TicketsResolveAfterFlush) {
  TestDb db;
  WBox scheme(&db.cache);
  UpdateBuffer buffer(&scheme, {.flush_threshold = 8, .auto_flush = false});

  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket root_ticket,
                       buffer.InsertFirstElement());
  EXPECT_EQ(buffer.pending(), 1u);
  EXPECT_EQ(buffer.Result(root_ticket).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_OK(buffer.Flush());
  EXPECT_EQ(buffer.pending(), 0u);
  ASSERT_OK_AND_ASSIGN(const NewElement root, buffer.Result(root_ticket));

  // Anchors must be live at batch start, so the follow-up batch anchors on
  // the already-flushed root.
  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket child_ticket,
                       buffer.InsertElementBefore(root.end));
  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket sibling_ticket,
                       buffer.InsertElementBefore(root.end));
  ASSERT_OK(buffer.Flush());
  ASSERT_OK_AND_ASSIGN(const NewElement child, buffer.Result(child_ticket));
  ASSERT_OK_AND_ASSIGN(const NewElement sibling,
                       buffer.Result(sibling_ticket));

  // Two inserts before the same anchor keep their enqueue order: root
  // start, child, sibling, root end.
  ASSERT_TRUE(LabelsStrictlyIncreasing(
      &scheme, {root.start, child.start, child.end, sibling.start,
                sibling.end, root.end}));
  EXPECT_EQ(buffer.batches_flushed(), 2u);
  EXPECT_EQ(buffer.ops_flushed(), 3u);
  ASSERT_OK(scheme.CheckInvariants());
}

TEST(UpdateBufferTest, UnknownTicketIsInvalid) {
  TestDb db;
  WBox scheme(&db.cache);
  UpdateBuffer buffer(&scheme);
  EXPECT_EQ(buffer.Result(42).status().code(), StatusCode::kInvalidArgument);
}

TEST(UpdateBufferTest, AutoFlushFiresAtThreshold) {
  TestDb db;
  WBox scheme(&db.cache);
  UpdateBuffer buffer(&scheme, {.flush_threshold = 1, .auto_flush = true});
  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket root_ticket,
                       buffer.InsertFirstElement());
  ASSERT_OK_AND_ASSIGN(const NewElement root, buffer.Result(root_ticket));

  UpdateBuffer batched(&scheme, {.flush_threshold = 4, .auto_flush = true});
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(batched.InsertElementBefore(root.end).status());
    EXPECT_EQ(batched.pending(), static_cast<size_t>(i + 1));
  }
  ASSERT_OK(batched.InsertElementBefore(root.end).status());
  EXPECT_EQ(batched.pending(), 0u);
  EXPECT_EQ(batched.batches_flushed(), 1u);
  EXPECT_EQ(batched.ops_flushed(), 4u);
}

TEST(UpdateBufferTest, OneEpochPerFlushedBatch) {
  TestDb db;
  WBox scheme(&db.cache);
  UpdateBuffer buffer(&scheme, {.flush_threshold = 64, .auto_flush = false});
  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket root_ticket,
                       buffer.InsertFirstElement());
  ASSERT_OK(buffer.Flush());
  ASSERT_OK_AND_ASSIGN(const NewElement root, buffer.Result(root_ticket));

  const uint64_t before = scheme.epoch_guard().epoch();
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK(buffer.InsertElementBefore(root.end).status());
    }
    ASSERT_OK(buffer.Flush());
  }
  // Three batches of five ops = exactly three committed write epochs.
  EXPECT_EQ(scheme.epoch_guard().epoch(), before + 3);
  ASSERT_OK(buffer.Flush());  // empty flush: no epoch
  EXPECT_EQ(scheme.epoch_guard().epoch(), before + 3);
}

// Regression: Flush's locality sort permutes the batch in place, so
// result tickets must travel with their ops (BatchOp::user_tag) rather
// than pair positionally. With positional pairing the two results below
// come back swapped — or, with deletes interleaved, as empty NewElements.
TEST(UpdateBufferTest, TicketsSurviveLocalitySortReordering) {
  TestDb db;
  NaiveScheme scheme(&db.cache,
                     NaiveOptions{.gap_bits = 16, .count_bits = 40});
  MetricsRegistry metrics;
  scheme.SetMetrics(&metrics);

  ASSERT_OK_AND_ASSIGN(const NewElement root, scheme.InsertFirstElement());
  std::vector<NewElement> children;
  for (int i = 0; i < 1200; ++i) {
    ASSERT_OK_AND_ASSIGN(const NewElement child,
                         scheme.InsertElementBefore(root.end));
    children.push_back(child);
  }

  // Enqueue anchored on a late LID first, an early LID second, with a
  // delete in between (deletes produce no result, which is what leaked
  // into insert tickets under positional pairing). naive's locality key
  // is the anchor's LIDF page, which ascends with allocation order, so
  // the sort must move the second insert ahead of the first.
  UpdateBuffer buffer(&scheme, {.flush_threshold = 8, .auto_flush = false});
  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket last_ticket,
                       buffer.InsertElementBefore(children.back().start));
  const NewElement victim = children[children.size() / 2];
  ASSERT_OK(buffer.Delete(victim.start).status());
  ASSERT_OK(buffer.Delete(victim.end).status());
  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket first_ticket,
                       buffer.InsertElementBefore(children.front().start));
  ASSERT_OK(buffer.Flush());
  EXPECT_GT(metrics.CounterValue("batch.reordered_ops"), 0u)
      << "anchors ~2400 LIDs apart must land on different LIDF pages";

  ASSERT_OK_AND_ASSIGN(const NewElement before_last,
                       buffer.Result(last_ticket));
  ASSERT_OK_AND_ASSIGN(const NewElement before_first,
                       buffer.Result(first_ticket));
  // Each result sits immediately before its own anchor.
  ASSERT_TRUE(LabelsStrictlyIncreasing(
      &scheme, {root.start, before_first.start, before_first.end,
                children.front().start}));
  ASSERT_TRUE(LabelsStrictlyIncreasing(
      &scheme, {children[children.size() - 2].end, before_last.start,
                before_last.end, children.back().start}));
  ASSERT_OK(scheme.CheckInvariants());
}

// Regression: destroying a buffer with unflushed ops used to drop them
// silently. It must fail loudly — abort in debug builds; in release
// builds, log and count the loss under buffer.dropped_ops.
TEST(UpdateBufferTest, DestructorFailsLoudlyOnUnflushedOps) {
  TestDb db;
  WBox scheme(&db.cache);
  MetricsRegistry metrics;
  scheme.SetMetrics(&metrics);
#ifndef NDEBUG
  EXPECT_DEATH(
      {
        UpdateBuffer doomed(&scheme,
                            {.flush_threshold = 64, .auto_flush = false});
        (void)doomed.InsertFirstElement();
      },
      "unflushed");
#else
  {
    UpdateBuffer doomed(&scheme,
                        {.flush_threshold = 64, .auto_flush = false});
    ASSERT_OK(doomed.InsertFirstElement().status());
    ASSERT_OK(doomed.InsertElementBefore(1).status());
  }
  EXPECT_EQ(metrics.CounterValue("buffer.dropped_ops"), 2u);
#endif
}

// After a persistent durability-hook failure Flush keeps the pending set
// intact for retry — correct for transient faults, but a caller whose
// device will never come back still needs a way out that is not the
// destructor abort. DiscardPending acknowledges the loss explicitly.
TEST(UpdateBufferTest, DiscardPendingReleasesOpsAfterPersistentFault) {
  TestDb db;
  WBox scheme(&db.cache);
  MetricsRegistry metrics;
  scheme.SetMetrics(&metrics);
  {
    UpdateBuffer buffer(&scheme,
                        {.flush_threshold = 64, .auto_flush = false});
    buffer.SetDurabilityHook([](const std::vector<BatchOp>&) {
      return Status::IoError("device is gone");
    });
    ASSERT_OK(buffer.InsertFirstElement().status());
    ASSERT_OK(buffer.InsertFirstElement().status());
    // The fault is persistent: every retry fails and the ops stay pending.
    EXPECT_EQ(buffer.Flush().code(), StatusCode::kIoError);
    EXPECT_EQ(buffer.Flush().code(), StatusCode::kIoError);
    EXPECT_EQ(buffer.pending(), 2u);
    EXPECT_EQ(buffer.DiscardPending(), 2u);
    EXPECT_EQ(buffer.pending(), 0u);
    EXPECT_EQ(buffer.DiscardPending(), 0u);  // idempotent, no double count
    // The destructor now runs with nothing pending: no abort (debug), no
    // second count (release).
  }
  EXPECT_EQ(metrics.CounterValue("buffer.dropped_ops"), 2u);
}

TEST(UpdateBufferTest, BatchMetricsAreRecorded) {
  TestDb db;
  WBox scheme(&db.cache);
  MetricsRegistry metrics;
  scheme.SetMetrics(&metrics);
  UpdateBuffer buffer(&scheme, {.flush_threshold = 64, .auto_flush = false});
  ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket root_ticket,
                       buffer.InsertFirstElement());
  ASSERT_OK(buffer.Flush());
  ASSERT_OK_AND_ASSIGN(const NewElement root, buffer.Result(root_ticket));
  for (int i = 0; i < 7; ++i) {
    ASSERT_OK(buffer.InsertElementBefore(root.end).status());
  }
  ASSERT_OK(buffer.Flush());
  EXPECT_EQ(metrics.CounterValue("batch.flushes"), 2u);
  EXPECT_EQ(metrics.CounterValue("batch.ops"), 8u);
}

// ---------------------------------------------------------------------------
// Checkpoint sync accounting (the double-fsync regression tests). Runs on a
// real FilePageStore so Counters::sync_calls counts actual fdatasyncs.

template <typename Scheme, typename Options>
void RunSyncAccountingTest(const std::string& tag, const Options& options) {
  const std::string path = TempDbPath(tag);
  FilePageStore store(path, kPageSize);
  ASSERT_OK(store.status());
  PageCache cache(&store);
  ASSERT_OK(InitializeSuperblock(&cache));
  Scheme scheme(&cache, options);

  ASSERT_OK_AND_ASSIGN(const NewElement root, scheme.InsertFirstElement());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(scheme.InsertElementBefore(root.end).status());
  }

  // Building the checkpoint chain is pure page writing: zero fdatasyncs.
  const uint64_t before_checkpoint = store.counters().sync_calls;
  ASSERT_OK_AND_ASSIGN(const PageId head, scheme.Checkpoint());
  EXPECT_EQ(store.counters().sync_calls, before_checkpoint)
      << "Checkpoint() must not sync; durability is CommitCheckpoint's job";

  // A committed checkpoint is exactly two barriers: data+chain, then the
  // flipped superblock slot. (The old code paid a third inside
  // Checkpoint().)
  const uint64_t before_commit = store.counters().sync_calls;
  ASSERT_OK(CommitCheckpoint(&cache, head));
  EXPECT_EQ(store.counters().sync_calls, before_commit + 2);

  // Re-committing with nothing dirty: the data barrier has nothing to
  // persist and is skipped; only the superblock flip syncs.
  const uint64_t before_recommit = store.counters().sync_calls;
  ASSERT_OK(CommitCheckpoint(&cache, head));
  EXPECT_EQ(store.counters().sync_calls, before_recommit + 1);
}

TEST(CheckpointSyncAccountingTest, WBoxCommitsWithTwoSyncs) {
  RunSyncAccountingTest<WBox>("wbox", WBoxOptions{});
}

TEST(CheckpointSyncAccountingTest, BBoxCommitsWithTwoSyncs) {
  RunSyncAccountingTest<BBox>("bbox", BBoxOptions{});
}

TEST(CheckpointSyncAccountingTest, NaiveCommitsWithTwoSyncs) {
  RunSyncAccountingTest<NaiveScheme>(
      "naive", NaiveOptions{.gap_bits = 8, .count_bits = 30});
}

TEST(CheckpointSyncAccountingTest, MemoryStoreCountsOnlyDirtySyncs) {
  MemoryPageStore store;
  EXPECT_OK(store.Sync());
  EXPECT_EQ(store.sync_calls(), 0u) << "nothing written, nothing synced";
  ASSERT_OK_AND_ASSIGN(const PageId page, store.Allocate());
  std::vector<uint8_t> buf(store.page_size(), 0xab);
  ASSERT_OK(store.Write(page, buf.data()));
  EXPECT_OK(store.Sync());
  EXPECT_EQ(store.sync_calls(), 1u);
  EXPECT_OK(store.Sync());
  EXPECT_EQ(store.sync_calls(), 1u) << "redundant barrier must be skipped";
}

// Group commit is what the two fixes above buy: with one checkpoint commit
// per batch, fdatasyncs per op must strictly decrease as batches grow.
TEST(CheckpointSyncAccountingTest, SyncsPerOpDecreaseWithBatchSize) {
  constexpr int kOps = 64;
  double previous = 0.0;
  bool have_previous = false;
  for (const size_t batch : {size_t{1}, size_t{8}, size_t{64}}) {
    const std::string path = TempDbPath("amortize" + std::to_string(batch));
    FilePageStore store(path, kPageSize);
    ASSERT_OK(store.status());
    PageCache cache(&store);
    ASSERT_OK(InitializeSuperblock(&cache));
    WBox scheme(&cache);
    UpdateBuffer buffer(&scheme,
                        {.flush_threshold = batch, .auto_flush = false});
    buffer.SetCommitHook([&]() -> Status {
      BOXES_ASSIGN_OR_RETURN(const PageId head, scheme.Checkpoint());
      return CommitCheckpoint(&cache, head);
    });
    ASSERT_OK_AND_ASSIGN(const UpdateBuffer::Ticket root_ticket,
                         buffer.InsertFirstElement());
    ASSERT_OK(buffer.Flush());
    ASSERT_OK_AND_ASSIGN(const NewElement root, buffer.Result(root_ticket));

    const uint64_t before = store.counters().sync_calls;
    for (int op = 0; op < kOps; ++op) {
      ASSERT_OK(buffer.InsertElementBefore(root.end).status());
      if (buffer.pending() >= batch) {
        ASSERT_OK(buffer.Flush());
      }
    }
    ASSERT_OK(buffer.Flush());
    const double per_op =
        static_cast<double>(store.counters().sync_calls - before) / kOps;
    if (have_previous) {
      EXPECT_LT(per_op, previous)
          << "sync calls per op must strictly decrease with batch size "
          << batch;
    }
    previous = per_op;
    have_previous = true;
    ASSERT_OK(scheme.CheckInvariants());
  }
}

// ---------------------------------------------------------------------------
// LID stability of subtree operations under interleaved relabeling.

// Serializes the model's current shape + tag order check against `scheme`.
void ExpectMatchesModel(LabelingScheme* scheme, const ModelTree& model) {
  const std::vector<Lid> order = model.TagOrder();
  ASSERT_TRUE(LabelsStrictlyIncreasing(scheme, order));
  ASSERT_OK_AND_ASSIGN(const SchemeStats stats, scheme->GetStats());
  EXPECT_EQ(stats.live_labels, order.size());
  ASSERT_OK(scheme->CheckInvariants());
}

// naive-k with a tiny gap relabels constantly; subtree inserts (the
// element-wise default) and the generic by-LID DeleteSubtree must survive
// RelabelAll passes firing in the middle of their own loops.
TEST(LidStabilityTest, NaiveSubtreeOpsSurviveInterleavedRelabels) {
  TestDb db;
  NaiveScheme scheme(&db.cache,
                     NaiveOptions{.gap_bits = 4, .count_bits = 40});
  ModelTree model;
  Random rng(0x5eed01);

  ASSERT_OK_AND_ASSIGN(const NewElement root, scheme.InsertFirstElement());
  model.SetRoot(root);
  for (int i = 0; i < 120; ++i) {
    const int target = model.RandomElement(&rng, /*exclude_root=*/false);
    ASSERT_OK_AND_ASSIGN(
        const NewElement fresh,
        scheme.InsertElementBefore(model.node(target).lids.end));
    model.InsertAsLastChild(target, fresh);
  }
  ExpectMatchesModel(&scheme, model);

  for (int round = 0; round < 6; ++round) {
    // A 30-element subtree insert at gap_bits=4 exhausts gaps mid-insert,
    // forcing RelabelAll while the element-wise loop is still anchoring
    // later elements by LID.
    const xml::Document doc =
        xml::MakeRandomDocument(30, 4, 7000 + static_cast<uint64_t>(round));
    const int target = model.RandomElement(&rng, /*exclude_root=*/true);
    std::vector<NewElement> lids;
    ASSERT_OK(scheme.InsertSubtreeBefore(model.node(target).lids.start, doc,
                                         &lids));
    const int grafted = model.GraftBeforeStart(target, doc, lids);
    ExpectMatchesModel(&scheme, model);

    // More single inserts to shift labels again, then delete the grafted
    // subtree through the generic by-LID path.
    for (int i = 0; i < 25; ++i) {
      const int anchor = model.RandomElement(&rng, /*exclude_root=*/false);
      ASSERT_OK_AND_ASSIGN(
          const NewElement fresh,
          scheme.InsertElementBefore(model.node(anchor).lids.end));
      model.InsertAsLastChild(anchor, fresh);
    }
    const NewElement doomed = model.node(grafted).lids;
    ASSERT_OK(scheme.DeleteSubtree(doomed.start, doomed.end));
    model.DeleteSubtree(grafted);
    ExpectMatchesModel(&scheme, model);
  }
}

// The generic (base-class) DeleteSubtree on W-BOX, with the rebuild
// threshold set low enough that the per-victim Delete calls trigger a
// global rebuild — every label in the tree changes — partway through the
// victim loop. The by-LID snapshot must keep the remaining victims
// addressable; iterating by label value would delete the wrong records.
TEST(LidStabilityTest, GenericDeleteSubtreeSurvivesMidLoopGlobalRebuild) {
  TestDb db;
  WBoxOptions options;
  options.rebuild_tombstone_ratio = 0.05;
  options.min_rebuild_records = 64;
  WBox scheme(&db.cache, options);
  ModelTree model;
  Random rng(0x5eed02);

  ASSERT_OK_AND_ASSIGN(const NewElement root, scheme.InsertFirstElement());
  model.SetRoot(root);
  for (int i = 0; i < 400; ++i) {
    const int target = model.RandomElement(&rng, /*exclude_root=*/false);
    ASSERT_OK_AND_ASSIGN(
        const NewElement fresh,
        scheme.InsertElementBefore(model.node(target).lids.end));
    model.InsertAsLastChild(target, fresh);
  }

  // Deep graft: a subtree big enough that deleting it label-at-a-time
  // crosses the 5% tombstone threshold several times.
  const xml::Document doc = xml::MakeRandomDocument(60, 6, 99);
  const int target = model.RandomElement(&rng, /*exclude_root=*/true);
  std::vector<NewElement> lids;
  ASSERT_OK(scheme.InsertSubtreeBefore(model.node(target).lids.start, doc,
                                       &lids));
  const int grafted = model.GraftBeforeStart(target, doc, lids);
  ExpectMatchesModel(&scheme, model);

  const NewElement doomed = model.node(grafted).lids;
  // Call the base-class implementation explicitly: W-BOX's own override is
  // exercised elsewhere; this asserts the generic path's LID snapshot.
  ASSERT_OK(scheme.LabelingScheme::DeleteSubtree(doomed.start, doomed.end));
  model.DeleteSubtree(grafted);
  ExpectMatchesModel(&scheme, model);
}

}  // namespace
}  // namespace boxes::testing
