// Crash sweep over the snapshot publish protocol (DESIGN.md §4l): kill
// Recompile() at every file operation — temp-file create, each chunked
// write, fsync, rename, directory fsync — and require that reopening the
// snapshot path always serves a complete, validating image: either the old
// compile or the new one (never torn), with the invalidation GUID saying
// which. A subsequent un-faulted Recompile() must always recover, even
// over leftover temp files. The sweep is self-calibrating: the history is
// fixed, so the budget climbs until the publish completes cleanly, which
// proves every earlier op was an injection point that got exercised.

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/common/overlay.h"
#include "core/wbox/wbox.h"
#include "gtest/gtest.h"
#include "storage/page_cache.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "util/random.h"

namespace boxes::testing {
namespace {

constexpr uint64_t kSeed = 0xc7a54ULL;
constexpr uint64_t kBudgetCap = 4096;  // runaway guard, far above any real count

// Applies deterministic mutations through `overlay` (inserts as last child
// of random elements, occasional deletes of previously inserted).
void Mutate(OverlayedScheme* overlay, std::vector<NewElement>* elements,
            Random* rng, int ops) {
  for (int i = 0; i < ops; ++i) {
    if (elements->size() > 8 && rng->Bernoulli(0.25)) {
      const size_t victim = 1 + rng->Uniform(elements->size() - 1);
      const NewElement lids = (*elements)[victim];
      ASSERT_OK(overlay->Delete(lids.start));
      ASSERT_OK(overlay->Delete(lids.end));
      elements->erase(elements->begin() + static_cast<ptrdiff_t>(victim));
    } else {
      const size_t target = rng->Uniform(elements->size());
      ASSERT_OK_AND_ASSIGN(
          const NewElement fresh,
          overlay->InsertElementBefore((*elements)[target].end));
      elements->push_back(fresh);
    }
  }
}

// Image entries must be exactly the authority's live LID set, each with
// the authority's current label.
void ExpectImageMatchesAuthority(const SnapshotReader* reader,
                                 WBox* authority) {
  uint64_t live = 0;
  ASSERT_OK(authority->lidf()->ForEachLive(
      [&](Lid lid, const uint8_t*) {
        ++live;
        const size_t index = reader->FindIndex(lid);
        EXPECT_NE(index, SnapshotReader::kNotFound) << "lid " << lid;
        if (index != SnapshotReader::kNotFound) {
          StatusOr<Label> expected = authority->Lookup(lid);
          EXPECT_OK(expected.status());
          if (expected.ok()) {
            EXPECT_EQ(*expected, reader->LabelAt(index)) << "lid " << lid;
          }
        }
        return Status::OK();
      }));
  EXPECT_EQ(reader->entry_count(), live);
}

TEST(SnapshotCrashSweepTest, EveryPublishCrashPointServesOldOrNewImage) {
  const std::string dir = ::testing::TempDir();
  bool completed_cleanly = false;
  uint64_t budget = 0;
  for (; budget <= kBudgetCap && !completed_cleanly; ++budget) {
    SCOPED_TRACE("crash budget " + std::to_string(budget));
    const std::string path = dir + "boxes_snapcrash_" +
                             std::to_string(::getpid()) + ".silo";
    ::unlink(path.c_str());
    ::unlink((path + ".tmp").c_str());

    TestDb db;
    WBox wbox(&db.cache);

    // Generation 1: bootstrap + clean compile. The history is identical
    // for every budget, so the faulted publish below performs the same op
    // sequence each time and the budget enumerates its crash points.
    std::vector<NewElement> elements;
    SnapshotGuid old_guid;
    uint64_t old_entries = 0;
    {
      OverlayOptions options;
      options.snapshot_path = path;
      options.recompile_write_chunk_bytes = 4096;  // many write crash points
      OverlayedScheme overlay(&wbox, options);
      ASSERT_OK_AND_ASSIGN(const NewElement root,
                           overlay.InsertFirstElement());
      elements.push_back(root);
      Random rng(kSeed);
      Mutate(&overlay, &elements, &rng, 400);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      ASSERT_OK(overlay.Recompile());
      ASSERT_NE(overlay.reader(), nullptr);
      old_guid = overlay.reader()->guid();
      old_entries = overlay.reader()->entry_count();

      // Generation 2: more mutations, then the faulted publish.
      Random rng2(~kSeed);
      Mutate(&overlay, &elements, &rng2, 150);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }

    // The crashing process is gone before the rebooted one attaches its
    // overlay to the authority (one listener per scheme).
    Status crashed;
    {
      OverlayOptions crash_options;
      crash_options.snapshot_path = path;
      crash_options.recompile_fail_after_file_ops = budget;
      crash_options.recompile_write_chunk_bytes = 4096;
      OverlayedScheme crashing(&wbox, crash_options);
      crashed = crashing.Recompile();
    }
    completed_cleanly = crashed.ok();

    // "Reboot": open whatever is on disk, as a fresh process would. It
    // must validate — never torn — and be exactly one of the two compiles.
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<SnapshotReader> reopened,
                         SnapshotReader::Open(path));
    if (reopened->guid() == old_guid) {
      EXPECT_EQ(reopened->entry_count(), old_entries);
      EXPECT_FALSE(crashed.ok())
          << "publish claimed success but the old image is still served";
    } else {
      ExpectImageMatchesAuthority(reopened.get(), &wbox);
    }

    // Recovery: a clean recompile over the leftover state (partial .tmp,
    // old or new image) must succeed and serve the current state.
    OverlayOptions recover_options;
    recover_options.snapshot_path = path;
    OverlayedScheme recovered(&wbox, recover_options);
    ASSERT_OK(recovered.Recompile());
    ASSERT_NE(recovered.reader(), nullptr);
    EXPECT_NE(recovered.reader()->guid(), old_guid);
    ExpectImageMatchesAuthority(recovered.reader(), &wbox);

    // Every element lookup after recovery matches the live authority.
    for (const NewElement& element : elements) {
      for (const Lid lid : {element.start, element.end}) {
        ASSERT_OK_AND_ASSIGN(const Label expected, wbox.Lookup(lid));
        ASSERT_OK_AND_ASSIGN(const Label got, recovered.Lookup(lid));
        ASSERT_EQ(expected, got) << "lid " << lid;
      }
    }

    ::unlink(path.c_str());
    ::unlink((path + ".tmp").c_str());
  }
  ASSERT_TRUE(completed_cleanly)
      << "publish never completed within " << kBudgetCap << " file ops";
  // The sweep covered create/writes/fsync/rename/dirsync at minimum.
  EXPECT_GT(budget, 5u) << "suspiciously few crash points swept";
}

}  // namespace
}  // namespace boxes::testing
