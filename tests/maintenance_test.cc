// Tests for idle-time storage maintenance (MVCC GC) and the snapshot
// tracker — the paper's future-work item on using AEU idle time.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "core/engine.h"

namespace eris::core {
namespace {

using storage::ObjectId;
using storage::Value;

TEST(SnapshotTrackerTest, MinActiveFallsBackWhenEmpty) {
  SnapshotTracker tracker;
  EXPECT_EQ(tracker.MinActive(42), 42u);
  EXPECT_EQ(tracker.active_count(), 0u);
}

TEST(SnapshotTrackerTest, TracksOldestPin) {
  SnapshotTracker tracker;
  tracker.Register(10);
  tracker.Register(5);
  tracker.Register(20);
  EXPECT_EQ(tracker.MinActive(0), 5u);
  tracker.Unregister(5);
  EXPECT_EQ(tracker.MinActive(0), 10u);
  tracker.Unregister(10);
  tracker.Unregister(20);
  EXPECT_EQ(tracker.MinActive(7), 7u);
}

TEST(SnapshotTrackerTest, ReentrantPins) {
  SnapshotTracker tracker;
  tracker.Register(3);
  tracker.Register(3);
  tracker.Unregister(3);
  EXPECT_EQ(tracker.MinActive(0), 3u);  // still pinned once
  tracker.Unregister(3);
  EXPECT_EQ(tracker.MinActive(0), 0u);
}

TEST(SnapshotTrackerTest, RaiiPin) {
  SnapshotTracker tracker;
  {
    SnapshotTracker::Pin pin(&tracker, 9);
    EXPECT_EQ(tracker.MinActive(100), 9u);
  }
  EXPECT_EQ(tracker.MinActive(100), 100u);
}

TEST(MaintenanceTest, IdleLoopReclaimsDeadVersions) {
  EngineOptions opts;
  opts.topology = numa::Topology::Flat(1, 2);
  opts.mode = ExecutionMode::kSimulated;
  Engine engine(opts);
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  auto session = engine.CreateSession();
  session->Append(col, std::vector<Value>(1000, 1));

  // Create undo versions directly on AEU 0's partition (single-writer
  // updates are an AEU-internal operation).
  storage::Partition* part = engine.aeu(0).partition(col);
  uint64_t tuples = part->tuple_count();
  ASSERT_GT(tuples, 0u);
  for (storage::TupleId tid = 0; tid < tuples; ++tid) {
    part->ColumnUpdate(tid, 2, engine.oracle().NextWriteTs());
  }
  EXPECT_EQ(part->mvcc_column()->undo_chains(), tuples);

  // Pump idle iterations until maintenance fires (every 64 idle passes).
  for (int i = 0; i < 300; ++i) engine.PumpAll();
  EXPECT_EQ(part->mvcc_column()->undo_chains(), 0u);
  EXPECT_GT(engine.aeu(0).loop_stats().maintenance_runs, 0u);
  EXPECT_EQ(engine.aeu(0).loop_stats().versions_reclaimed, tuples);

  // Data is still correct at the latest snapshot.
  ScanResult r = session->ScanColumn(col);
  EXPECT_EQ(r.rows, 1000u);
  engine.Stop();
}

TEST(MaintenanceTest, PinnedSnapshotBlocksReclamation) {
  EngineOptions opts;
  opts.topology = numa::Topology::Flat(1, 1);
  opts.mode = ExecutionMode::kSimulated;
  Engine engine(opts);
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  auto session = engine.CreateSession();
  session->Append(col, std::vector<Value>{10, 20, 30});

  storage::Partition* part = engine.aeu(0).partition(col);
  uint64_t old_snapshot = engine.oracle().ReadTs();
  SnapshotTracker::Pin pin(&engine.snapshots(), old_snapshot);
  part->ColumnUpdate(0, 99, engine.oracle().NextWriteTs());
  ASSERT_EQ(part->mvcc_column()->undo_chains(), 1u);

  for (int i = 0; i < 300; ++i) engine.PumpAll();
  // The pinned snapshot still needs the old version.
  EXPECT_EQ(part->mvcc_column()->undo_chains(), 1u);
  EXPECT_EQ(part->mvcc_column()->Read(0, old_snapshot), 10u);
  engine.Stop();
}

#if defined(ERIS_FAULT_INJECTION) && ERIS_FAULT_INJECTION
TEST(MaintenanceTest, ThreadModeReclaimsEventually) {
  // An idle AEU runs maintenance (GC) on its own partitions at any time,
  // so the test thread touches AEU 0's partition only while that loop is
  // parked at the top of an iteration (kAeuLoop hook), never mid-GC.
  std::atomic<bool> hold{false};
  std::atomic<bool> parked{false};
  fi::FaultInjector::Global().Reset();
  fi::FaultInjector::Global().SetHook(fi::Point::kAeuLoop, [&] {
    const Aeu* aeu = Aeu::Current();
    if (aeu == nullptr || aeu->id() != 0) return;
    if (!hold.load(std::memory_order_acquire)) return;
    parked.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
    parked.store(false, std::memory_order_release);
  });
  auto with_aeu0_parked = [&](auto&& fn) {
    hold.store(true, std::memory_order_release);
    while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
    fn();
    hold.store(false, std::memory_order_release);
    while (parked.load(std::memory_order_acquire)) std::this_thread::yield();
  };

  EngineOptions opts;
  opts.topology = numa::Topology::Flat(1, 2);
  opts.mode = ExecutionMode::kThreads;
  Engine engine(opts);
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  auto session = engine.CreateSession();
  session->Append(col, std::vector<Value>(100, 1));
  session->Fence();
  storage::Partition* part = engine.aeu(0).partition(col);
  with_aeu0_parked([&] {
    uint64_t tuples = part->tuple_count();
    for (storage::TupleId tid = 0; tid < tuples; ++tid) {
      part->ColumnUpdate(tid, 2, engine.oracle().NextWriteTs());
    }
  });
  // The idle AEU threads run maintenance on their own.
  size_t undo_chains = 0;
  for (int spin = 0; spin < 200; ++spin) {
    with_aeu0_parked([&] { undo_chains = part->mvcc_column()->undo_chains(); });
    if (undo_chains == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(undo_chains, 0u);
  engine.Stop();
  fi::FaultInjector::Global().Reset();
}
#endif  // ERIS_FAULT_INJECTION

}  // namespace
}  // namespace eris::core
