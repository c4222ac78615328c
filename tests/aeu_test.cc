// AEU-level tests: loop mechanics, command grouping/coalescing, deferral,
// and forwarding, exercised through a manually pumped engine.
#include <gtest/gtest.h>

#include "core/engine.h"

namespace eris::core {
namespace {

using routing::AggregateSink;
using routing::CommandType;
using routing::KeyValue;
using storage::Key;
using storage::ObjectId;
using storage::Value;

EngineOptions SimOpts(uint32_t nodes = 2, uint32_t cores = 2) {
  EngineOptions opts;
  opts.topology = numa::Topology::Flat(nodes, cores);
  opts.mode = ExecutionMode::kSimulated;
  return opts;
}

TEST(AeuTest, IdleIterationReportsNoWork) {
  Engine engine(SimOpts());
  engine.CreateIndex("kv", 1u << 16, {.prefix_bits = 8, .key_bits = 16});
  engine.Start();
  // Drain whatever startup left behind.
  while (engine.PumpAll()) {
  }
  EXPECT_FALSE(engine.aeu(0).RunLoopIteration());
  engine.Stop();
}

TEST(AeuTest, CommandsAreCountedPerLoop) {
  Engine engine(SimOpts());
  ObjectId idx = engine.CreateIndex("kv", 1u << 16,
                                    {.prefix_bits = 8, .key_bits = 16});
  engine.Start();
  auto session = engine.CreateSession();
  std::vector<KeyValue> kvs{{1, 1}, {40000, 2}};
  session->Insert(idx, kvs);
  uint64_t processed = 0;
  for (routing::AeuId a = 0; a < engine.num_aeus(); ++a) {
    processed += engine.aeu(a).loop_stats().commands_processed;
  }
  EXPECT_GE(processed, 2u);  // at least the two insert chunks
  engine.Stop();
}

TEST(AeuTest, ScanCommandsSubmittedTogetherCoalesce) {
  Engine engine(SimOpts(1, 1));  // one AEU: all scans land in one mailbox
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  auto session = engine.CreateSession();
  session->Append(col, std::vector<Value>{1, 2, 3, 4, 5});

  AggregateSink& sink = session->sink();
  sink.Reset();
  routing::ScanParams params;
  params.snapshot_ts = engine.oracle().ReadTs();
  uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) {
    expected += session->endpoint().SendScanColumn(col, params, &sink);
  }
  session->Wait(expected);
  // All 8 scans arrived in one drain: 7 were answered by the shared pass.
  EXPECT_EQ(engine.aeu(0).loop_stats().scans_coalesced, 7u);
  EXPECT_EQ(sink.hits(), 8u * 5);
  engine.Stop();
}

TEST(AeuTest, CoalescedScansWithDistinctFiltersStayIsolated) {
  // The segment-at-a-time shared pass must evaluate each coalesced job's
  // own predicate and visible prefix.
  Engine engine(SimOpts(1, 1));
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  auto session = engine.CreateSession();
  std::vector<Value> values;
  for (Value v = 0; v < 1000; ++v) values.push_back(v);
  session->Append(col, values);

  AggregateSink& sink = session->sink();
  sink.Reset();
  routing::ScanParams narrow;
  narrow.snapshot_ts = engine.oracle().ReadTs();
  narrow.lo = 10;
  narrow.hi = 19;
  routing::ScanParams full;
  full.snapshot_ts = engine.oracle().ReadTs();
  uint64_t expected = session->endpoint().SendScanColumn(col, narrow, &sink);
  expected += session->endpoint().SendScanColumn(col, full, &sink);
  session->Wait(expected);
  EXPECT_EQ(sink.hits(), 10u + 1000u);
  EXPECT_EQ(sink.sum(), (10u + 19u) * 10 / 2 + 999u * 1000 / 2);
  engine.Stop();
}

TEST(AeuTest, SelectiveScanSkipsSegmentsViaZoneMaps) {
  Engine engine(SimOpts(1, 1));
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  auto session = engine.CreateSession();
  // Clustered (ascending) values spanning several segments.
  const uint64_t n = storage::ColumnStore::kSegmentCapacity * 3;
  std::vector<Value> values(8192);
  for (uint64_t done = 0; done < n; done += values.size()) {
    for (size_t i = 0; i < values.size(); ++i) values[i] = done + i;
    session->Append(col, values);
  }
  uint64_t skipped_before = engine.aeu(0).loop_stats().zone_segments_skipped;
  // A range living entirely in the first segment: the other segments are
  // skipped without being streamed.
  core::ScanResult r = session->ScanColumn(col, 100, 199);
  EXPECT_EQ(r.rows, 100u);
  EXPECT_GT(engine.aeu(0).loop_stats().zone_segments_skipped, skipped_before);
  engine.Stop();
}

TEST(AeuTest, StaleOwnerForwardsAfterTableChange) {
  Engine engine(SimOpts(1, 4));
  const Key n = 1u << 14;
  ObjectId idx = engine.CreateIndex("kv", n,
                                    {.prefix_bits = 8, .key_bits = 14});
  engine.Start();
  auto loader = engine.CreateSession();
  std::vector<KeyValue> kvs;
  for (Key k = 0; k < n; ++k) kvs.push_back({k, k});
  loader->Insert(idx, kvs);

  // Skew the monitor so a rebalance will move boundaries.
  std::vector<Key> hot;
  for (Key k = 0; k < n / 4; ++k) hot.push_back(k);
  loader->Lookup(idx, hot);

  // Buffer probes in a second session WITHOUT flushing: they are encoded
  // against the current (soon stale) partitioning.
  auto prober = engine.CreateSession();
  AggregateSink& sink = prober->sink();
  sink.Reset();
  std::vector<Key> probes;
  for (Key k = 0; k < 256; ++k) probes.push_back(k * (n / 256));
  uint64_t expected = prober->endpoint().SendLookupBatch(idx, probes, &sink);

  // Rebalance moves data and ranges; the buffered probes now target stale
  // owners and must be forwarded on delivery.
  LoadBalancerConfig cfg;
  cfg.algorithm = BalanceAlgorithm::kOneShot;
  cfg.trigger_cv = 0.05;
  cfg.min_total_accesses = 1;
  ASSERT_TRUE(engine.RebalanceObject(idx, cfg));

  prober->Wait(expected);
  EXPECT_EQ(sink.hits(), probes.size());  // nothing lost
  uint64_t forwarded = 0;
  for (routing::AeuId a = 0; a < engine.num_aeus(); ++a) {
    forwarded += engine.aeu(a).loop_stats().commands_forwarded;
  }
  EXPECT_GE(forwarded, 1u);
  engine.Stop();
}

TEST(AeuTest, QuiesceWaitsForRoutedFollowUps) {
  Engine engine(SimOpts());
  ObjectId col = engine.CreateColumn("src");
  ObjectId dst = engine.CreateColumn("dst");
  engine.Start();
  auto session = engine.CreateSession();
  std::vector<Value> values(10000, 7);
  session->Append(col, values);

  routing::ScanParams params;
  params.snapshot_ts = engine.oracle().ReadTs();
  params.output = routing::ScanOutput::kAppendTo;
  params.target_object = dst;
  AggregateSink& sink = session->sink();
  sink.Reset();
  uint64_t expected = session->endpoint().SendScanColumn(col, params, &sink);
  session->Wait(expected);
  engine.Quiesce();
  uint64_t dst_rows = 0;
  for (routing::AeuId a = 0; a < engine.num_aeus(); ++a) {
    dst_rows += engine.aeu(a).partition(dst)->tuple_count();
  }
  EXPECT_EQ(dst_rows, 10000u);
  engine.Stop();
}

TEST(AeuTest, QuiesceWaitsForRoutedFollowUpsThreaded) {
  // With AEU threads, the scan's routed appends are processed while the
  // client waits in Quiesce; the barrier must not return before the last
  // of them has landed, round after round.
  EngineOptions opts = SimOpts();
  opts.mode = ExecutionMode::kThreads;
  Engine engine(opts);
  ObjectId col = engine.CreateColumn("src");
  ObjectId dst = engine.CreateColumn("dst");
  engine.Start();
  auto session = engine.CreateSession();
  std::vector<Value> values(10000, 7);
  session->Append(col, values);

  routing::ScanParams params;
  params.snapshot_ts = engine.oracle().ReadTs();
  params.output = routing::ScanOutput::kAppendTo;
  params.target_object = dst;
  AggregateSink& sink = session->sink();
  for (uint64_t round = 1; round <= 50; ++round) {
    sink.Reset();
    uint64_t expected = session->endpoint().SendScanColumn(col, params, &sink);
    session->Wait(expected);
    engine.Quiesce();
    uint64_t dst_rows = 0;
    for (routing::AeuId a = 0; a < engine.num_aeus(); ++a) {
      dst_rows += engine.aeu(a).partition(dst)->tuple_count();
    }
    ASSERT_EQ(dst_rows, round * values.size()) << "round " << round;
  }
  engine.Stop();
}

TEST(AeuTest, LoopStatsTrackIterations) {
  Engine engine(SimOpts(1, 1));
  engine.CreateIndex("kv", 1u << 10, {.prefix_bits = 5, .key_bits = 10});
  engine.Start();
  uint64_t before = engine.aeu(0).loop_stats().iterations;
  engine.PumpAll();
  engine.PumpAll();
  EXPECT_EQ(engine.aeu(0).loop_stats().iterations, before + 2);
  engine.Stop();
}

}  // namespace
}  // namespace eris::core
