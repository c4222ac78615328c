// Tests for the query-processing layer (filtered aggregation, NUMA-local
// materialization, index-nested-loop join, fused pipelines, MPSM joins) in
// both execution modes.
#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "query/join.h"
#include "query/pipeline.h"
#include "query/query.h"

namespace eris::query {
namespace {

using core::Engine;
using core::EngineOptions;
using core::ExecutionMode;
using routing::KeyValue;
using storage::Key;
using storage::ObjectId;
using storage::Value;

class QueryTest : public ::testing::TestWithParam<ExecutionMode> {
 protected:
  EngineOptions MakeOptions() {
    EngineOptions opts;
    opts.topology = numa::Topology::Flat(2, 2);
    opts.mode = GetParam();
    return opts;
  }
};

TEST_P(QueryTest, AggregateComputesAllStats) {
  Engine engine(MakeOptions());
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  QueryRunner runner(&engine);
  std::vector<Value> values;
  for (Value v = 1; v <= 1000; ++v) values.push_back(v);
  runner.session().Append(col, values);

  AggregateResult all = runner.Aggregate(col);
  EXPECT_EQ(all.rows, 1000u);
  EXPECT_EQ(all.sum, 1000u * 1001 / 2);
  EXPECT_EQ(all.min, 1u);
  EXPECT_EQ(all.max, 1000u);
  EXPECT_NEAR(all.avg, 500.5, 0.01);

  AggregateResult filtered = runner.Aggregate(col, {100, 199});
  EXPECT_EQ(filtered.rows, 100u);
  EXPECT_EQ(filtered.min, 100u);
  EXPECT_EQ(filtered.max, 199u);
  engine.Stop();
}

TEST_P(QueryTest, AggregateEmptyFilter) {
  Engine engine(MakeOptions());
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  QueryRunner runner(&engine);
  runner.session().Append(col, std::vector<Value>{5, 6, 7});
  AggregateResult none = runner.Aggregate(col, {100, 200});
  EXPECT_EQ(none.rows, 0u);
  EXPECT_EQ(none.sum, 0u);
  engine.Stop();
}

TEST_P(QueryTest, MaterializeFilterCreatesLocalIntermediates) {
  Engine engine(MakeOptions());
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  QueryRunner runner(&engine);
  std::vector<Value> values;
  for (Value v = 0; v < 50000; ++v) values.push_back(v % 100);
  runner.session().Append(col, values);

  auto result = runner.MaterializeFilter(col, {10, 19}, "matches");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows, 5000u);  // 10 of 100 residues, 500 each

  // The materialized column is a first-class object: scan it.
  AggregateResult check = runner.Aggregate(result->object);
  EXPECT_EQ(check.rows, 5000u);
  EXPECT_EQ(check.min, 10u);
  EXPECT_EQ(check.max, 19u);

  // Intermediates are spread over the AEUs, not concentrated.
  uint32_t holders = 0;
  for (routing::AeuId a = 0; a < engine.num_aeus(); ++a) {
    if (engine.aeu(a).partition(result->object)->tuple_count() > 0) ++holders;
  }
  EXPECT_GT(holders, 1u);
  engine.Stop();
}

TEST(MaterializeWaitTest, ThreadedMaterializeThenAggregateIsExact) {
  // MaterializeFilter returns only after every routed append is applied,
  // so an aggregate over the destination right afterwards must see every
  // match, on every round.
  EngineOptions opts;
  opts.topology = numa::Topology::Flat(2, 2);
  opts.mode = ExecutionMode::kThreads;
  Engine engine(opts);
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  QueryRunner runner(&engine);
  Xoshiro256 rng(9);
  std::vector<Value> values(60000);
  for (Value& v : values) v = rng.NextBounded(1000);
  runner.session().Append(col, values);
  for (int round = 0; round < 20; ++round) {
    const Value lo = static_cast<Value>(round * 37 % 900);
    const Value hi = lo + 99;
    uint64_t want = 0;
    uint64_t want_sum = 0;
    for (Value v : values) {
      if (v >= lo && v <= hi) {
        ++want;
        want_sum += v;
      }
    }
    auto mat = runner.MaterializeFilter(col, {lo, hi},
                                        "m" + std::to_string(round));
    ASSERT_TRUE(mat.ok()) << mat.status().ToString();
    ASSERT_EQ(mat->rows, want) << "round " << round;
    AggregateResult check = runner.Aggregate(mat->object);
    ASSERT_EQ(check.rows, want) << "round " << round;
    ASSERT_EQ(check.sum, want_sum) << "round " << round;
  }
  engine.Stop();
}

#if defined(ERIS_FAULT_INJECTION) && ERIS_FAULT_INJECTION
TEST(MaterializeWaitTest, DroppedAppendEndsTheWaitWithTypedError) {
  EngineOptions opts;
  opts.topology = numa::Topology::Flat(2, 2);
  opts.mode = ExecutionMode::kSimulated;
  Engine engine(opts);
  ObjectId col = engine.CreateColumn("facts");
  engine.Start();
  QueryRunner runner(&engine);
  std::vector<Value> values(5000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 10;
  runner.session().Append(col, values);
  // Every append fails its (injected) version-pool allocation and is shed
  // with kAllocFailed; the scan itself allocates nothing and completes.
  fi::FaultInjector::Global().Reset();
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kMvccVersionAlloc,
                                                 1.0);
  auto mat = runner.MaterializeFilter(col, {0, 4}, "lost");
  fi::FaultInjector::Global().Reset();
  ASSERT_FALSE(mat.ok());
  EXPECT_TRUE(mat.status().IsResourceExhausted()) << mat.status().ToString();
  engine.Stop();
}
#endif

TEST_P(QueryTest, MaterializeRejectsNonColumn) {
  Engine engine(MakeOptions());
  ObjectId idx = engine.CreateIndex("kv", 1u << 16,
                                    {.prefix_bits = 8, .key_bits = 16});
  engine.Start();
  QueryRunner runner(&engine);
  auto result = runner.MaterializeFilter(idx, {}, "out");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  engine.Stop();
}

TEST_P(QueryTest, IndexJoinCountsMatches) {
  Engine engine(MakeOptions());
  ObjectId idx = engine.CreateIndex("dim", 1u << 16,
                                    {.prefix_bits = 8, .key_bits = 16});
  ObjectId probe = engine.CreateColumn("fact_fk");
  engine.Start();
  QueryRunner runner(&engine);

  // Dimension: even keys 0..9998 -> value = key * 2.
  std::vector<KeyValue> kvs;
  for (Key k = 0; k < 10000; k += 2) kvs.push_back({k, k * 2});
  runner.session().Insert(idx, kvs);

  // Facts: foreign keys 0..9999 once each (half will match).
  std::vector<Value> fks;
  for (Value v = 0; v < 10000; ++v) fks.push_back(v);
  runner.session().Append(probe, fks);

  JoinResult join = runner.IndexJoin(probe, {0, 9999}, idx);
  EXPECT_EQ(join.probes, 10000u);
  EXPECT_EQ(join.matches, 5000u);
  uint64_t expected_sum = 0;
  for (Key k = 0; k < 10000; k += 2) expected_sum += k * 2;
  EXPECT_EQ(join.matched_sum, expected_sum);
  engine.Stop();
}

TEST_P(QueryTest, IndexJoinWithProbeFilter) {
  Engine engine(MakeOptions());
  ObjectId idx = engine.CreateIndex("dim", 1u << 16,
                                    {.prefix_bits = 8, .key_bits = 16});
  ObjectId probe = engine.CreateColumn("fact_fk");
  engine.Start();
  QueryRunner runner(&engine);
  std::vector<KeyValue> kvs;
  for (Key k = 0; k < 1000; ++k) kvs.push_back({k, 1});
  runner.session().Insert(idx, kvs);
  std::vector<Value> fks;
  for (Value v = 0; v < 2000; ++v) fks.push_back(v);
  runner.session().Append(probe, fks);

  // Only probe values in [500, 1499]: 1000 probes, 500 match (500..999).
  JoinResult join = runner.IndexJoin(probe, {500, 1499}, idx);
  EXPECT_EQ(join.probes, 1000u);
  EXPECT_EQ(join.matches, 500u);
  engine.Stop();
}

TEST_P(QueryTest, PipelineMaterializeThenJoin) {
  // Compose operators: filter a fact column, then join the intermediate
  // against a dimension index.
  Engine engine(MakeOptions());
  ObjectId idx = engine.CreateIndex("dim", 1u << 16,
                                    {.prefix_bits = 8, .key_bits = 16});
  ObjectId facts = engine.CreateColumn("facts");
  engine.Start();
  QueryRunner runner(&engine);
  std::vector<KeyValue> kvs;
  for (Key k = 0; k < 4096; ++k) kvs.push_back({k, 7});
  runner.session().Insert(idx, kvs);
  std::vector<Value> values;
  Xoshiro256 rng(4);
  uint64_t in_range = 0;
  for (int i = 0; i < 30000; ++i) {
    Value v = rng.NextBounded(1u << 14);
    values.push_back(v);
    if (v >= 1024 && v <= 3071) ++in_range;
  }
  runner.session().Append(facts, values);

  auto mat = runner.MaterializeFilter(facts, {1024, 3071}, "hot_facts");
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->rows, in_range);
  JoinResult join = runner.IndexJoin(mat->object, {}, idx);
  EXPECT_EQ(join.probes, in_range);
  EXPECT_EQ(join.matches, in_range);  // all keys 1024..3071 exist in dim
  engine.Stop();
}

TEST_P(QueryTest, DynamicObjectCreationWhileRunning) {
  Engine engine(MakeOptions());
  ObjectId col = engine.CreateColumn("base");
  engine.Start();
  QueryRunner runner(&engine);
  runner.session().Append(col, std::vector<Value>{1, 2, 3});
  // Create additional objects after Start(), exercise them immediately.
  for (int i = 0; i < 5; ++i) {
    ObjectId extra = engine.CreateColumn("extra" + std::to_string(i));
    runner.session().Append(extra, std::vector<Value>{10, 20});
    EXPECT_EQ(runner.Aggregate(extra).rows, 2u);
    ObjectId extra_idx = engine.CreateIndex(
        "xidx" + std::to_string(i), 1u << 10,
        {.prefix_bits = 5, .key_bits = 10});
    std::vector<KeyValue> kv{{1, 1}};
    runner.session().Insert(extra_idx, kv);
    EXPECT_EQ(runner.session().Lookup(extra_idx, std::vector<Key>{1}), 1u);
  }
  engine.Stop();
}

TEST_P(QueryTest, FusedPipelineMatchesBaselineAndOracle) {
  Engine engine(MakeOptions());
  engine.Start();
  PipelineRunner runner(&engine);
  ColumnGroup group = runner.CreateColumnGroup("g", 3);

  Xoshiro256 rng(11);
  const size_t kRows = 40000;
  std::vector<Value> c0(kRows), c1(kRows), c2(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    c0[i] = rng.NextBounded(10000);
    c1[i] = rng.NextBounded(1000);
    c2[i] = rng.NextBounded(1u << 20);
  }
  std::vector<std::span<const Value>> cols{c0, c1, c2};
  runner.AppendRows(group, cols);

  PipelineQuery q;
  q.filter_column = group[0];
  q.filter = {2000, 2999};
  q.filter2_column = group[1];
  q.filter2 = {0, 499};
  q.agg_column = group[2];

  uint64_t oracle_rows = 0;
  uint64_t oracle_sum = 0;
  for (size_t i = 0; i < kRows; ++i) {
    if (c0[i] >= 2000 && c0[i] <= 2999 && c1[i] <= 499) {
      ++oracle_rows;
      oracle_sum += c2[i];
    }
  }

  PipelineResult fused = runner.Run(q, /*fused=*/true);
  PipelineResult baseline = runner.Run(q, /*fused=*/false);
  EXPECT_EQ(fused.rows, oracle_rows);
  EXPECT_EQ(fused.sum, oracle_sum);
  EXPECT_EQ(baseline.rows, oracle_rows);
  EXPECT_EQ(baseline.sum, oracle_sum);

  // Single-filter plan too (CoveredBy/full-selection path).
  PipelineQuery q1;
  q1.filter_column = group[0];
  q1.filter = {0, ~Value{0}};
  q1.agg_column = group[2];
  uint64_t all_sum = 0;
  for (Value v : c2) all_sum += v;
  PipelineResult whole = runner.Run(q1, /*fused=*/true);
  EXPECT_EQ(whole.rows, kRows);
  EXPECT_EQ(whole.sum, all_sum);
  engine.Stop();
}

TEST_P(QueryTest, PipelineZoneMapsPruneClusteredSegments) {
  Engine engine(MakeOptions());
  engine.Start();
  PipelineRunner runner(&engine);
  ColumnGroup group = runner.CreateColumnGroup("clustered", 2);
  // Clustered values: long runs of one residue, so most segments' zones
  // exclude a narrow filter and the fused pipeline skips them outright.
  const size_t kRows = 200000;
  std::vector<Value> key(kRows), val(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    key[i] = i / 1000;  // 0..199, clustered
    val[i] = i;
  }
  std::vector<std::span<const Value>> cols{key, val};
  runner.AppendRows(group, cols);

  PipelineQuery q;
  q.filter_column = group[0];
  q.filter = {10, 11};
  q.agg_column = group[1];
  PipelineResult r = runner.Run(q, /*fused=*/true);
  EXPECT_EQ(r.rows, 2000u);
  uint64_t pruned = 0;
  for (routing::AeuId a = 0; a < engine.num_aeus(); ++a) {
    pruned += engine.aeu(a).loop_stats().pipeline_segments_pruned;
  }
  EXPECT_GT(pruned, 0u);
  engine.Stop();
}

TEST_P(QueryTest, MergeJoinMatchesSharedHashAndOracle) {
  Engine engine(MakeOptions());
  ObjectId r = engine.CreateIndex("r", 1u << 16,
                                  {.prefix_bits = 8, .key_bits = 16});
  ObjectId s = engine.CreateIndex("s", 1u << 16,
                                  {.prefix_bits = 8, .key_bits = 16});
  ObjectId s_hashed = engine.CreateHashedIndex(
      "s_hashed", 1u << 16, {.prefix_bits = 8, .key_bits = 16});
  engine.Start();
  JoinRunner runner(&engine);
  core::Engine::Session& session = runner.session();

  // R: keys 0..9999 step 3; S: keys 0..9999 step 2. Matches: multiples
  // of 6 below 10000.
  std::vector<KeyValue> r_kvs;
  std::vector<KeyValue> s_kvs;
  for (Key k = 0; k < 10000; k += 3) r_kvs.push_back({k, k + 1});
  for (Key k = 0; k < 10000; k += 2) s_kvs.push_back({k, k + 2});
  session.Insert(r, r_kvs);
  session.Insert(s, s_kvs);
  session.Insert(s_hashed, s_kvs);

  uint64_t oracle_matches = 0;
  uint64_t oracle_key_sum = 0;
  for (Key k = 0; k < 10000; k += 6) {
    ++oracle_matches;
    oracle_key_sum += k;
  }

  MergeJoinResult mpsm = runner.MergeJoin(r, s);
  EXPECT_EQ(mpsm.matches, oracle_matches);
  EXPECT_EQ(mpsm.key_sum, oracle_key_sum);

  // For the MPSM path, the bulk of S must have stayed NUMA-local.
  uint64_t local = 0;
  uint64_t exchanged = 0;
  for (routing::AeuId a = 0; a < engine.num_aeus(); ++a) {
    local += engine.aeu(a).loop_stats().join_entries_local;
    exchanged += engine.aeu(a).loop_stats().join_entries_exchanged;
  }
  EXPECT_EQ(local + exchanged, s_kvs.size());
  EXPECT_GT(local, exchanged);

  MergeJoinResult shared = runner.SharedHashJoin(r, s_hashed);
  EXPECT_EQ(shared.matches, oracle_matches);
  EXPECT_EQ(shared.key_sum, oracle_key_sum);
  engine.Stop();
}

TEST_P(QueryTest, MergeJoinEmptySides) {
  Engine engine(MakeOptions());
  ObjectId r = engine.CreateIndex("r", 1u << 12,
                                  {.prefix_bits = 6, .key_bits = 12});
  ObjectId s = engine.CreateIndex("s", 1u << 12,
                                  {.prefix_bits = 6, .key_bits = 12});
  engine.Start();
  JoinRunner runner(&engine);
  // Both empty.
  MergeJoinResult none = runner.MergeJoin(r, s);
  EXPECT_EQ(none.matches, 0u);
  EXPECT_EQ(none.key_sum, 0u);
  // One side empty.
  std::vector<KeyValue> kvs{{1, 1}, {2, 2}, {3, 3}};
  runner.session().Insert(r, kvs);
  MergeJoinResult half = runner.MergeJoin(r, s);
  EXPECT_EQ(half.matches, 0u);
  engine.Stop();
}

#if defined(ERIS_FAULT_INJECTION) && ERIS_FAULT_INJECTION
TEST(QueryScratchTest, SteadyStatePipelinesAndJoinsAreAllocationFree) {
  // Pipeline and join scratch (selection vectors, sort runs, stage
  // buffers) lives in node-local arenas that grow only through the
  // kQueryScratchAlloc injection point. After one warm-up query of each
  // shape, repeated queries must never visit the point again.
  std::atomic<uint64_t> grows{0};
  fi::FaultInjector::Global().Reset();
  fi::FaultInjector::Global().SetHook(
      fi::Point::kQueryScratchAlloc,
      [&] { grows.fetch_add(1, std::memory_order_relaxed); });

  EngineOptions opts;
  opts.topology = numa::Topology::Flat(2, 2);
  opts.mode = ExecutionMode::kSimulated;
  Engine engine(opts);
  ObjectId r = engine.CreateIndex("r", 1u << 14,
                                  {.prefix_bits = 7, .key_bits = 14});
  ObjectId s = engine.CreateIndex("s", 1u << 14,
                                  {.prefix_bits = 7, .key_bits = 14});
  engine.Start();
  PipelineRunner pipelines(&engine);
  JoinRunner joins(&engine);
  ColumnGroup group = pipelines.CreateColumnGroup("g", 2);

  Xoshiro256 rng(7);
  const size_t kRows = 20000;
  std::vector<Value> c0(kRows), c1(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    c0[i] = rng.NextBounded(1u << 14);
    c1[i] = rng.NextBounded(1u << 14);
  }
  std::vector<std::span<const Value>> cols{c0, c1};
  pipelines.AppendRows(group, cols);
  std::vector<KeyValue> r_kvs, s_kvs;
  for (Key k = 0; k < (1u << 14); k += 3) r_kvs.push_back({k, k});
  for (Key k = 0; k < (1u << 14); k += 2) s_kvs.push_back({k, k});
  joins.session().Insert(r, r_kvs);
  joins.session().Insert(s, s_kvs);

  PipelineQuery q;
  q.filter_column = group[0];
  q.filter = {100, 8000};
  q.agg_column = group[1];

  // Warm-up: one query of each shape grows the arenas to capacity.
  (void)pipelines.Run(q, /*fused=*/true);
  (void)pipelines.Run(q, /*fused=*/false);
  (void)joins.MergeJoin(r, s);
  const uint64_t warmup = grows.load();
  EXPECT_GT(warmup, 0u);  // the warm-up itself does allocate

  for (int round = 0; round < 10; ++round) {
    PipelineResult fused = pipelines.Run(q, /*fused=*/true);
    PipelineResult base = pipelines.Run(q, /*fused=*/false);
    EXPECT_EQ(fused.rows, base.rows);
    MergeJoinResult join = joins.MergeJoin(r, s);
    EXPECT_GT(join.matches, 0u);
  }
  EXPECT_EQ(grows.load(), warmup)
      << "steady-state pipelines/joins grew the query scratch arenas";
  fi::FaultInjector::Global().Reset();
  engine.Stop();
}
#endif  // ERIS_FAULT_INJECTION

INSTANTIATE_TEST_SUITE_P(Modes, QueryTest,
                         ::testing::Values(ExecutionMode::kSimulated,
                                           ExecutionMode::kThreads),
                         [](const auto& info) {
                           return info.param == ExecutionMode::kSimulated
                                      ? "Simulated"
                                      : "Threads";
                         });

}  // namespace
}  // namespace eris::query
