// Tests for the vectorized segment-at-a-time scan pipeline: differential
// SIMD-vs-scalar kernel equivalence, zone-map maintenance across the
// column's structural operations, the MVCC visible-prefix fast path, and
// the engine's one column-scan command with every output kind coalesced
// into one shared pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "numa/memory_manager.h"
#include "storage/column_store.h"
#include "storage/mvcc.h"

namespace eris::storage {
namespace {

class ScanPipelineTest : public ::testing::Test {
 protected:
  numa::NodeMemoryManager mm_{0};
};

// ---------------------------------------------------------------------------
// Differential: dispatched kernels vs scalar reference
// ---------------------------------------------------------------------------

// Ranges that exercise boundary behavior of the unsigned-biased compares.
std::vector<std::pair<Value, Value>> InterestingRanges(Xoshiro256* rng) {
  std::vector<std::pair<Value, Value>> ranges = {
      {0, ~Value{0}},                 // full
      {0, 0},                         // single value at domain min
      {~Value{0}, ~Value{0}},         // single value at domain max
      {1, 0},                         // empty (lo > hi)
      {1ull << 63, ~Value{0}},        // upper half (sign-bit boundary)
      {0, (1ull << 63) - 1},          // lower half
      {(1ull << 63) - 2, (1ull << 63) + 2},  // straddles the sign bit
  };
  for (int i = 0; i < 8; ++i) {
    Value a = rng->Next();
    Value b = rng->Next();
    ranges.emplace_back(std::min(a, b), std::max(a, b));
  }
  return ranges;
}

TEST_F(ScanPipelineTest, KernelDifferentialRandomBlocks) {
  Xoshiro256 rng(17);
  // Sizes around the 4-lane vector width to exercise the scalar tail.
  for (size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 7ul, 64ul, 1000ul, 4097ul}) {
    std::vector<uint64_t> data(n);
    for (auto& v : data) v = rng.Next();
    // Mix in boundary values so compares hit them.
    if (n > 4) {
      data[0] = 0;
      data[1] = ~uint64_t{0};
      data[2] = 1ull << 63;
      data[3] = (1ull << 63) - 1;
    }
    for (auto [lo, hi] : InterestingRanges(&rng)) {
      EXPECT_EQ(simd::ScanSum(data.data(), n, lo, hi),
                simd::ScanSumScalar(data.data(), n, lo, hi))
          << "n=" << n << " lo=" << lo << " hi=" << hi;
      EXPECT_EQ(simd::ScanCount(data.data(), n, lo, hi),
                simd::ScanCountScalar(data.data(), n, lo, hi))
          << "n=" << n << " lo=" << lo << " hi=" << hi;
      uint64_t sum_d = 0;
      uint64_t cnt_d = 0;
      uint64_t sum_s = 0;
      uint64_t cnt_s = 0;
      simd::ScanSumCount(data.data(), n, lo, hi, &sum_d, &cnt_d);
      simd::ScanSumCountScalar(data.data(), n, lo, hi, &sum_s, &cnt_s);
      EXPECT_EQ(sum_d, sum_s);
      EXPECT_EQ(cnt_d, cnt_s);
      EXPECT_EQ(simd::SumAll(data.data(), n), simd::SumAllScalar(data.data(), n));
      // Collect: byte-identical tid sequences.
      std::vector<uint64_t> out_d(n);
      std::vector<uint64_t> out_s(n);
      uint64_t nd = simd::ScanCollect(data.data(), n, lo, hi, 12345, out_d.data());
      uint64_t ns = simd::ScanCollectScalar(data.data(), n, lo, hi, 12345,
                                            out_s.data());
      ASSERT_EQ(nd, ns);
      out_d.resize(nd);
      out_s.resize(ns);
      EXPECT_EQ(out_d, out_s);
    }
  }
}

TEST_F(ScanPipelineTest, StatsKernelDifferentialRandomBlocks) {
  Xoshiro256 rng(19);
  for (size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 7ul, 64ul, 1000ul, 4097ul}) {
    std::vector<uint64_t> data(n);
    for (auto& v : data) v = rng.Next();
    if (n > 4) {
      data[0] = 0;
      data[1] = ~uint64_t{0};
      data[2] = 1ull << 63;
      data[3] = (1ull << 63) - 1;
    }
    for (auto [lo, hi] : InterestingRanges(&rng)) {
      // Reference: a plain loop, independent of both kernels.
      simd::ScanStatsResult want;
      for (uint64_t v : data) {
        if (v < lo || v > hi) continue;
        ++want.count;
        want.sum += v;
        want.min = std::min(want.min, v);
        want.max = std::max(want.max, v);
      }
      for (const simd::ScanStatsResult& got :
           {simd::ScanStats(data.data(), n, lo, hi),
            simd::ScanStatsScalar(data.data(), n, lo, hi)}) {
        EXPECT_EQ(got.count, want.count) << "n=" << n << " lo=" << lo;
        EXPECT_EQ(got.sum, want.sum) << "n=" << n << " lo=" << lo;
        EXPECT_EQ(got.min, want.min) << "n=" << n << " lo=" << lo;
        EXPECT_EQ(got.max, want.max) << "n=" << n << " lo=" << lo;
      }
    }
  }
}

TEST_F(ScanPipelineTest, ColumnDifferentialAcrossSegments) {
  // Column-level scans vs a scalar reference loop, over sizes that cover
  // segment boundaries and a partial tail segment.
  const uint64_t cap = ColumnStore::kSegmentCapacity;
  Xoshiro256 rng(23);
  for (uint64_t n : {cap - 1, cap, cap + 1, 2 * cap + 17}) {
    ColumnStore col(&mm_);
    std::vector<Value> ref;
    ref.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Value v = rng.Next();
      ref.push_back(v);
      col.Append(v);
    }
    for (auto [lo, hi] : InterestingRanges(&rng)) {
      uint64_t want_sum = 0;
      uint64_t want_cnt = 0;
      std::vector<TupleId> want_tids;
      for (uint64_t i = 0; i < n; ++i) {
        if (ref[i] >= lo && ref[i] <= hi) {
          want_sum += ref[i];
          ++want_cnt;
          want_tids.push_back(i);
        }
      }
      EXPECT_EQ(col.ScanSum(lo, hi), want_sum);
      EXPECT_EQ(col.ScanCount(lo, hi), want_cnt);
      std::vector<TupleId> got_tids;
      EXPECT_EQ(col.ScanCollect(lo, hi, &got_tids), want_cnt);
      EXPECT_EQ(got_tids, want_tids);
      // Prefix variant at an unaligned limit.
      uint64_t limit = n / 3 + 1;
      uint64_t psum = 0;
      uint64_t pcnt = 0;
      col.ScanSumCountPrefix(lo, hi, limit, &psum, &pcnt);
      uint64_t want_psum = 0;
      uint64_t want_pcnt = 0;
      for (uint64_t i = 0; i < limit; ++i) {
        if (ref[i] >= lo && ref[i] <= hi) {
          want_psum += ref[i];
          ++want_pcnt;
        }
      }
      EXPECT_EQ(psum, want_psum);
      EXPECT_EQ(pcnt, want_pcnt);
    }
  }
}

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

ZoneMap ExactZone(const ColumnStore& col, size_t s) {
  ZoneMap z;
  for (Value v : col.Segment(s)) {
    z.min = std::min(z.min, v);
    z.max = std::max(z.max, v);
  }
  return z;
}

void ExpectZonesExact(const ColumnStore& col) {
  for (size_t s = 0; s < col.num_segments(); ++s) {
    ZoneMap want = ExactZone(col, s);
    EXPECT_EQ(col.zone(s).min, want.min) << "segment " << s;
    EXPECT_EQ(col.zone(s).max, want.max) << "segment " << s;
  }
}

TEST_F(ScanPipelineTest, ZoneMapsTrackAppendAndBatch) {
  ColumnStore a(&mm_);
  ColumnStore b(&mm_);
  Xoshiro256 rng(5);
  std::vector<Value> values(ColumnStore::kSegmentCapacity * 2 + 999);
  for (auto& v : values) v = rng.Next();
  for (Value v : values) a.Append(v);
  b.AppendBatch(values);
  ExpectZonesExact(a);
  ExpectZonesExact(b);
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (size_t s = 0; s < a.num_segments(); ++s) {
    EXPECT_EQ(a.zone(s).min, b.zone(s).min);
    EXPECT_EQ(a.zone(s).max, b.zone(s).max);
  }
}

TEST_F(ScanPipelineTest, SetWidensZoneConservatively) {
  ColumnStore col(&mm_);
  for (Value v = 100; v < 200; ++v) col.Append(v);
  EXPECT_EQ(col.zone(0).min, 100u);
  EXPECT_EQ(col.zone(0).max, 199u);
  col.Set(0, 5);
  col.Set(1, 1000);
  EXPECT_EQ(col.zone(0).min, 5u);
  EXPECT_EQ(col.zone(0).max, 1000u);
  // Overwriting the extreme back does not shrink the zone (conservative),
  // but scans stay correct.
  col.Set(1, 150);
  EXPECT_EQ(col.zone(0).max, 1000u);
  EXPECT_EQ(col.ScanCount(0, ~Value{0}), 100u);
  EXPECT_EQ(col.ScanCount(500, 2000), 0u);  // zone says maybe; scan says no
}

TEST_F(ScanPipelineTest, ZoneSkipProducesCorrectResultsOnClusteredData) {
  ColumnStore col(&mm_);
  const uint64_t n = ColumnStore::kSegmentCapacity * 3 + 100;
  for (uint64_t i = 0; i < n; ++i) col.Append(i);  // strictly ascending
  // A range inside segment 1 only: segments 0, 2, 3 are zone-skipped.
  const Value lo = ColumnStore::kSegmentCapacity + 10;
  const Value hi = ColumnStore::kSegmentCapacity + 19;
  EXPECT_EQ(col.ScanCount(lo, hi), 10u);
  EXPECT_EQ(col.ScanSum(lo, hi), (lo + hi) * 10 / 2);
  std::vector<TupleId> tids;
  EXPECT_EQ(col.ScanCollect(lo, hi, &tids), 10u);
  for (TupleId t : tids) EXPECT_EQ(col.Get(t), t);
  // Range below every zone.
  EXPECT_EQ(col.ScanCount(~Value{0} - 5, ~Value{0}), 0u);
}

TEST_F(ScanPipelineTest, ZoneMapsSurviveSplitTailAligned) {
  ColumnStore col(&mm_);
  const uint64_t cap = ColumnStore::kSegmentCapacity;
  Xoshiro256 rng(11);
  for (uint64_t i = 0; i < cap * 3; ++i) col.Append(rng.Next());
  ColumnStore tail = col.SplitTail(cap);
  ASSERT_EQ(col.num_segments(), 1u);
  ASSERT_EQ(tail.num_segments(), 2u);
  ExpectZonesExact(col);
  ExpectZonesExact(tail);
}

TEST_F(ScanPipelineTest, ZoneMapsRebuiltOnSplitTailUnaligned) {
  ColumnStore col(&mm_);
  const uint64_t cap = ColumnStore::kSegmentCapacity;
  // Descending values: the truncated boundary segment's exact zone differs
  // from the pre-split one, so this catches a stale zone.
  const uint64_t n = cap + 500;
  for (uint64_t i = 0; i < n; ++i) col.Append(n - i);
  ColumnStore tail = col.SplitTail(cap / 2);
  ASSERT_EQ(col.size(), cap / 2);
  ASSERT_EQ(tail.size(), n - cap / 2);
  ExpectZonesExact(col);
  ExpectZonesExact(tail);
  // The kept segment's zone must have shrunk to the kept values.
  EXPECT_EQ(col.zone(0).min, n - cap / 2 + 1);
  EXPECT_EQ(col.zone(0).max, n);
}

TEST_F(ScanPipelineTest, ZoneMapsSurviveAbsorbRelinkAndCopy) {
  const uint64_t cap = ColumnStore::kSegmentCapacity;
  Xoshiro256 rng(13);
  {
    // Relink path: aligned receiver, same memory manager.
    ColumnStore a(&mm_);
    ColumnStore b(&mm_);
    for (uint64_t i = 0; i < cap; ++i) a.Append(rng.Next());
    for (uint64_t i = 0; i < cap + 77; ++i) b.Append(rng.Next());
    a.Absorb(std::move(b));
    ASSERT_EQ(a.num_segments(), 3u);
    ExpectZonesExact(a);
  }
  {
    // Copy path: unaligned receiver.
    ColumnStore a(&mm_);
    ColumnStore b(&mm_);
    a.Append(42);
    for (uint64_t i = 0; i < cap + 10; ++i) b.Append(rng.Next());
    a.Absorb(std::move(b));
    ASSERT_EQ(a.size(), cap + 11);
    ExpectZonesExact(a);
  }
}

TEST_F(ScanPipelineTest, ScanCollectAppendsAfterExistingContent) {
  ColumnStore col(&mm_);
  for (Value v = 0; v < 100; ++v) col.Append(v % 10);
  std::vector<TupleId> out = {777};  // pre-existing content must survive
  EXPECT_EQ(col.ScanCollect(3, 3, &out), 10u);
  ASSERT_EQ(out.size(), 11u);
  EXPECT_EQ(out[0], 777u);
  for (size_t i = 1; i < out.size(); ++i) EXPECT_EQ(col.Get(out[i]), 3u);
}

// ---------------------------------------------------------------------------
// MVCC visible-prefix fast path
// ---------------------------------------------------------------------------

TEST_F(ScanPipelineTest, MvccPrefixScanMatchesSlowReference) {
  MvccColumn col(&mm_);
  Xoshiro256 rng(31);
  const uint64_t n = ColumnStore::kSegmentCapacity + 333;
  std::vector<uint64_t> commit_ts(n);
  for (uint64_t i = 0; i < n; ++i) {
    commit_ts[i] = i + 1;
    col.Append(rng.Next(), commit_ts[i]);
  }
  // Snapshots in the middle: visible prefix < column size, no undo chains.
  for (uint64_t snap : {uint64_t{1}, n / 2, n}) {
    uint64_t visible = col.VisibleSize(snap);
    EXPECT_EQ(visible, snap);
    const Value lo = 1ull << 62;
    const Value hi = ~Value{0} - 3;
    uint64_t want_sum = 0;
    uint64_t want_rows = 0;
    for (TupleId tid = 0; tid < visible; ++tid) {
      Value v = col.Read(tid, snap);
      if (v >= lo && v <= hi) {
        want_sum += v;
        ++want_rows;
      }
    }
    uint64_t sum = 0;
    uint64_t rows = 0;
    col.ScanSumCount(snap, lo, hi, &sum, &rows);
    EXPECT_EQ(sum, want_sum);
    EXPECT_EQ(rows, want_rows);
    EXPECT_EQ(col.ScanSum(snap, lo, hi), want_sum);
  }
  // With undo chains the versioned path must still agree.
  uint64_t ts = n + 1;
  col.Update(0, 123, ts);
  col.Update(5, 456, ts + 1);
  uint64_t snap = n;  // before the updates
  uint64_t sum = 0;
  uint64_t rows = 0;
  col.ScanSumCount(snap, 0, ~Value{0}, &sum, &rows);
  uint64_t want_sum = 0;
  for (TupleId tid = 0; tid < n; ++tid) want_sum += col.Read(tid, snap);
  EXPECT_EQ(sum, want_sum);
  EXPECT_EQ(rows, n);
}

// ---------------------------------------------------------------------------
// Engine: every output kind of kScanColumn in one shared pass
// ---------------------------------------------------------------------------

/// Sums, stats, materialized values and join matches of one filter over
/// `values`, computed sequentially. The index holds key k -> 2k for every
/// multiple of 3.
struct ScanOracle {
  uint64_t rows = 0;
  uint64_t sum = 0;
  Value min = ~Value{0};
  Value max = 0;
  std::vector<Value> matches;  // sorted
  uint64_t join_matches = 0;
  uint64_t join_sum = 0;

  ScanOracle(const std::vector<Value>& values, Value lo, Value hi) {
    for (Value v : values) {
      if (v < lo || v > hi) continue;
      ++rows;
      sum += v;
      min = std::min(min, v);
      max = std::max(max, v);
      matches.push_back(v);
      if (v % 3 == 0) {
        ++join_matches;
        join_sum += 2 * v;
      }
    }
    std::sort(matches.begin(), matches.end());
  }
};

class MixedScanTest : public ::testing::Test {
 protected:
  static constexpr Key kDomain = 1u << 18;

  MixedScanTest() : engine_(Options()) {
    col_ = engine_.CreateColumn("col");
    idx_ = engine_.CreateIndex("idx", kDomain,
                               {.prefix_bits = 9, .key_bits = 18});
    engine_.Start();
    session_ = engine_.CreateSession();
    std::vector<routing::KeyValue> kvs;
    for (Key k = 0; k < kDomain; k += 3) kvs.push_back({k, 2 * k});
    session_->Insert(idx_, kvs);
  }
  ~MixedScanTest() override { engine_.Stop(); }

  static core::EngineOptions Options() {
    core::EngineOptions opts;
    opts.topology = numa::Topology::Flat(2, 2);
    // Simulated: nothing runs until the wait pumps, so all four commands
    // land in one drain per AEU.
    opts.mode = core::ExecutionMode::kSimulated;
    return opts;
  }

  uint64_t Coalesced() {
    uint64_t n = 0;
    for (routing::AeuId a = 0; a < engine_.num_aeus(); ++a) {
      n += engine_.aeu(a).loop_stats().scans_coalesced;
    }
    return n;
  }

  /// Every value the column's partitions physically hold (newest versions).
  std::vector<Value> RawValues(ObjectId object) {
    std::vector<Value> out;
    for (routing::AeuId a = 0; a < engine_.num_aeus(); ++a) {
      engine_.aeu(a).partition(object)->mvcc_column()->column().ForEach(
          [&](TupleId, Value v) { out.push_back(v); });
    }
    return out;
  }

  /// Sends a sum, a stats, an append-emit and a lookup-emit scan of [lo,
  /// hi] at `snapshot` back to back, waits for every routed follow-up, and
  /// compares each output with the oracle over `values`.
  void ExpectMixedDrainMatches(const std::vector<Value>& values, Value lo,
                               Value hi, uint64_t snapshot,
                               const std::string& dest_name) {
    SCOPED_TRACE(dest_name);
    ScanOracle want(values, lo, hi);
    ObjectId dest = engine_.CreateColumn(dest_name);
    routing::AggregateSink sum_sink, stats_sink, append_sink, probe_sink;
    routing::AggregateSink appended, looked_up;
    routing::ScanParams p;
    p.lo = lo;
    p.hi = hi;
    p.snapshot_ts = snapshot;
    routing::Endpoint& ep = session_->endpoint();
    const uint64_t coalesced_before = Coalesced();
    uint64_t owners = ep.SendScanColumn(col_, p, &sum_sink);
    p.output = routing::ScanOutput::kStats;
    ep.SendScanColumn(col_, p, &stats_sink);
    p.output = routing::ScanOutput::kAppendTo;
    p.target_object = dest;
    p.target_sink = &appended;
    ep.SendScanColumn(col_, p, &append_sink);
    p.output = routing::ScanOutput::kLookupIn;
    p.target_object = idx_;
    p.target_sink = &looked_up;
    ep.SendScanColumn(col_, p, &probe_sink);
    ep.FlushAll();
    engine_.DriveUntil([&] {
      return sum_sink.completed() >= owners &&
             stats_sink.completed() >= owners &&
             append_sink.completed() >= owners &&
             probe_sink.completed() >= owners &&
             appended.completed() >= append_sink.routed() &&
             looked_up.completed() >= probe_sink.routed();
    });
    EXPECT_EQ(Coalesced() - coalesced_before, 3 * owners);

    EXPECT_EQ(sum_sink.hits(), want.rows);
    EXPECT_EQ(sum_sink.sum(), want.sum);
    EXPECT_EQ(stats_sink.hits(), want.rows);
    EXPECT_EQ(stats_sink.sum(), want.sum);
    EXPECT_EQ(stats_sink.min(), want.min);
    EXPECT_EQ(stats_sink.max(), want.max);
    EXPECT_EQ(append_sink.hits(), want.rows);
    EXPECT_EQ(appended.dropped_total(), 0u);
    std::vector<Value> got = RawValues(dest);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want.matches);
    EXPECT_EQ(probe_sink.hits(), want.rows);
    EXPECT_EQ(probe_sink.routed(), want.rows);
    EXPECT_EQ(looked_up.hits(), want.join_matches);
    EXPECT_EQ(looked_up.sum(), want.join_sum);
  }

  core::Engine engine_;
  ObjectId col_ = 0;
  ObjectId idx_ = 0;
  std::unique_ptr<core::Engine::Session> session_;
};

TEST_F(MixedScanTest, ClusteredColumnWithZonePrunedSegments) {
  // Ascending values: each partition's segments cover disjoint value
  // windows, so a narrow filter excludes most of them.
  const uint64_t n = 4 * 3 * ColumnStore::kSegmentCapacity;
  std::vector<Value> values(n);
  for (uint64_t i = 0; i < n; ++i) values[i] = i / 4;
  session_->Append(col_, values);
  uint64_t skipped_before = 0;
  for (routing::AeuId a = 0; a < engine_.num_aeus(); ++a) {
    skipped_before += engine_.aeu(a).loop_stats().zone_segments_skipped;
  }
  ExpectMixedDrainMatches(values, 70000, 90000, engine_.oracle().ReadTs(),
                          "clustered_out");
  uint64_t skipped = 0;
  for (routing::AeuId a = 0; a < engine_.num_aeus(); ++a) {
    skipped += engine_.aeu(a).loop_stats().zone_segments_skipped;
  }
  EXPECT_GT(skipped, skipped_before);
  // A filter covering every value takes the covered-segment paths.
  ExpectMixedDrainMatches(values, 0, kDomain, engine_.oracle().ReadTs(),
                          "clustered_all");
}

TEST_F(MixedScanTest, UniformColumn) {
  Xoshiro256 rng(41);
  std::vector<Value> values(300000);
  for (Value& v : values) v = rng.NextBounded(kDomain);
  session_->Append(col_, values);
  ExpectMixedDrainMatches(values, kDomain / 4, kDomain / 4 + kDomain / 10,
                          engine_.oracle().ReadTs(), "uniform_out");
}

TEST_F(MixedScanTest, VersionedColumnTakesTheMvccFallback) {
  Xoshiro256 rng(43);
  std::vector<Value> values(200000);
  for (Value& v : values) v = rng.NextBounded(kDomain);
  session_->Append(col_, values);
  const uint64_t before = engine_.oracle().ReadTs();
  // Keep the old versions alive for the snapshot scan below.
  core::SnapshotTracker::Pin pin(&engine_.snapshots(), before);
  for (routing::AeuId a = 0; a < engine_.num_aeus(); ++a) {
    MvccColumn* column = engine_.aeu(a).partition(col_)->mvcc_column();
    for (TupleId tid = 0; tid < column->size(); tid += 7) {
      column->Update(tid, (column->Read(tid, before) + 12345) % kDomain,
                     engine_.oracle().NextWriteTs());
    }
    ASSERT_GT(column->undo_chains(), 0u);
  }
  const Value lo = kDomain / 3;
  const Value hi = kDomain / 3 + kDomain / 8;
  // The old snapshot reads the appended values through the undo chains;
  // the newest one reads the updated values in place.
  ExpectMixedDrainMatches(values, lo, hi, before, "versioned_old");
  ExpectMixedDrainMatches(RawValues(col_), lo, hi, engine_.oracle().ReadTs(),
                          "versioned_new");
}

}  // namespace
}  // namespace eris::storage
