#include <algorithm>
#include <filesystem>

#include "common/logging.h"
#include "durability/wal.h"
#include "harness.h"
#include "numa/memory_manager.h"
#include "storage/column_store.h"
#include "storage/mvcc.h"
#include "storage/prefix_tree.h"

namespace perfbench {

using namespace eris;

namespace {

constexpr size_t kBatch = 64;
/// Passes per replay; each reports the median pass.
constexpr int kPasses = 5;

storage::PrefixTree LoadTree(numa::NodeMemoryManager* memory,
                             uint64_t range_hi, uint32_t key_bits) {
  storage::PrefixTree tree(memory, {.prefix_bits = 8, .key_bits = key_bits});
  for (storage::Key k = 0; k < range_hi; ++k) tree.Insert(k, k);
  return tree;
}

}  // namespace

double ReplayBatchLookupNsPerKey(uint64_t range_hi, uint32_t key_bits,
                                 const std::vector<uint64_t>& keys) {
  if (keys.size() < kBatch) return 0;
  numa::NodeMemoryManager memory(0);
  storage::PrefixTree tree = LoadTree(&memory, range_hi, key_bits);
  std::vector<storage::Value> out(kBatch);
  bool found[kBatch];
  const size_t batches = keys.size() / kBatch;
  std::vector<double> pass_ns;
  uint64_t hits = 0;
  for (int p = 0; p < kPasses; ++p) {
    uint64_t t0 = NowNs();
    for (size_t b = 0; b < batches; ++b) {
      hits += tree.BatchLookup(
          std::span<const storage::Key>(keys.data() + b * kBatch, kBatch),
          out.data(), found);
    }
    pass_ns.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(batches * kBatch));
  }
  ERIS_CHECK_EQ(hits, uint64_t{kPasses} * batches * kBatch)
      << "replayed lookups missed keys";
  return Median(std::move(pass_ns));
}

double ReplayUpsertNsPerKey(uint64_t range_hi, uint32_t key_bits,
                            const std::vector<uint64_t>& keys) {
  if (keys.empty()) return 0;
  numa::NodeMemoryManager memory(0);
  storage::PrefixTree tree = LoadTree(&memory, range_hi, key_bits);
  std::vector<double> pass_ns;
  for (int p = 0; p < kPasses; ++p) {
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < keys.size(); ++i) tree.Upsert(keys[i], i + p);
    pass_ns.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(keys.size()));
  }
  return Median(std::move(pass_ns));
}

double ReplayColumnScanGbps(
    const std::vector<uint64_t>& values,
    const std::vector<std::pair<uint64_t, uint64_t>>& filters) {
  if (values.empty() || filters.empty()) return 0;
  numa::NodeMemoryManager memory(0);
  storage::ColumnStore column(&memory);
  column.AppendBatch(values);
  std::vector<double> pass_gbps;
  std::vector<uint64_t> sums(filters.size());
  for (int p = 0; p < kPasses; ++p) {
    uint64_t t0 = NowNs();
    for (size_t f = 0; f < filters.size(); ++f) {
      uint64_t sum = column.ScanSum(filters[f].first, filters[f].second);
      if (p == 0) sums[f] = sum;
      ERIS_CHECK_EQ(sum, sums[f]) << "replayed scan is not repeatable";
    }
    double ns = static_cast<double>(NowNs() - t0);
    double bytes = static_cast<double>(values.size() * sizeof(uint64_t) *
                                       filters.size());
    pass_gbps.push_back(bytes / ns);
  }
  return Median(std::move(pass_gbps));
}

double ReplaySnapshotScanNsPerRow(
    const std::vector<uint64_t>& values,
    const std::vector<std::pair<uint64_t, uint64_t>>& filters) {
  if (values.empty() || filters.empty()) return 0;
  numa::NodeMemoryManager memory(0);
  storage::MvccColumn column(&memory);
  for (uint64_t v : values) column.Append(v, 1);
  const uint64_t visible = column.VisibleSize(1);
  std::vector<double> pass_ns;
  std::vector<uint64_t> digests(filters.size());
  for (int p = 0; p < kPasses; ++p) {
    uint64_t t0 = NowNs();
    for (size_t f = 0; f < filters.size(); ++f) {
      const auto [lo, hi] = filters[f];
      // Same per-tuple loop as Aeu::ProcessScanStatsGroup.
      uint64_t rows = 0;
      uint64_t sum = 0;
      storage::Value min = ~storage::Value{0};
      storage::Value max = 0;
      column.ScanSnapshot(1, [&](storage::TupleId tid, storage::Value v) {
        if (tid >= visible) return;
        if (v < lo || v > hi) return;
        ++rows;
        sum += v;
        min = std::min(min, v);
        max = std::max(max, v);
      });
      uint64_t digest = rows ^ (sum << 1) ^ (min << 2) ^ (max << 3);
      if (p == 0) digests[f] = digest;
      ERIS_CHECK_EQ(digest, digests[f]) << "replayed scan is not repeatable";
    }
    pass_ns.push_back(static_cast<double>(NowNs() - t0) /
                      static_cast<double>(visible * filters.size()));
  }
  return Median(std::move(pass_ns));
}

double ReplayWalCommitUs(const std::string& dir, uint32_t records,
                         size_t record_bytes) {
  constexpr int kGroups = 200;
  if (records == 0 || record_bytes == 0) return 0;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  durability::DurabilityOptions opts;
  opts.enabled = true;
  opts.dir = dir;
  durability::WalWriter wal;
  if (!wal.Open(dir + "/replay.log", opts, 1, 0).ok()) return 0;
  std::vector<uint8_t> body(record_bytes, 0x5a);
  LatencyLog lat;
  for (int g = 0; g < kGroups; ++g) {
    uint64_t t0 = NowNs();
    for (uint32_t r = 0; r < records; ++r) {
      if (!wal.Append(body).ok()) return 0;
    }
    if (!wal.Commit().ok()) return 0;
    lat.Add(NowNs() - t0);
  }
  return lat.PercentileNs(0.5) / 1e3;
}

}  // namespace perfbench
