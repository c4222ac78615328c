// Shared pieces of the wall-clock benchmark: arguments, metric output,
// latency samples, the span recorder of the traced run, and engine counters
// read at quiescent points.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the benchmark's build directory) for the WAL, the
  /// trace file and other run-time files.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics of
/// an untraced run, or the per-layer metrics of a traced one.
struct RunResult {
  std::vector<Metric> metrics;
  /// Informational metrics printed before the result line.
  std::vector<Metric> detail;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Sets (or adds) a metric; metrics print in first-set order.
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
};

/// Request latencies in nanoseconds.
class LatencyLog {
 public:
  void Add(uint64_t ns) { ns_.push_back(ns); }
  size_t size() const { return ns_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double PercentileNs(double q) const;
  /// Median, over `chunks` runs of consecutive samples, of each run's
  /// percentile q: a short stall moves one chunk, not the result.
  double ChunkedPercentileNs(double q, size_t chunks) const;

 private:
  std::vector<uint64_t> ns_;
};

/// Median of `v` (0 when empty); takes a copy so callers keep their order.
double Median(std::vector<double> v);

// --- Tracing -------------------------------------------------------------

/// Layer boundaries the traced run records. Each span is recorded around
/// one public engine call made by the benchmark.
enum class SpanKind : uint32_t {
  kRequest = 0,   ///< one client request, submit to completion
  kSend,          ///< Endpoint::Send* (routing)
  kFlush,         ///< Endpoint::FlushAll (routing)
  kWait,          ///< end of flush to completion (core: AEU loop)
  kRebalance,     ///< Engine::RebalanceObject (balance)
  kAggregate,     ///< QueryRunner::Aggregate (query)
  kPipeline,      ///< PipelineRunner::Run (query)
  kScan,          ///< Session::ScanColumn (core + storage)
};

const char* SpanName(SpanKind kind);

/// \brief In-memory span recorder of the traced run.
///
/// Spans hold name, start, end, parent span and request id; they are kept
/// in a preallocated buffer and written out when the run ends. Recording is
/// off until set_enabled(true) and stops once the buffer is full.
class SpanRecorder {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (kNone when not recording).
  uint32_t Begin(SpanKind kind, uint32_t parent, uint64_t request);
  void End(uint32_t id);

  /// Median self time (duration minus the time its child spans cover) of
  /// every span of `kind`, in nanoseconds; 0 when none was recorded.
  double MedianSelfNs(SpanKind kind) const;

  /// Writes one tab-separated line per span.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    SpanKind kind;
    uint32_t parent;
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  std::vector<Span> spans_;
  bool enabled_ = false;
};

/// RAII span; a no-op when the recorder is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanKind kind, uint32_t parent,
             uint64_t request)
      : rec_(rec),
        id_(rec != nullptr ? rec->Begin(kind, parent, request)
                           : SpanRecorder::kNone) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

// --- Engine counters -------------------------------------------------------

/// Engine counters summed over AEUs / WAL writers / node managers.
struct Counters {
  uint64_t iterations = 0;
  uint64_t commands_processed = 0;
  uint64_t commands_forwarded = 0;
  uint64_t commands_deferred = 0;
  uint64_t lookups_coalesced = 0;
  uint64_t zone_segments_skipped = 0;
  uint64_t link_transfers = 0;
  uint64_t copy_transfers = 0;
  uint64_t bytes_copied = 0;
  uint64_t pipeline_segments_pruned = 0;
  uint64_t pipeline_bytes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_groups = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_stalls = 0;
  eris::numa::MemoryStats mem;
};

/// Reads the counters race-free: stops the engine (joining the AEU threads,
/// after a drain), reads, and starts it again. The caller must have no
/// request outstanding.
Counters ReadCountersQuiescent(eris::core::Engine* engine);

/// Counter deltas `after - before` (memory levels are taken from `after`).
Counters Delta(const Counters& before, const Counters& after);

// --- Engine shape ----------------------------------------------------------

/// The engine every workload runs: Flat(2, 2) topology, 3 AEUs (two on
/// node 0, one on node 1), threads unpinned, no background balancer,
/// watchdog or scrubber. A non-empty `wal_dir` enables the group-commit WAL.
eris::core::EngineOptions BenchEngineOptions(const std::string& wal_dir);
std::string EngineShape();

/// Name of the filesystem holding `path` (statfs magic), e.g. "ext4".
std::string FilesystemType(const std::string& path);

uint64_t NowNs();

// --- Storage replays (traced run only) ------------------------------------
// Each replays a workload's own inputs against one partition-sized
// structure outside the engine, so a storage-layer change shows without
// routing or AEU-loop time around it.

/// PrefixTree::BatchLookup over 64-key batches of `keys` (all < range_hi)
/// on a tree holding [0, range_hi); ns per key.
double ReplayBatchLookupNsPerKey(uint64_t range_hi, uint32_t key_bits,
                                 const std::vector<uint64_t>& keys);
/// PrefixTree::Upsert of `keys` (all < range_hi) into a tree holding
/// [0, range_hi); ns per key.
double ReplayUpsertNsPerKey(uint64_t range_hi, uint32_t key_bits,
                            const std::vector<uint64_t>& keys);
/// ColumnStore::ScanSum of `values` under each [lo, hi] filter; GB/s.
double ReplayColumnScanGbps(
    const std::vector<uint64_t>& values,
    const std::vector<std::pair<uint64_t, uint64_t>>& filters);
/// The MVCC snapshot scan of the ScanStats handler (rows/sum/min/max under
/// a [lo, hi] filter) over `values`; ns per row.
double ReplaySnapshotScanNsPerRow(
    const std::vector<uint64_t>& values,
    const std::vector<std::pair<uint64_t, uint64_t>>& filters);
/// WalWriter::Append x `records` of `record_bytes` each + Commit, in a
/// fresh log under `dir`; median microseconds per group (0 on I/O error).
double ReplayWalCommitUs(const std::string& dir, uint32_t records,
                         size_t record_bytes);

// --- Workloads -------------------------------------------------------------

RunResult RunPointRead(const Args& args);
RunResult RunDurableMixed(const Args& args);
RunResult RunAnalytics(const Args& args);
RunResult RunSkewRebalance(const Args& args);

}  // namespace perfbench
