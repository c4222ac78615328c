// Data commands: the unit of work routed between AEUs.
//
// A data command consists of a storage operation type, a data object
// identifier, a reference to a result sink (callback), and a data segment
// with the operation's parameters (a batch of keys for lookups, key/value
// pairs for upserts, filter bounds for scans). Commands are encoded as
// variable-length records, moved through the routing layer's buffers as raw
// bytes, and decoded by the receiving AEU.
//
// Record layout: CommandHeader followed by `payload_bytes` of payload.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bit_util.h"
#include "common/logging.h"
#include "storage/types.h"

namespace eris::routing {

/// AEU identifier (dense, 0..num_aeus-1).
using AeuId = uint32_t;
inline constexpr AeuId kInvalidAeu = ~AeuId{0};

enum class CommandType : uint8_t {
  kLookupBatch = 0,   ///< payload: Key[]
  kInsertBatch,       ///< payload: KeyValue[]
  kUpsertBatch,       ///< payload: KeyValue[]
  kEraseBatch,        ///< payload: Key[]
  kAppendBatch,       ///< payload: Value[] (column append)
  /// The one column-scan command (multicast), payload ScanParams. Its
  /// output kind selects sum, stats, or routing the matches onward as
  /// appends or lookups; the query layer's aggregate, materialization and
  /// index join all ride on it (DESIGN.md §9).
  kScanColumn,
  kScanIndexRange,    ///< payload: IndexScanParams (range partitions)
  kBalanceRange,      ///< payload: BalanceRangeParams (+ transfer list)
  kBalancePhysical,   ///< payload: BalancePhysicalParams
  kTransferRequest,   ///< payload: TransferRequestParams
  kInstallPartition,  ///< payload: InstallParams + serialized partition
  kFence,             ///< barrier: acknowledge via sink
  // Fused query pipelines and the MPSM sort-merge join (DESIGN.md §13):
  kPipeline,          ///< payload: PipelineParams (multicast, fused operators)
  kJoinScatter,       ///< payload: MergeJoinParams (multicast to S owners)
  kJoinStage,         ///< payload: JoinStageParams + KeyValue[] (run exchange)
  kJoinMerge,         ///< payload: MergeJoinParams (multicast to R owners)
  // WAL-only effect records (never routed; see src/durability/wal.h):
  // rebalancing side effects an AEU applies to its own partition are logged
  // with these types so per-AEU replay reproduces transfers without any
  // cross-AEU coordination. Their values are persisted in WAL files, so
  // they stay fixed when routed command types come and go.
  kWalExtractRange = 19,  ///< payload: KeyRange extracted out of the partition
  kWalSplitTail,      ///< payload: u64 trailing tuples split off (column)
  kWalSetRange,       ///< payload: KeyRange newly declared for the partition
};

static_assert(CommandType::kJoinMerge < CommandType::kWalExtractRange,
              "routed command types must not reach the persisted WAL types");

const char* CommandTypeName(CommandType t);

/// Why a command was dropped instead of processed (overload control).
enum class DropReason : uint8_t {
  kRetryExhausted = 0,  ///< bounded delivery retry gave up (buffer full)
  kTargetStalled,       ///< target AEU quarantined by the watchdog
  kExpired,             ///< deadline passed before dequeue
  kQuarantined,         ///< poison command moved to the dead-letter log
  kWalSealed,           ///< target AEU's WAL sealed fail-stop (storage fault)
  kAllocFailed,         ///< arena/pool allocation failed (memory pressure)
};
inline constexpr size_t kNumDropReasons = 6;

const char* DropReasonName(DropReason r);

struct KeyValue {
  storage::Key key;
  storage::Value value;
};

class ResultSink;

/// What a column scan produces from its matching rows.
enum class ScanOutput : uint32_t {
  kSum = 0,   ///< rows and sum via OnScanPartial
  kStats,     ///< rows, sum, min and max via OnScanStats
  kAppendTo,  ///< matches routed as appends into `target_object`
  kLookupIn,  ///< matches routed as lookup keys into `target_object`
};

/// Filter, snapshot and output of a column scan. The emitting outputs
/// (kAppendTo, kLookupIn) route each segment's matches onward with
/// `target_sink` (in-process pointer, like the header's callback
/// reference) as the follow-up commands' sink, and report rows and sum via
/// OnScanPartial plus the routed completion units via OnScanRouted, so a
/// caller can wait for exactly those units at `target_sink`.
struct ScanParams {
  storage::Value lo = 0;
  storage::Value hi = ~storage::Value{0};
  uint64_t snapshot_ts = ~uint64_t{0};
  ScanOutput output = ScanOutput::kSum;
  uint32_t target_object = 0;
  ResultSink* target_sink = nullptr;
};

/// Payload of kScanIndexRange: key interval plus value filter/snapshot.
struct IndexScanParams {
  storage::Key key_lo = 0;
  storage::Key key_hi = ~storage::Key{0};  // exclusive
  ScanParams scan;
};

/// Sentinel for an unused pipeline column slot.
inline constexpr uint32_t kNoPipelineColumn = ~uint32_t{0};

/// Pipeline flag bits.
inline constexpr uint32_t kPipelineFused = 1u << 0;

/// Payload of kPipeline: a fused filter → [filter] → aggregate plan over a
/// co-partitioned column group (row i of every member column lives at the
/// same position of the same AEU's partition). The command is multicast; the
/// owning AEU executes the whole pipeline segment-at-a-time, carrying
/// selection vectors between operators, and reports (rows, sum) per
/// partition via OnScanPartial. Without kPipelineFused the AEU runs the
/// naive operator-at-a-time baseline: one full pass per operator with a
/// materialized intermediate index vector and no zone-map pruning (the
/// ablation bench_ext_join measures fusion against).
struct PipelineParams {
  uint64_t snapshot_ts = ~uint64_t{0};
  uint32_t filter_object = 0;                    ///< driving filter column
  uint32_t filter2_object = kNoPipelineColumn;   ///< optional second filter
  storage::Value lo = 0;
  storage::Value hi = ~storage::Value{0};
  storage::Value lo2 = 0;
  storage::Value hi2 = ~storage::Value{0};
  uint32_t agg_object = 0;                       ///< aggregated column
  uint32_t flags = kPipelineFused;
};

/// Payload of kJoinScatter / kJoinMerge: one MPSM sort-merge join round
/// between two range-partitioned keyed objects R and S (DESIGN.md §13).
/// Scatter is multicast to the owners of S: each sorts its local S run in
/// place and exchanges only the key ranges that straddle R's partition
/// boundaries (kJoinStage). Merge is multicast to the owners of R: each
/// merges its staged S run against its local sorted R run and reports
/// (matches, key_sum) to `result_sink` (in-process pointer, like the
/// header's callback reference).
/// Join execution strategy carried in MergeJoinParams.
enum class JoinStrategy : uint32_t {
  kMpsm = 0,        ///< sort-merge with boundary-range exchange
  kSharedHash = 1,  ///< scatter every R key as a lookup into hashed S
};

struct MergeJoinParams {
  uint64_t join_id = 0;
  uint32_t r_object = 0;
  uint32_t s_object = 0;
  JoinStrategy strategy = JoinStrategy::kMpsm;
  uint32_t pad = 0;
  ResultSink* result_sink = nullptr;
};

/// Prefix of the kJoinStage payload; the staged (key, value) run follows.
/// header.object carries r_object so rebalancing forwards staged entries
/// like any keyed batch.
struct JoinStageParams {
  uint64_t join_id = 0;
  ResultSink* result_sink = nullptr;
};

/// \brief Receives the results of data commands issued by one query.
///
/// Implementations must be thread-safe: every AEU owning an involved
/// partition calls into the sink. The routing layer guarantees exactly one
/// OnCommandComplete per delivered command.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Lookup batch processed: parallel arrays of the probed keys, result
  /// values, and hit flags.
  virtual void OnLookupBatch(std::span<const storage::Key> keys,
                             std::span<const storage::Value> values,
                             std::span<const bool> found) {
    (void)keys;
    (void)values;
    (void)found;
  }

  /// Scan over one partition finished with `rows` matching rows summing to
  /// `sum`.
  virtual void OnScanPartial(uint64_t rows, uint64_t sum) {
    (void)rows;
    (void)sum;
  }

  /// Write batch processed; `applied` entries took effect.
  virtual void OnWriteBatch(uint64_t applied) { (void)applied; }

  /// Full aggregates of a ScanOutput::kStats scan over one partition.
  virtual void OnScanStats(uint64_t rows, uint64_t sum, storage::Value min,
                           storage::Value max) {
    (void)rows;
    (void)sum;
    (void)min;
    (void)max;
  }

  /// An emitting scan over one partition routed follow-up commands worth
  /// `units` completion units to its ScanParams::target_sink. Delivered
  /// before the scan's own OnCommandComplete.
  virtual void OnScanRouted(uint64_t units) { (void)units; }

  /// Completion units: keyed batches complete per element (so forwarding a
  /// command during rebalancing preserves the total), scans and appends per
  /// command. The units delivered for a query sum to the value the Send*
  /// call returned.
  virtual void OnCommandComplete(uint64_t units) = 0;

  /// Command dropped by overload control (shed, expired, or quarantined)
  /// instead of processed. The default forwards to OnCommandComplete so the
  /// completion-unit accounting — and every existing Wait(expected) loop —
  /// still terminates; sinks that care about the distinction override this.
  virtual void OnCommandDropped(uint64_t units, DropReason reason) {
    (void)reason;
    OnCommandComplete(units);
  }
};

/// Aggregate sink: counts rows/hits/sums and completion. The standard sink
/// for benchmarks and most queries.
class AggregateSink : public ResultSink {
 public:
  void OnLookupBatch(std::span<const storage::Key>,
                     std::span<const storage::Value> values,
                     std::span<const bool> found) override {
    uint64_t hits = 0;
    uint64_t sum = 0;
    for (size_t i = 0; i < found.size(); ++i) {
      if (found[i]) {
        ++hits;
        sum += values[i];
      }
    }
    hits_.fetch_add(hits, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    probes_.fetch_add(found.size(), std::memory_order_relaxed);
  }
  void OnScanPartial(uint64_t rows, uint64_t sum) override {
    hits_.fetch_add(rows, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
  }
  void OnWriteBatch(uint64_t applied) override {
    hits_.fetch_add(applied, std::memory_order_relaxed);
  }
  void OnScanStats(uint64_t rows, uint64_t sum, storage::Value min,
                   storage::Value max) override {
    hits_.fetch_add(rows, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
    if (rows > 0) {
      // Lock-free min/max merge.
      uint64_t cur = min_.load(std::memory_order_relaxed);
      while (min < cur &&
             !min_.compare_exchange_weak(cur, min, std::memory_order_relaxed)) {
      }
      cur = max_.load(std::memory_order_relaxed);
      while (max > cur &&
             !max_.compare_exchange_weak(cur, max, std::memory_order_relaxed)) {
      }
    }
  }
  void OnScanRouted(uint64_t units) override {
    routed_.fetch_add(units, std::memory_order_relaxed);
  }
  void OnCommandComplete(uint64_t units) override {
    completed_.fetch_add(units, std::memory_order_release);
  }
  void OnCommandDropped(uint64_t units, DropReason reason) override {
    dropped_[static_cast<size_t>(reason)].fetch_add(units,
                                                    std::memory_order_relaxed);
    completed_.fetch_add(units, std::memory_order_release);
  }

  /// Completion units delivered so far (processed + dropped).
  uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  /// Completion units emitting scans routed to their target sink.
  uint64_t routed() const { return routed_.load(std::memory_order_relaxed); }

  /// Units dropped for `reason` (subset of completed()).
  uint64_t dropped(DropReason reason) const {
    return dropped_[static_cast<size_t>(reason)].load(
        std::memory_order_relaxed);
  }
  uint64_t dropped_total() const {
    uint64_t total = 0;
    for (const auto& d : dropped_) total += d.load(std::memory_order_relaxed);
    return total;
  }

  storage::Value min() const { return min_.load(std::memory_order_relaxed); }
  storage::Value max() const { return max_.load(std::memory_order_relaxed); }

  void Reset() {
    completed_ = 0;
    hits_ = 0;
    sum_ = 0;
    probes_ = 0;
    routed_ = 0;
    min_ = ~storage::Value{0};
    max_ = 0;
    for (auto& d : dropped_) d = 0;
  }

 private:
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> routed_{0};
  std::atomic<storage::Value> min_{~storage::Value{0}};
  std::atomic<storage::Value> max_{0};
  std::atomic<uint64_t> dropped_[kNumDropReasons] = {};
};

/// Fixed-size command header preceding the payload in every record.
struct CommandHeader {
  CommandType type = CommandType::kFence;
  uint8_t reserved = 0;
  uint16_t object = 0;
  AeuId source = kInvalidAeu;
  uint32_t payload_bytes = 0;
  uint32_t pad = 0;
  /// Absolute deadline (MonotonicNanos clock); 0 means none. Expired
  /// commands are dropped at dequeue instead of processed.
  uint64_t deadline_ns = 0;
  /// In-process reference to the result sink (the paper's "reference to a
  /// callback function"); null for engine-internal commands.
  ResultSink* sink = nullptr;
};
static_assert(sizeof(CommandHeader) == 32);
static_assert(std::is_trivially_copyable_v<CommandHeader>);

/// Decoded command record: header by value, payload in place.
/// Payloads are always padded to 8 bytes, and buffers are 8-byte aligned,
/// so typed payload views are correctly aligned.
struct CommandView {
  CommandHeader header;
  const uint8_t* payload = nullptr;

  template <typename T>
  std::span<const T> PayloadAs() const {
    static_assert(alignof(T) <= 8);
    ERIS_DCHECK(header.payload_bytes % sizeof(T) == 0);
    return {reinterpret_cast<const T*>(payload),
            header.payload_bytes / sizeof(T)};
  }
  size_t record_bytes() const {
    return sizeof(CommandHeader) + AlignUp(header.payload_bytes, 8);
  }
};

/// Completion units a command is worth: keyed batches count elements,
/// everything else counts one per command. Matches what processing would
/// deliver, so dropping a command can complete the same number of units.
uint64_t CommandUnits(const CommandView& v);

/// Serializes header+payload into `out` (appending), padding to 8 bytes.
/// `out` is any byte container with size()/resize()/data() — std::vector or
/// an arena-backed ArenaVec<uint8_t> on the zero-allocation send paths
/// (resize may leave new bytes uninitialized; every byte is overwritten).
template <typename ByteVec>
void EncodeCommand(CommandHeader header, std::span<const uint8_t> payload,
                   ByteVec* out) {
  header.payload_bytes = static_cast<uint32_t>(payload.size());
  size_t padded = AlignUp(payload.size(), 8);
  size_t pos = out->size();
  ERIS_DCHECK(pos % 8 == 0) << "records must stay 8-byte aligned";
  out->resize(pos + sizeof(CommandHeader) + padded);
  std::memcpy(out->data() + pos, &header, sizeof(CommandHeader));
  if (!payload.empty()) {
    std::memcpy(out->data() + pos + sizeof(CommandHeader), payload.data(),
                payload.size());
  }
  // Zero the pad bytes for determinism.
  if (padded != payload.size()) {
    std::memset(out->data() + pos + sizeof(CommandHeader) + payload.size(), 0,
                padded - payload.size());
  }
}

/// Parses one record at `data` (which must hold a full record).
inline CommandView DecodeCommand(const uint8_t* data) {
  CommandView v;
  std::memcpy(&v.header, data, sizeof(CommandHeader));
  v.payload = data + sizeof(CommandHeader);
  return v;
}

}  // namespace eris::routing
