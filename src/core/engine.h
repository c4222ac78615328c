// Engine: the public façade of the ERIS storage engine.
//
// Owns the topology, the per-node memory managers, the routing layer, the
// AEUs, the monitor and the load balancer; exposes data-object creation and
// a Session for issuing storage operations (scan, lookup, insert/upsert)
// from client threads.
//
// Two execution modes share all code: kThreads runs one pinned thread per
// AEU and measures real time; kSimulated pumps the AEU loops cooperatively
// and, with SimOptions.enabled, attributes modeled costs (per Table 2 of
// the paper) to workers, links, and memory controllers so large NUMA
// machines can be reproduced deterministically on any host.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/spinlock.h"
#include "common/status.h"
#include "core/aeu.h"
#include "core/load_balancer.h"
#include "core/monitor.h"
#include "core/options.h"
#include "core/snapshot_tracker.h"
#include "durability/manager.h"
#include "numa/memory_manager.h"
#include "routing/router.h"
#include "sim/cost_model.h"
#include "sim/resource_usage.h"
#include "storage/data_object.h"
#include "storage/mvcc.h"

namespace eris::core {

/// Result of a scan operation.
struct ScanResult {
  uint64_t rows = 0;
  uint64_t sum = 0;
};

/// Typed status of the units `sink` saw dropped (OK when none were): the
/// Submit* mapping of DropReason to Status, shared by the query layer.
Status DropStatus(const routing::AggregateSink& sink);

/// \brief Token-based admission control over in-flight completion units.
///
/// The fast path is a relaxed CAS loop on one counter; a submit that would
/// exceed the budget is rejected with a typed Status instead of queueing
/// onto already-full buffers. Budget 0 disables admission (every acquire
/// succeeds without touching the counter).
class AdmissionController {
 public:
  explicit AdmissionController(uint64_t budget) : budget_(budget) {}

  bool TryAcquire(uint64_t units) {
    if (budget_ == 0) return true;
    uint64_t cur = inflight_.load(std::memory_order_relaxed);
    while (cur + units <= budget_) {
      if (inflight_.compare_exchange_weak(cur, cur + units,
                                          std::memory_order_relaxed)) {
        return true;
      }
    }
    rejections_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  void Release(uint64_t units) {
    if (budget_ == 0) return;
    inflight_.fetch_sub(units, std::memory_order_relaxed);
  }

  uint64_t budget() const { return budget_; }
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }
  /// Counts a submit rejected before it acquired units (degraded-mode
  /// fail-fast), so storage-fault shedding shows up in the same place
  /// admission shedding does.
  void RecordRejection() {
    rejections_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  uint64_t budget_;
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> rejections_{0};
};

/// \brief The ERIS storage engine.
class Engine {
 public:
  explicit Engine(EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Schema (before Start) --------------------------------------------
  /// Creates a range-partitioned prefix-tree index over [0, domain_hi).
  storage::ObjectId CreateIndex(std::string name, storage::Key domain_hi,
                                storage::PrefixTreeConfig config = {});
  /// Creates a physically partitioned append-only column.
  storage::ObjectId CreateColumn(std::string name);
  /// Creates a range-partitioned object stored as per-partition hash
  /// tables (independent hash function per partition).
  storage::ObjectId CreateHashTable(std::string name, storage::Key domain_hi);
  /// Creates a *hash-partitioned* prefix-tree index (the partitioning the
  /// paper argues against; kept for the ablation): lookups route by key
  /// hash, every range scan multicasts to all AEUs, and the load balancer
  /// skips the object (hash classes cannot be rebalanced by range).
  storage::ObjectId CreateHashedIndex(std::string name,
                                      storage::Key domain_hi,
                                      storage::PrefixTreeConfig config = {});

  /// Starts the AEUs (spawns threads in kThreads mode). With durability
  /// enabled, runs Recover() first if the caller has not done so.
  void Start();
  /// Stops and joins all engine threads. Idempotent.
  ///
  /// Drain-then-quiesce contract (DESIGN.md §14): Stop() first gives
  /// in-flight work a bounded window (`stop_drain_ms`) to quiesce, then
  /// signals the AEU threads, whose final loop iteration commits any
  /// remaining WAL group before joining. Every operation acknowledged
  /// before Stop() returns is durable; operations still in flight when the
  /// drain window closes may be dropped, exactly as a crash would.
  void Stop();
  bool started() const { return started_; }

  // --- Durability (DESIGN.md §14) ----------------------------------------
  /// Restores the engine from its durability directory: rebuilds every
  /// partition from the live snapshot (if any), replays each AEU's WAL
  /// tail, rebuilds the range partition tables from the recovered ranges,
  /// and opens the WALs (truncating torn tails). Must run after schema
  /// registration and before Start(); the schema must match the snapshot.
  /// A fresh (or absent) directory recovers to the empty state and simply
  /// arms the WALs. Idempotent once recovered.
  Status Recover();

  /// Takes a consistent snapshot: quiesces, pauses the AEU threads,
  /// flattens every partition into snap-<epoch>, publishes it via CURRENT
  /// and truncates the WALs. Crash-atomic at every boundary — recovery
  /// always sees either the previous or the new snapshot, never a mix.
  /// Requires durability enabled and no concurrent client writes.
  Status Snapshot();

  /// Bounded Quiesce: returns true when every non-stalled AEU was idle at
  /// one instant within `timeout_ms` (every mailbox byte retired, checked
  /// by a double collect of the per-AEU written/retired counters), false
  /// otherwise (a simulated engine gives up once its pumps stop making
  /// progress).
  /// Never CHECK-fails on a wedged engine — Stop() uses it as the drain
  /// phase of shutdown. UINT64_MAX waits without a wall-clock limit.
  bool TryQuiesce(uint64_t timeout_ms);

  durability::DurabilityManager* durability() { return durability_.get(); }
  bool recovered() const { return recovered_; }

  // --- Storage-fault tolerance (DESIGN.md §15) ---------------------------
  /// Fail-stop handler invoked (by the owning AEU thread) when AEU `a`'s
  /// WAL seals on a commit-path I/O error: seals the AEU's mailbox at the
  /// router, force-stalls it at the watchdog (sticky — CheckAeuHealth never
  /// unseals it), and flips the engine into degraded read-only mode.
  /// Idempotent and thread-safe.
  void OnWalSealed(routing::AeuId a, const Status& cause);

  /// True once AEU `a`'s WAL sealed fail-stop.
  bool WalSealed(routing::AeuId a) const {
    return wal_sealed_flags_[a].load(std::memory_order_acquire);
  }
  bool AnyWalSealed() const;

  /// Degraded read-only mode: reads/scans/joins keep serving, Submit-path
  /// writes fail fast with Status::Unavailable (detail kReadOnly) before
  /// admission, and rebalancing is suspended. Entered on a sealed WAL or a
  /// failed snapshot (e.g. ENOSPC); a later successful Snapshot() clears it
  /// unless a WAL is sealed (that engine must restart to write again).
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  std::string degraded_reason() const;
  void EnterDegradedMode(std::string reason);

  /// One storage-scrub pass over cold durable state (DESIGN.md §15).
  struct ScrubReport {
    uint64_t snapshots_checked = 0;
    uint64_t files_checked = 0;
    uint64_t corrupt_files = 0;
    uint64_t snapshots_quarantined = 0;
    uint64_t wals_checked = 0;
    uint64_t wal_torn_tails = 0;
    bool clean() const {
      return corrupt_files == 0 && wal_torn_tails == 0;
    }
  };

  /// CRC-verifies every on-disk snapshot and every cold WAL segment.
  /// Corrupt non-live snapshots are quarantined (renamed aside) so recovery
  /// can never pick them up; corruption in the live snapshot is reported
  /// but left in place (quarantining it would discard the only full copy).
  /// Runs periodically on a background thread when
  /// DurabilityOptions::scrub_interval_ms > 0; tests call it directly.
  Status ScrubStorage(ScrubReport* report);

  // --- Component access ---------------------------------------------------
  const EngineOptions& options() const { return options_; }
  const numa::Topology& topology() const { return options_.topology; }
  routing::Router& router() { return *router_; }
  numa::MemoryPool& memory() { return *memory_; }
  Monitor& monitor() { return *monitor_; }
  storage::TimestampOracle& oracle() { return oracle_; }
  SnapshotTracker& snapshots() { return snapshots_; }
  AdmissionController& admission() { return *admission_; }
  AeuWatchdog& watchdog() { return *watchdog_; }
  uint32_t num_aeus() const { return num_aeus_; }
  Aeu& aeu(routing::AeuId a) { return *aeus_[a]; }
  const storage::DataObjectDesc& object(storage::ObjectId id) const {
    return *objects_[id];
  }
  size_t num_objects() const { return objects_.size(); }

  /// NUMA node AEU `a` runs on.
  numa::NodeId NodeOfAeu(routing::AeuId a) const {
    return options_.topology.NodeOfCore(a % options_.topology.total_cores());
  }

  // --- Simulated-time accounting ------------------------------------------
  bool sim_enabled() const { return options_.sim.enabled; }
  const sim::CostModel& cost_model() const { return *cost_model_; }
  sim::ResourceUsage& resource_usage() { return *usage_; }
  /// Modeled LLC budget of one AEU (node LLC / cores per node).
  double llc_budget_per_aeu() const { return llc_budget_per_aeu_; }

  // --- Driving --------------------------------------------------------------
  /// One cooperative pass over all AEUs (kSimulated; also usable in thread
  /// mode before Start). Returns true when any AEU made progress.
  bool PumpAll();

  /// Blocks until pred() is true; in kSimulated mode progress is made by
  /// pumping the AEUs inline.
  template <typename Pred>
  void DriveUntil(Pred&& pred) {
    uint64_t idle = 0;
    while (!pred()) {
      if (options_.mode == ExecutionMode::kSimulated || !started_) {
        if (PumpAll()) {
          idle = 0;
        } else {
          ++idle;
          ERIS_CHECK_LT(idle, 1u << 22)
              << "engine quiesced without satisfying the wait condition";
        }
      } else {
        std::this_thread::yield();
      }
    }
  }

  // --- Load balancing -----------------------------------------------------
  /// Runs one synchronous balancing cycle for `object` with `config`.
  /// Returns true when a rebalance was triggered and completed.
  bool RebalanceObject(storage::ObjectId object,
                       const LoadBalancerConfig& config);
  /// Balancing cycle for every object with the engine's default config.
  bool RebalanceAll();

  /// Barrier: TryQuiesce without a deadline, CHECK-failing if the engine
  /// stops making progress. Returns once every AEU mailbox is empty and no
  /// AEU holds undelivered or deferred commands — exactly, at one instant:
  /// every byte written to each AEU's mailbox has been retired by its loop,
  /// so every follow-up command the drained work caused has been processed
  /// too. AEUs the watchdog marked stalled are excluded (their mailboxes
  /// never drain).
  void Quiesce();

  /// One watchdog pass: observes every AEU's heartbeat and flags/unflags
  /// stalled AEUs at the router. Runs periodically on the watchdog thread
  /// in kThreads mode (OverloadOptions::watchdog); simulated engines and
  /// tests call it explicitly.
  void CheckAeuHealth();

  // --- Sessions -------------------------------------------------------------
  /// \brief Client-side handle for issuing storage operations.
  ///
  /// One session per client thread (not thread-safe internally).
  class Session {
   public:
    /// `node` is the NUMA node this client notionally runs on (used for
    /// traffic attribution); CreateSession() assigns nodes round-robin.
    explicit Session(Engine* engine, numa::NodeId node = 0);

    /// Point lookups; returns the number of keys found.
    uint64_t Lookup(storage::ObjectId object,
                    std::span<const storage::Key> keys);
    /// Point lookups returning each key's value (nullopt = miss), ordered
    /// like `keys`.
    std::vector<std::optional<storage::Value>> LookupValues(
        storage::ObjectId object, std::span<const storage::Key> keys);
    /// Returns the number of newly inserted keys.
    uint64_t Insert(storage::ObjectId object,
                    std::span<const routing::KeyValue> kvs);
    /// Returns the number of newly inserted keys (existing were updated).
    uint64_t Upsert(storage::ObjectId object,
                    std::span<const routing::KeyValue> kvs);
    uint64_t Erase(storage::ObjectId object,
                   std::span<const storage::Key> keys);
    /// Appends values to a column (spread over the AEUs' partitions).
    void Append(storage::ObjectId object,
                std::span<const storage::Value> values);
    /// Full scan of a column with value filter [lo, hi] at the latest
    /// snapshot.
    ScanResult ScanColumn(storage::ObjectId object, storage::Value lo = 0,
                          storage::Value hi = ~storage::Value{0});
    /// Full-aggregate scan: rows, sum, min, max over the filtered column.
    struct ColumnStats {
      uint64_t rows = 0;
      uint64_t sum = 0;
      storage::Value min = ~storage::Value{0};
      storage::Value max = 0;
      double avg = 0;
    };
    ColumnStats ScanStats(storage::ObjectId object, storage::Value lo = 0,
                          storage::Value hi = ~storage::Value{0});
    /// Index range scan over key_lo <= key < key_hi.
    ScanResult ScanIndexRange(storage::ObjectId object, storage::Key key_lo,
                              storage::Key key_hi);
    /// Barrier: returns once every AEU processed all commands this session
    /// sent before the fence.
    void Fence();

    // --- Overload-aware submits -----------------------------------------
    // Unlike the blocking operations above, Submit* go through admission
    // control, stamp the session's op timeout as a command deadline, and
    // return a typed Status instead of blocking indefinitely: OK,
    // ResourceExhausted (admission / shed), DeadlineExceeded (expired or
    // timed out), Unavailable (target AEU stalled), Internal (poison
    // command quarantined).

    /// Per-unit breakdown of one submit (all counts in completion units).
    struct SubmitOutcome {
      uint64_t units = 0;        ///< completion units the submit expected
      uint64_t hits = 0;         ///< found / newly-inserted / applied
      uint64_t shed = 0;         ///< dropped: delivery retries exhausted
      uint64_t stalled = 0;      ///< dropped: target AEU quarantined
      uint64_t expired = 0;      ///< dropped: deadline passed at dequeue
      uint64_t quarantined = 0;  ///< dropped: poison command dead-lettered
      uint64_t wal_sealed = 0;   ///< dropped: target AEU's WAL sealed
      uint64_t alloc_failed = 0; ///< dropped: arena/pool allocation failed
    };

    /// Relative deadline stamped on Submit* commands; 0 falls back to
    /// OverloadOptions::default_deadline_ns (0 = no deadline).
    void set_op_timeout_ns(uint64_t timeout_ns) {
      op_timeout_ns_ = timeout_ns;
    }
    uint64_t op_timeout_ns() const { return op_timeout_ns_; }

    Status SubmitInsert(storage::ObjectId object,
                        std::span<const routing::KeyValue> kvs,
                        SubmitOutcome* out = nullptr);
    Status SubmitUpsert(storage::ObjectId object,
                        std::span<const routing::KeyValue> kvs,
                        SubmitOutcome* out = nullptr);
    Status SubmitErase(storage::ObjectId object,
                       std::span<const storage::Key> keys,
                       SubmitOutcome* out = nullptr);
    Status SubmitLookup(storage::ObjectId object,
                        std::span<const storage::Key> keys,
                        SubmitOutcome* out = nullptr);
    Status SubmitAppend(storage::ObjectId object,
                        std::span<const storage::Value> values,
                        SubmitOutcome* out = nullptr);
    Status SubmitScanStats(storage::ObjectId object, storage::Value lo,
                           storage::Value hi, ColumnStats* stats,
                           SubmitOutcome* out = nullptr);

    routing::Endpoint& endpoint() { return endpoint_; }
    routing::AggregateSink& sink() { return sink_; }
    /// Flushes and blocks until `expected` completion units arrived for
    /// ops issued through sink() since the last Reset.
    void Wait(uint64_t expected);

   private:
    /// Shared submit path: admission, deadline stamping, bounded wait,
    /// drop accounting, and the Status mapping. `send` issues the commands
    /// and returns the expected completion units; `observe` (optional)
    /// reads aggregate results off the sink after a complete wait.
    Status SubmitCommon(
        uint64_t admission_units,
        const std::function<size_t(routing::AggregateSink*)>& send,
        SubmitOutcome* out,
        const std::function<void(const routing::AggregateSink&)>& observe =
            {});
    /// Waits for `expected` units with an absolute wall-clock bail-out
    /// (deadline_abs + grace; 0 = wait for quiescence). Returns whether
    /// every unit arrived.
    bool WaitForUnits(routing::AggregateSink* sink, uint64_t expected,
                      uint64_t deadline_abs);
    /// Degraded-mode gate for Submit-path writes: fails fast with
    /// Status::Unavailable (detail kReadOnly) before admission, counting
    /// the rejection at the AdmissionController. OK when not degraded.
    Status CheckWritable(SubmitOutcome* out);

    Engine* engine_;
    routing::Endpoint endpoint_;
    routing::AggregateSink sink_;
    uint64_t op_timeout_ns_ = 0;
  };

  std::unique_ptr<Session> CreateSession();

  /// As CreateSession, pinning the client to a specific node.
  std::unique_ptr<Session> CreateSessionOnNode(numa::NodeId node);

  /// Multi-line human-readable engine report: per-node memory, per-AEU
  /// loop statistics, data objects with partition sizes and table shapes.
  std::string StatsReport();

 private:
  friend class Aeu;

  storage::ObjectId RegisterObject(storage::DataObjectDesc desc,
                                   storage::Key domain_hi);
  void BalancerThreadMain();
  void WatchdogThreadMain();
  void ScrubberThreadMain();

  /// AEU `a`'s (Aeu::BytesRetired, mailbox BytesWritten) pair; the AEU is
  /// idle iff the two are equal.
  std::pair<uint64_t, uint64_t> AeuProgress(routing::AeuId a) const;

  /// Applies one WAL effect record to AEU `a`'s partitions (recovery
  /// replay). Records for objects not re-registered before Recover() —
  /// query-layer intermediates — are skipped.
  void ApplyWalRecord(routing::AeuId a, std::span<const uint8_t> body);
  /// Rebuilds every range object's routing table from the recovered
  /// per-AEU partition ranges (they already include replayed balance
  /// effects); validates the ranges tile the key domain.
  Status RebuildRangeTables();
  /// Snapshot() body once the engine is quiesced and (in thread mode)
  /// every AEU thread is parked.
  Status WriteSnapshotFiles();

  /// Parks a sink whose submit bailed on its deadline while completion
  /// units were still in flight: late completions write into the retired
  /// sink instead of freed memory. Freed when the engine is destroyed.
  void RetireSink(std::unique_ptr<routing::AggregateSink> sink);

  EngineOptions options_;
  uint32_t num_aeus_ = 0;
  std::unique_ptr<numa::MemoryPool> memory_;
  std::unique_ptr<routing::Router> router_;
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<sim::CostModel> cost_model_;
  std::unique_ptr<sim::ResourceUsage> usage_;
  double llc_budget_per_aeu_ = 0;
  storage::TimestampOracle oracle_;
  SnapshotTracker snapshots_;

  std::vector<std::unique_ptr<storage::DataObjectDesc>> objects_;
  std::vector<std::unique_ptr<Aeu>> aeus_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<AeuWatchdog> watchdog_;
  SpinLock retired_lock_;
  std::vector<std::unique_ptr<routing::AggregateSink>> retired_sinks_;
  std::vector<std::thread> threads_;
  std::thread balancer_thread_;
  std::thread watchdog_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> session_counter_{0};
  bool started_ = false;

  // --- durability state (DESIGN.md §14) ---
  std::unique_ptr<durability::DurabilityManager> durability_;
  bool recovered_ = false;
  uint64_t snapshot_epoch_ = 0;
  // --- storage-fault state (DESIGN.md §15) ---
  /// Per-AEU sticky "WAL sealed fail-stop" flags; once set, CheckAeuHealth
  /// never unseals the AEU's mailbox again.
  std::unique_ptr<std::atomic<bool>[]> wal_sealed_flags_;
  std::atomic<bool> degraded_{false};
  mutable SpinLock degraded_lock_;  ///< guards degraded_reason_
  std::string degraded_reason_;
  std::thread scrubber_thread_;
  /// Snapshot() parks the AEU threads here while it flattens partitions,
  /// so no loop (idle maintenance included) runs concurrently with the
  /// reads. ThreadMain checks pause_ each iteration and acknowledges via
  /// paused_count_.
  std::atomic<bool> pause_{false};
  std::atomic<uint32_t> paused_count_{0};
};

}  // namespace eris::core
