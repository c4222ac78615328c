// Autonomous Execution Unit: the worker at the heart of ERIS' data-oriented
// architecture.
//
// Exactly one AEU runs per core. It exclusively owns one partition per data
// object and executes the loop of Figure 3: (1) drain and group the
// incoming data command buffer by object and command type — grouping lets
// the AEU coalesce work, e.g. execute several scan commands in one shared
// pass under MVCC, and probe lookup batches together to hide memory
// latency —, (2) process the groups, (3) handle balancing and transfer
// commands, then flush its outgoing buffers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/balance_messages.h"
#include "routing/arena_vec.h"
#include "routing/router.h"
#include "storage/partition.h"

namespace eris::durability {
class WalWriter;
}  // namespace eris::durability

namespace eris::core {

class Engine;

/// Counters of one AEU's loop (private to the AEU, read by tests/benches
/// between quiescent points).
struct AeuLoopStats {
  uint64_t iterations = 0;
  uint64_t commands_processed = 0;
  uint64_t elements_processed = 0;
  uint64_t commands_forwarded = 0;
  uint64_t commands_deferred = 0;
  uint64_t scans_coalesced = 0;  ///< scan commands saved by scan sharing
  uint64_t lookups_coalesced = 0;  ///< lookup commands merged into a shared probe
  uint64_t zone_segments_skipped = 0;  ///< per-job segment skips via zone maps
  uint64_t link_transfers = 0;
  uint64_t copy_transfers = 0;
  uint64_t bytes_copied = 0;     ///< copy-transfer payload bytes sent
  uint64_t maintenance_runs = 0; ///< idle-time MVCC GC passes
  uint64_t versions_reclaimed = 0;
  uint64_t commands_expired = 0;   ///< dropped at dequeue: deadline passed
  uint64_t units_expired = 0;      ///< completion units of expired commands
  uint64_t commands_quarantined = 0;  ///< poison commands dead-lettered
  // --- query pipelines & MPSM join (DESIGN.md §13) ---
  uint64_t pipelines_fused = 0;     ///< pipeline commands run fused
  uint64_t pipelines_baseline = 0;  ///< pipeline commands run operator-at-a-time
  uint64_t pipeline_segments_pruned = 0;  ///< zone-map skips before the filter
  uint64_t pipeline_filter_bytes = 0;   ///< driving-filter bytes streamed
  uint64_t pipeline_filter2_bytes = 0;  ///< refining-filter bytes gathered
  uint64_t pipeline_agg_bytes = 0;      ///< aggregate bytes streamed/gathered
  uint64_t join_runs_sorted = 0;        ///< local runs sorted in place
  uint64_t join_entries_local = 0;      ///< staged entries that stayed on-AEU
  uint64_t join_entries_exchanged = 0;  ///< entries routed across AEUs (boundary straddle)
  uint64_t join_boundary_lookups = 0;   ///< merge-time strays resolved via routed lookups
  // --- durability (DESIGN.md §14) ---
  uint64_t wal_records = 0;  ///< effect records logged ahead of apply
  uint64_t wal_commits = 0;  ///< iteration-end group commits that flushed
  uint64_t wal_stalls = 0;   ///< inline commits forced by backpressure
  uint64_t wal_drops = 0;    ///< write units shed because the WAL sealed
};

/// \brief One worker, pinned to one core, owning its partitions.
class Aeu {
 public:
  Aeu(routing::AeuId id, Engine* engine);
  ~Aeu();

  Aeu(const Aeu&) = delete;
  Aeu& operator=(const Aeu&) = delete;

  routing::AeuId id() const { return id_; }
  numa::NodeId node() const { return node_; }

  /// Registers the AEU's partition of a new data object (engine setup,
  /// before the loop runs).
  void AddPartition(const storage::DataObjectDesc& desc,
                    storage::KeyRange initial_range);

  /// Swaps in a partition rebuilt from a snapshot stream (recovery only,
  /// before the loop runs).
  void ReplacePartition(storage::ObjectId object, storage::Partition&& part);

  /// Attaches the AEU's write-ahead log. With a log attached the loop logs
  /// the locally applied effect of every data command before applying it,
  /// group-commits once per iteration and defers write acknowledgements to
  /// that commit (DESIGN.md §14). The writer's group buffer is wired to the
  /// AEU's node-local memory manager. nullptr detaches (in-memory mode).
  void set_wal(durability::WalWriter* wal);

  /// Commits any buffered log records and delivers deferred write
  /// acknowledgements. Called by the engine after the loop stopped
  /// (shutdown residue) — not thread safe against a running loop.
  void FlushWal();

  storage::Partition* partition(storage::ObjectId object) {
    return partitions_[object].get();
  }
  const storage::Partition* partition(storage::ObjectId object) const {
    return partitions_[object].get();
  }

  /// One pass of the AEU loop. Returns true when any work was done.
  bool RunLoopIteration();

  /// Thread-mode body: pins to a core and loops until the engine stops.
  void ThreadMain();

  const AeuLoopStats& loop_stats() const { return stats_; }
  routing::Endpoint& endpoint() { return endpoint_; }

  /// Loop epoch, bumped once per RunLoopIteration. Read by the watchdog.
  uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

  /// The AEU whose loop is executing on this thread (nullptr outside an
  /// AEU loop). Lets fault-injection hooks target one worker.
  static Aeu* Current();

  /// While a data command is being processed (or probed at the
  /// `kAeuProcess` injection point), the command under execution.
  const routing::CommandView* current_command() const {
    return current_command_;
  }

  /// A quarantined poison command: header plus a copy of its payload.
  struct DeadLetter {
    routing::CommandHeader header;
    std::vector<uint8_t> payload;
  };
  const std::vector<DeadLetter>& dead_letters() const { return dead_letters_; }

  /// Monotone total of mailbox bytes this AEU has fully processed: drained,
  /// with no command still deferred and every follow-up delivered (and,
  /// with a WAL, group-committed and acked). Published at the end of each
  /// loop iteration; the AEU is idle iff this equals its mailbox's
  /// BytesWritten (see Engine::TryQuiesce).
  uint64_t BytesRetired() const {
    return retired_.load(std::memory_order_acquire);
  }

 private:
  struct Group {
    storage::ObjectId object;
    routing::CommandType type;
    routing::AeuArenaVec<routing::CommandView> commands;
  };

  /// Drains the mailbox, groups records, processes them.
  bool ProcessIncoming();
  void GroupRecords(std::span<const uint8_t> region);
  void ProcessGroups();
  void RetryDeferred();
  /// Claims the next group slot (reusing retained command capacity; a new
  /// slot's command vector is wired to the node-local manager).
  Group* AppendGroup(storage::ObjectId object, routing::CommandType type);

  // --- data command handlers (one per group) ---
  void ProcessLookupGroup(const Group& g);
  void ProcessWriteGroup(const Group& g);   // insert/upsert
  void ProcessEraseGroup(const Group& g);
  void ProcessAppendGroup(const Group& g);
  void ProcessScanColumnGroup(const Group& g);
  void ProcessScanIndexGroup(const Group& g);
  void ProcessPipelineGroup(const Group& g);
  void ProcessJoinScatterGroup(const Group& g);
  void ProcessJoinStageGroup(const Group& g);
  void ProcessJoinMergeGroup(const Group& g);
  void ProcessFence(const routing::CommandView& cmd);

  // --- balancing handlers ---
  void HandleBalanceRange(const routing::CommandView& cmd);
  void HandleBalancePhysical(const routing::CommandView& cmd);
  void HandleTransferRequest(const routing::CommandView& cmd);
  void HandleInstall(const routing::CommandView& cmd);
  void CompleteFetch(storage::ObjectId object, storage::KeyRange range);

  /// Key classification against own range & pending inbound ranges.
  bool InPendingRange(storage::ObjectId object, storage::Key key) const;
  bool RangeOverlapsPending(storage::ObjectId object, storage::Key lo,
                            storage::Key hi) const;

  /// Re-encodes a command with a subset payload into the deferred queue.
  void DeferCommand(const routing::CommandHeader& header,
                    std::span<const uint8_t> payload);

  /// Drops a command whose deadline has passed: reports the drop to its
  /// sink (same completion units as processing) and counts it.
  void ExpireCommand(const routing::CommandView& cmd);

  /// Runs each command of `g` through the `kAeuProcess` injection point;
  /// a throwing hook marks the command poison. Poison commands are removed
  /// from the group and either deferred for retry or quarantined.
  void FilterPoisoned(Group* g);
  void HandlePoisoned(const routing::CommandView& cmd);
  static uint64_t PoisonKey(const routing::CommandView& cmd);

  /// Sends the copy-transfer chunk stream for a flattened partition.
  void SendCopyTransfer(storage::ObjectId object, storage::KeyRange range,
                        routing::AeuId requester, bool is_physical,
                        storage::Partition&& part);

  /// Idle-time storage maintenance (paper §6): reclaims MVCC undo
  /// versions no active snapshot can read.
  void RunMaintenance();

  // --- durability (DESIGN.md §14) ---
  /// Appends one effect record (CommandHeader + payload, the on-wire
  /// serialization) to the attached WAL. Only the locally applied subset
  /// of a command is ever logged, so per-AEU replay is a pure function of
  /// that AEU's own log. Returns the append status: ResourceExhausted
  /// means a (injected) group-buffer allocation failure — nothing was
  /// logged, the log is NOT sealed, and the caller must shed the effect
  /// instead of applying it.
  Status WalLogEffect(routing::CommandType type, storage::ObjectId object,
                      std::span<const uint8_t> payload);
  /// Logs a partition's full contents as kUpsertBatch/kAppendBatch chunks
  /// (link-transfer install: the absorbed partition was never flattened).
  void WalLogPartitionContents(storage::ObjectId object,
                               const storage::Partition& part);
  /// Group commit at iteration end + deferred-ack delivery.
  void CommitWalAndAck();
  /// Acks a write: at the end of its group without a WAL, else after the
  /// group commit.
  void AckWrite(routing::ResultSink* sink, uint64_t applied, uint64_t units);
  /// Completes `units` of `sink` once ProcessGroups has recorded the
  /// current group's monitor metrics, so a client that saw its command
  /// complete also finds its accesses in the monitor (RebalanceObject).
  void CompleteAfterGroup(routing::ResultSink* sink, uint64_t units);

  // --- monitoring & sim accounting ---
  void RecordGroupMetrics(storage::ObjectId object, uint64_t ops,
                          double exec_ns);
  void ChargePointOps(storage::ObjectId object, uint64_t ops, bool is_write);
  /// Lookup-specific variant: memory cost is charged per unique index node
  /// the batch touched (`nodes_touched`, 0 = fall back to per-key), while
  /// routing CPU stays per key.
  void ChargeLookupOps(storage::ObjectId object, uint64_t keys,
                       uint64_t nodes_touched);
  void ChargeRoutingCosts();
  /// Charges the group's streamed bytes and extra CPU terms (the
  /// group_* counters the handlers fill) to the cost model, once.
  void ChargeGroupStream();

  Engine* engine_;
  routing::AeuId id_;
  numa::NodeId node_;
  routing::Endpoint endpoint_;
  // Fixed-capacity slot array (sized at construction) + published count:
  // objects may be registered while the loop runs (query-layer
  // intermediates), so the loop must never read vector members the
  // registering thread writes. AddPartition fills the next slot, then
  // releases num_partitions_; loop-side iteration acquires it.
  std::vector<std::unique_ptr<storage::Partition>> partitions_;
  std::atomic<uint32_t> num_partitions_{0};

  // Balancing state.
  struct PendingFetch {
    storage::ObjectId object;
    storage::KeyRange range;
  };
  struct BalanceTicket {
    storage::ObjectId object;
    routing::ResultSink* sink;
    uint32_t outstanding;
  };
  std::vector<PendingFetch> pending_fetches_;
  std::vector<BalanceTicket> balance_tickets_;
  std::vector<std::vector<uint8_t>> deferred_;

  // Durability state (null/empty when the engine runs in-memory).
  durability::WalWriter* wal_ = nullptr;
  struct PendingAck {
    routing::ResultSink* sink;
    uint64_t applied;
    uint64_t units;
  };
  /// Write acknowledgements held back until the iteration-end group commit
  /// (acknowledged implies durable).
  std::vector<PendingAck> pending_acks_;
  struct Completion {
    routing::ResultSink* sink;
    uint64_t units;
  };
  /// Completions of the group being processed; see CompleteAfterGroup.
  routing::AeuArenaVec<Completion> group_completions_;

  // Scratch. Everything the dequeue/dispatch path touches per iteration is
  // arena-backed (AeuArenaVec carving from the AEU's node-local manager):
  // buffers grow to the workload's high-water mark, then are reused, so
  // steady-state command processing never allocates —
  // fi::Point::kAeuScratchAlloc counts violations (DESIGN.md §16).
  //
  // The group table is slot-reused across drains (a plain clear() would
  // destroy the per-group command vectors): only the first groups_used_
  // entries are live, and a slot keeps its command capacity when recycled.
  std::vector<Group> groups_;
  size_t groups_used_ = 0;
  routing::AeuArenaVec<routing::CommandView> control_;
  routing::AeuArenaVec<storage::Key> scratch_keys_;
  routing::AeuArenaVec<storage::Value> scratch_values_;
  routing::AeuArenaVec<routing::KeyValue> scratch_kvs_;
  routing::AeuArenaVec<uint8_t> scratch_payload_;
  routing::AeuArenaVec<uint8_t> transfer_payload_;  ///< copy-transfer chunks
  routing::AeuArenaVec<uint8_t> wal_scratch_;       ///< WAL effect encoding

  // Handler staging (formerly function-local thread_local vectors; members
  // so the buffers are node-local and their growth is observable).
  /// A slice of the group-wide "mine" key buffer belonging to one command.
  struct LookupSegment {
    routing::ResultSink* sink;
    uint32_t offset;
    uint32_t len;
  };
  routing::AeuArenaVec<LookupSegment> lookup_segments_;
  routing::AeuArenaVec<storage::Key> pending_keys_;
  routing::AeuArenaVec<storage::Key> foreign_keys_;
  routing::AeuArenaVec<storage::Key> mine_keys_;
  /// span<const bool> needs contiguous plain bools (std::vector<bool> is
  /// bit-packed), so lookups keep a flat found-flag buffer.
  routing::AeuArenaVec<bool> found_;
  routing::AeuArenaVec<routing::KeyValue> pending_kvs_;
  routing::AeuArenaVec<routing::KeyValue> mine_kvs_;
  struct ScanJob {
    routing::ScanParams params;
    routing::ResultSink* sink;
    uint64_t visible = 0;
    uint64_t rows = 0;
    uint64_t sum = 0;
    storage::Value min = ~storage::Value{0};
    storage::Value max = 0;
    uint64_t routed = 0;  ///< completion units routed to the target sink
  };
  routing::AeuArenaVec<ScanJob> scan_jobs_;
  /// Runs one job's output kernel over `m` values of a segment (`covered`:
  /// the zone map proves every value matches).
  void ScanSegment(ScanJob* job, const storage::Value* data, uint64_t m,
                   bool covered);
  struct PipelineJob {
    routing::PipelineParams p;
    routing::ResultSink* sink;
    const storage::MvccColumn* f2 = nullptr;
    const storage::MvccColumn* agg = nullptr;
    uint64_t visible = 0;
    bool fast = false;
    uint64_t rows = 0;
    uint64_t sum = 0;
  };
  routing::AeuArenaVec<PipelineJob> pipeline_jobs_;
  routing::AeuArenaVec<PipelineJob*> pipeline_fused_;

  // Query-pipeline/join scratch: node-local arena buffers reused across
  // commands. After warm-up neither pipelines nor joins allocate
  // (fi::Point::kQueryScratchAlloc counts violations).
  routing::QueryArenaVec<uint32_t> sel_;      ///< selection vector (per segment)
  /// One scan job's snapshot view of a versioned segment (MVCC fallback).
  routing::QueryArenaVec<storage::Value> snapshot_view_;
  routing::QueryArenaVec<uint64_t> mat_idx_;  ///< baseline materialized indices
  routing::QueryArenaVec<routing::KeyValue> join_run_;  ///< local sorted run
  routing::QueryArenaVec<routing::KeyValue> join_out_;  ///< boundary exchange
  routing::QueryArenaVec<storage::Key> join_keys_;      ///< stray-key lookups

  /// Per-join staging buffer for the MPSM boundary-range exchange: S
  /// entries routed here wait until the kJoinMerge command consumes them.
  /// Slots are recycled by join id; steady-state joins reuse capacity.
  struct JoinStage {
    uint64_t join_id = 0;
    bool active = false;
    routing::QueryArenaVec<routing::KeyValue> entries;
    explicit JoinStage(numa::NodeMemoryManager* memory) : entries(memory) {}
  };
  std::vector<std::unique_ptr<JoinStage>> join_stages_;
  JoinStage* FindOrCreateStage(uint64_t join_id);
  /// Ring of recently merged join ids: staged entries arriving after their
  /// merge (rebalance races) are resolved via routed lookups instead of
  /// buffered forever.
  static constexpr size_t kMergedRing = 16;
  uint64_t merged_join_ids_[kMergedRing] = {};
  size_t merged_join_pos_ = 0;
  bool JoinAlreadyMerged(uint64_t join_id) const;

  /// Collects the local partition of a keyed object into `out`, sorted by
  /// key (in place for unordered hash containers — the MPSM local sort).
  void BuildLocalRun(storage::ObjectId object,
                     routing::QueryArenaVec<routing::KeyValue>* out);

  AeuLoopStats stats_;
  std::atomic<uint64_t> heartbeat_{0};
  /// Mailbox bytes drained so far (loop-private) and the published
  /// retirement mark; see BytesRetired.
  uint64_t drained_bytes_ = 0;
  std::atomic<uint64_t> retired_{0};
  const routing::CommandView* current_command_ = nullptr;
  /// Retry counts of commands whose processing hook threw, keyed by a hash
  /// of the command's identity (header fields + payload).
  std::unordered_map<uint64_t, uint32_t> poison_attempts_;
  std::vector<DeadLetter> dead_letters_;
  uint64_t last_bytes_flushed_ = 0;
  uint32_t idle_iterations_ = 0;
  uint64_t last_flushes_ = 0;
  // Per-group accounting (set by the handlers, read by ProcessGroups).
  uint64_t group_ops_ = 0;
  uint64_t group_stream_bytes_ = 0;  ///< node-local bytes streamed
  uint64_t group_extra_words_ = 0;   ///< words re-filtered by coalesced scans
  uint64_t group_index_visits_ = 0;  ///< entries index range scans visited
  double group_modeled_ns_ = 0;
};

}  // namespace eris::core
