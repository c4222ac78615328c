// The NUMA-optimized high-throughput data command routing layer.
//
// The Router owns one incoming double buffer per AEU (the mailbox) and the
// partition tables of every registered data object. Command sources — AEUs
// during query processing, and client threads at the engine frontend —
// route through a private Endpoint that implements the three-step protocol
// of the paper's Figure 4:
//   (1) batch lookup of the responsible AEUs in the partition table,
//   (2) write commands (split per target) into private outgoing buffers;
//       multi-target commands go to the multicast buffer with per-target
//       references,
//   (3) when an outgoing buffer exceeds the configured size or the source's
//       processing loop wraps around, copy it into the target's incoming
//       buffer in one latch-free reservation.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "numa/memory_manager.h"
#include "numa/topology.h"
#include "routing/arena_vec.h"
#include "routing/data_command.h"
#include "routing/incoming_buffer.h"
#include "routing/outgoing.h"
#include "routing/partition_table.h"
#include "sim/resource_usage.h"
#include "storage/data_object.h"

namespace eris::routing {

/// Bounded-retry policy for outgoing-buffer delivery. A full (or sealed)
/// incoming buffer no longer spins forever: after `max_attempts`
/// *consecutive* failed deliveries to one target, that target's pending
/// commands are shed and their sinks notified with
/// DropReason::kRetryExhausted. Between attempts the endpoint backs off
/// with jittered exponential delays (deterministic per source, seeded via
/// common/rng.h) when `pace_with_time` is set — the engine enables pacing
/// only in kThreads mode, since simulated engines pump cooperatively and
/// must not wait on the wall clock.
struct DeliveryRetryPolicy {
  /// Consecutive delivery failures per target before shedding; 0 disables
  /// the cap. The default is effectively "never" for healthy targets (any
  /// successful delivery resets the count) while still bounding a stall.
  uint32_t max_attempts = 1u << 20;
  uint64_t backoff_base_ns = 2'000;
  uint64_t backoff_max_ns = 1'000'000;
  /// Multiplicative jitter: each delay is scaled by a uniform factor in
  /// [1 - jitter, 1 + jitter].
  double jitter = 0.5;
  /// Seed of the per-endpoint jitter streams (deterministic replay).
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Gate retries on the wall clock (kThreads engines only).
  bool pace_with_time = false;
};

/// Jittered exponential backoff delay for the `attempt`-th consecutive
/// failure (attempt >= 1). Pure function of the policy and the rng state,
/// so a seeded replay reproduces the exact delay sequence.
uint64_t JitteredBackoffNs(const DeliveryRetryPolicy& policy, uint32_t attempt,
                           Xoshiro256& rng);

struct RouterConfig {
  /// Flush an outgoing buffer to its target once it holds this many bytes.
  /// This is the paper's "outgoing buffer size" knob (Figure 5).
  size_t flush_threshold_bytes = 32 * 1024;
  /// Capacity of each of the two incoming buffers per AEU.
  size_t incoming_capacity_bytes = 1 << 21;
  /// Keyed batches are split into per-target chunks of at most this many
  /// elements before encoding.
  size_t max_batch_elements = 1024;
  /// Resolve range-partitioned owners with the prefetch-pipelined batch
  /// descent (RangePartitionTable::BatchOwnerOf) instead of per-key probes.
  /// Off is the scalar reference path, kept for ablation benches.
  bool batch_owner_lookup = true;
  /// Bounded delivery retry (overload control).
  DeliveryRetryPolicy retry;
};

/// Statistics of one endpoint (private, unsynchronized).
struct EndpointStats {
  uint64_t commands_routed = 0;
  uint64_t bytes_flushed = 0;
  uint64_t flushes = 0;
  uint64_t commands_shed = 0;  ///< records dropped undelivered (retry cap
                               ///< reached or target stalled)
  uint64_t units_shed = 0;     ///< completion units of the shed records
};

class Router;

/// \brief Private routing front of one command source.
///
/// Not thread-safe; create one Endpoint per source thread.
class Endpoint {
 public:
  /// `source` is the sending AEU (or kInvalidAeu for clients); `node` is
  /// the NUMA node the source runs on (for traffic attribution). `memory`
  /// is the source's node-local allocator backing the endpoint's reusable
  /// scratch arena; null (stand-alone routing tests) falls back to the
  /// heap. Either way, scratch grows to the workload's high-water mark and
  /// is reused — steady-state sends perform zero allocations.
  Endpoint(Router* router, AeuId source, numa::NodeId node,
           numa::NodeMemoryManager* memory = nullptr);

  /// Routes a lookup batch, splitting keys by owning AEU.
  /// Returns the number of completion units (= keys.size()).
  size_t SendLookupBatch(storage::ObjectId object,
                         std::span<const storage::Key> keys,
                         ResultSink* sink);

  /// Routes insert/upsert key-value batches (type kInsertBatch or
  /// kUpsertBatch), splitting by owner.
  size_t SendWriteBatch(CommandType type, storage::ObjectId object,
                        std::span<const KeyValue> kvs, ResultSink* sink);

  /// Routes an erase batch, splitting by owner.
  size_t SendEraseBatch(storage::ObjectId object,
                        std::span<const storage::Key> keys, ResultSink* sink);

  /// Appends values to a physically partitioned column; the router spreads
  /// consecutive calls round-robin over the AEUs holding partitions.
  size_t SendAppendBatch(storage::ObjectId object,
                         std::span<const storage::Value> values,
                         ResultSink* sink);

  /// Appends to one specific AEU's partition. The query layer uses this to
  /// keep the member columns of a co-partitioned group row-aligned: every
  /// column of one row chunk lands on the same AEU, in the same order.
  size_t SendAppendTo(AeuId target, storage::ObjectId object,
                      std::span<const storage::Value> values,
                      ResultSink* sink);

  /// Multicasts a full-column scan to every AEU holding a partition; its
  /// output kind (params.output) selects what each owner produces.
  size_t SendScanColumn(storage::ObjectId object, const ScanParams& params,
                        ResultSink* sink);

  /// Multicasts a fused pipeline plan to every owner of the driving filter
  /// column (`params.filter_object`); the group's other member columns are
  /// co-partitioned, so the same owners hold them.
  size_t SendPipeline(const PipelineParams& params, ResultSink* sink);

  /// Multicasts one MPSM join phase. kJoinScatter goes to the owners of
  /// `params.s_object`, kJoinMerge to the owners of `params.r_object`.
  size_t SendJoinPhase(CommandType type, const MergeJoinParams& params,
                       ResultSink* sink);

  /// Routes a sorted (key, value) run to the owners of `r_object`'s key
  /// ranges: per-target chunks of kJoinStage carrying a JoinStageParams
  /// prefix. Returns the number of commands routed (1 unit each).
  size_t SendJoinStage(storage::ObjectId r_object,
                       const JoinStageParams& params,
                       std::span<const KeyValue> entries, ResultSink* sink);

  /// Multicasts an index range scan to the AEUs owning [lo, hi).
  size_t SendScanIndexRange(storage::ObjectId object, storage::Key lo,
                            storage::Key hi, const ScanParams& params,
                            ResultSink* sink);

  /// Sends an engine-internal control command to one AEU.
  size_t SendControl(AeuId target, CommandType type, storage::ObjectId object,
                     std::span<const uint8_t> payload, ResultSink* sink);

  /// Delivers every pending outgoing buffer whose target accepts it.
  /// Returns true when everything was delivered (or shed).
  bool FlushAll();

  /// True when some outgoing buffer still holds undelivered commands.
  bool HasPending() const { return outgoing_.HasAnyPending(); }

  /// Absolute deadline (MonotonicNanos) stamped on every subsequently
  /// routed command whose header carries none; 0 disables stamping.
  void set_deadline_ns(uint64_t abs_ns) { deadline_ns_ = abs_ns; }
  uint64_t deadline_ns() const { return deadline_ns_; }

  const EndpointStats& stats() const { return stats_; }
  /// Delivery failures per target AEU (one bucket per target): which
  /// mailboxes reject deliveries and how often.
  const Histogram& flush_retry_histogram() const {
    return flush_retry_hist_;
  }
  AeuId source() const { return source_; }

 private:
  /// Encodes into the target buffer and flushes it when over threshold.
  void Unicast(AeuId target, const CommandHeader& header,
               std::span<const uint8_t> payload);
  void Multicast(std::span<const AeuId> targets, const CommandHeader& header,
                 std::span<const uint8_t> payload);
  /// Splits a keyed batch by owner and unicasts the chunks; returns the
  /// number of completion units (elements). E must start with its key.
  template <typename E>
  size_t SendKeyed(CommandType type, storage::ObjectId object,
                   std::span<const E> elements, ResultSink* sink);

  bool FlushTarget(AeuId target);
  /// Records one failed delivery to `target`; sheds its pending commands
  /// when the consecutive-failure cap is reached. Returns the new
  /// FlushTarget result (true when shedding cleared the backlog).
  bool RecordFlushFailure(AeuId target);
  /// Drops everything pending for `target`, notifying sinks with `reason`.
  void ShedTarget(AeuId target, DropReason reason);

  /// Per-target consecutive-failure state of the bounded retry policy.
  struct TargetRetry {
    uint32_t attempts = 0;
    uint64_t next_attempt_ns = 0;
  };

  Router* router_;
  AeuId source_;
  numa::NodeId node_;
  OutgoingSet outgoing_;
  EndpointStats stats_;
  Histogram flush_retry_hist_;
  Xoshiro256 backoff_rng_;
  uint64_t deadline_ns_ = 0;
  // Reusable scratch arena carved from the source's node-local memory
  // manager (see the constructor comment). Capacity only ever grows;
  // clear()/resize() recycle it, so after warm-up the send path never
  // allocates (fi::Point::kEndpointScratchAlloc counts violations).
  ArenaVec<TargetRetry> retry_;  ///< per-target bounded-retry bookkeeping
  ArenaVec<AeuId> owners_;
  ArenaVec<storage::Key> keys_;
  ArenaVec<uint32_t> group_order_;
  ArenaVec<uint32_t> bucket_count_;
  ArenaVec<uint8_t> chunk_;
  ArenaVec<std::span<const uint8_t>> pieces_;
};

/// \brief Shared routing state: mailboxes + partition tables.
class Router {
 public:
  /// Upper bound on registered data objects (tables can be created while
  /// the engine runs; the registry never reallocates).
  static constexpr size_t kMaxObjects = 256;

  /// `aeu_nodes[a]` is the NUMA node AEU `a` runs on.
  Router(std::vector<numa::NodeId> aeu_nodes, RouterConfig config = {});

  uint32_t num_aeus() const {
    return static_cast<uint32_t>(aeu_nodes_.size());
  }
  numa::NodeId NodeOfAeu(AeuId a) const { return aeu_nodes_[a]; }
  const RouterConfig& config() const { return config_; }

  IncomingBufferPair& mailbox(AeuId a) { return *mailboxes_[a]; }

  /// Marks AEU `a` stalled (watchdog quarantine): its mailbox is sealed and
  /// every endpoint fails fast — pending and future commands routed to it
  /// are shed with DropReason::kTargetStalled instead of blocking. Clearing
  /// the flag unseals the mailbox.
  void SetAeuStalled(AeuId a, bool stalled) {
    stalled_[a].store(stalled ? 1 : 0, std::memory_order_release);
    if (stalled) {
      mailboxes_[a]->Seal();
    } else {
      mailboxes_[a]->Unseal();
    }
  }
  bool IsAeuStalled(AeuId a) const {
    return stalled_[a].load(std::memory_order_acquire) != 0;
  }
  uint32_t StalledCount() const {
    uint32_t n = 0;
    for (AeuId a = 0; a < num_aeus(); ++a) n += IsAeuStalled(a) ? 1 : 0;
    return n;
  }

  /// Registers a data object's routing. Range-partitioned objects start
  /// with a uniform partitioning of [0, domain_hi) over all AEUs.
  void RegisterRangeObject(const storage::DataObjectDesc& desc,
                           storage::Key domain_hi);
  void RegisterPhysicalObject(const storage::DataObjectDesc& desc);
  /// Hash-partitioned keyed object: owner = Mix64(key) % num_aeus.
  void RegisterHashedObject(const storage::DataObjectDesc& desc);

  /// Owner lookup across partitioning kinds (range table or key hash).
  void OwnersOfKeys(storage::ObjectId object,
                    std::span<const storage::Key> keys, AeuId* owners) const;

  /// AEUs an index range scan over [lo, hi) must visit: the owning subset
  /// for range partitioning, every AEU for hash partitioning.
  std::vector<AeuId> OwnersOfKeyRange(storage::ObjectId object,
                                      storage::Key lo,
                                      storage::Key hi) const;

  RangePartitionTable* range_table(storage::ObjectId object) {
    return objects_[object]->range.get();
  }
  const RangePartitionTable* range_table(storage::ObjectId object) const {
    return objects_[object]->range.get();
  }
  BitmapPartitionTable* bitmap_table(storage::ObjectId object) {
    return objects_[object]->bitmap.get();
  }
  storage::PartitioningKind partitioning(storage::ObjectId object) const {
    return objects_[object]->kind;
  }
  size_t num_objects() const { return objects_.size(); }

  /// Round-robin target selection for appends to physical objects.
  AeuId PickAppendTarget(storage::ObjectId object);

  /// Optional simulated-traffic accounting: flushed bytes are charged to
  /// the route between source and target nodes.
  void set_resource_usage(sim::ResourceUsage* usage) { usage_ = usage; }
  sim::ResourceUsage* resource_usage() const { return usage_; }

 private:
  struct ObjectRouting {
    storage::PartitioningKind kind = storage::PartitioningKind::kRange;
    std::unique_ptr<RangePartitionTable> range;
    std::unique_ptr<BitmapPartitionTable> bitmap;
    std::atomic<uint64_t> append_cursor{0};
  };

  friend class Endpoint;

  std::vector<numa::NodeId> aeu_nodes_;
  RouterConfig config_;
  std::vector<std::unique_ptr<IncomingBufferPair>> mailboxes_;
  std::vector<std::unique_ptr<ObjectRouting>> objects_;
  /// Per-AEU watchdog quarantine flags (read on every flush).
  std::unique_ptr<std::atomic<uint8_t>[]> stalled_;
  sim::ResourceUsage* usage_ = nullptr;
};

}  // namespace eris::routing
