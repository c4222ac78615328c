#include "core/aeu.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/fault_injection.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "durability/wal.h"
#include "numa/pinning.h"
#include "sim/index_model.h"

namespace eris::core {

namespace {

bool IsControlCommand(routing::CommandType t) {
  switch (t) {
    case routing::CommandType::kBalanceRange:
    case routing::CommandType::kBalancePhysical:
    case routing::CommandType::kTransferRequest:
    case routing::CommandType::kInstallPartition:
      return true;
    default:
      return false;
  }
}

/// The AEU whose RunLoopIteration is executing on this thread. Set before
/// the kAeuLoop injection point so hooks (e.g. stall injectors) can gate on
/// Aeu::Current()->id() — and so a hook that blocks there keeps the
/// heartbeat static, which is what the watchdog detects.
thread_local Aeu* t_current_aeu = nullptr;

sim::TreeShape ShapeOf(const storage::Partition& part) {
  sim::TreeShape shape;
  if (const storage::PrefixTree* tree = part.index()) {
    shape.levels = tree->levels();
    shape.fanout = 1u << tree->config().prefix_bits;
    shape.keys = tree->size();
    shape.bytes = tree->memory_bytes();
  } else if (part.hash()) {
    shape.levels = 1;
    shape.fanout = 2;
    shape.keys = part.hash()->size();
    shape.bytes = part.hash()->memory_bytes();
  }
  return shape;
}

}  // namespace

Aeu::Aeu(routing::AeuId id, Engine* engine)
    : engine_(engine),
      id_(id),
      node_(engine->NodeOfAeu(id)),
      endpoint_(&engine->router(), id, engine->NodeOfAeu(id),
                &engine->memory().manager(engine->NodeOfAeu(id))),
      sel_(&engine->memory().manager(engine->NodeOfAeu(id))),
      snapshot_view_(&engine->memory().manager(engine->NodeOfAeu(id))),
      mat_idx_(&engine->memory().manager(engine->NodeOfAeu(id))),
      join_run_(&engine->memory().manager(engine->NodeOfAeu(id))),
      join_out_(&engine->memory().manager(engine->NodeOfAeu(id))),
      join_keys_(&engine->memory().manager(engine->NodeOfAeu(id))) {
  // Objects may be registered while the loop runs (query-layer
  // intermediates): the slot array is sized up front so AddPartition only
  // ever writes one slot and publishes it through num_partitions_. A
  // command can only reference an object after its registration completed,
  // so slot writes are also ordered before command-side reads via the
  // mailbox's release/acquire pair.
  partitions_.resize(routing::Router::kMaxObjects);
  // Dequeue/dispatch scratch carves from the AEU's node-local manager.
  numa::NodeMemoryManager* memory = &engine->memory().manager(node_);
  control_.set_memory(memory);
  scratch_keys_.set_memory(memory);
  scratch_values_.set_memory(memory);
  scratch_kvs_.set_memory(memory);
  scratch_payload_.set_memory(memory);
  transfer_payload_.set_memory(memory);
  wal_scratch_.set_memory(memory);
  lookup_segments_.set_memory(memory);
  pending_keys_.set_memory(memory);
  foreign_keys_.set_memory(memory);
  mine_keys_.set_memory(memory);
  found_.set_memory(memory);
  pending_kvs_.set_memory(memory);
  mine_kvs_.set_memory(memory);
  scan_jobs_.set_memory(memory);
  pipeline_jobs_.set_memory(memory);
  pipeline_fused_.set_memory(memory);
  group_completions_.set_memory(memory);
}

Aeu::~Aeu() = default;

void Aeu::set_wal(durability::WalWriter* wal) {
  wal_ = wal;
  // The group-commit buffer lives behind the AEU's node-local manager, so
  // steady-state logging reuses arena capacity (DESIGN.md §16).
  if (wal_ != nullptr) {
    wal_->set_memory(&engine_->memory().manager(node_));
  }
}

void Aeu::AddPartition(const storage::DataObjectDesc& desc,
                       storage::KeyRange initial_range) {
  uint32_t count = num_partitions_.load(std::memory_order_relaxed);
  ERIS_CHECK_EQ(desc.id, count);
  ERIS_CHECK_LT(count, routing::Router::kMaxObjects);
  uint64_t salt = Mix64((static_cast<uint64_t>(desc.id) << 32) | id_);
  partitions_[count] = std::make_unique<storage::Partition>(
      desc, &engine_->memory().manager(node_), initial_range, salt);
  num_partitions_.store(count + 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Loop
// ---------------------------------------------------------------------------

Aeu* Aeu::Current() { return t_current_aeu; }

bool Aeu::RunLoopIteration() {
  t_current_aeu = this;
  ERIS_INJECT_POINT(kAeuLoop);
  // The heartbeat advances only past the injection point: a hook that
  // blocks the loop leaves the epoch static for the watchdog to see.
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
  ++stats_.iterations;
  uint64_t processed_before = stats_.commands_processed;

  if (!deferred_.empty()) RetryDeferred();
  bool drained = ProcessIncoming();
  // Loop wrap-around: push out whatever the processing stage produced.
  endpoint_.FlushAll();
  // Group commit: every effect record logged this iteration reaches stable
  // storage before its write acknowledgement is delivered (DESIGN.md §14).
  if (wal_ != nullptr) CommitWalAndAck();
  ChargeRoutingCosts();

  bool worked = drained || stats_.commands_processed != processed_before;
  if (worked) {
    idle_iterations_ = 0;
  } else if (++idle_iterations_ == 64) {
    // Idle: use the slack for storage maintenance (paper §6).
    idle_iterations_ = 0;
    RunMaintenance();
  }
  // Retire what was drained only once nothing of it is left in this AEU.
  if (deferred_.empty() && !endpoint_.HasPending()) {
    retired_.store(drained_bytes_, std::memory_order_release);
  }
  return worked;
}

void Aeu::RunMaintenance() {
  uint64_t watermark =
      engine_->snapshots().MinActive(engine_->oracle().ReadTs());
  if (watermark == 0) return;
  ++stats_.maintenance_runs;
  uint32_t n = num_partitions_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < n; ++i) {
    storage::Partition* part = partitions_[i].get();
    storage::MvccColumn* column = part->mvcc_column();
    if (column == nullptr || column->undo_chains() == 0) continue;
    size_t before = column->undo_chains();
    // A version overwritten at ts <= watermark is invisible to every
    // snapshot >= watermark (the oldest one still active).
    column->GarbageCollect(watermark);
    stats_.versions_reclaimed += before - column->undo_chains();
  }
}

bool Aeu::ProcessIncoming() {
  size_t filled = engine_->router().mailbox(id_).Drain(
      [&](std::span<const uint8_t> region) {
        if (region.empty()) return;
        GroupRecords(region);
        ProcessGroups();
      });
  drained_bytes_ += filled;
  return filled > 0;
}

Aeu::Group* Aeu::AppendGroup(storage::ObjectId object,
                             routing::CommandType type) {
  if (groups_used_ == groups_.size()) {
    groups_.emplace_back();
    groups_.back().commands.set_memory(&engine_->memory().manager(node_));
  }
  Group& g = groups_[groups_used_++];
  g.object = object;
  g.type = type;
  g.commands.clear();
  return &g;
}

void Aeu::GroupRecords(std::span<const uint8_t> region) {
  groups_used_ = 0;
  control_.clear();
  size_t pos = 0;
  uint64_t now = 0;  // lazily sampled: at most one clock read per drain
  while (pos + sizeof(routing::CommandHeader) <= region.size()) {
    routing::CommandView view = routing::DecodeCommand(region.data() + pos);
    pos += view.record_bytes();
    ERIS_DCHECK(pos <= region.size()) << "corrupt record stream";
    if (IsControlCommand(view.header.type)) {
      control_.push_back(view);
      continue;
    }
    if (view.header.deadline_ns != 0) {
      if (now == 0) now = MonotonicNanos();
      if (now > view.header.deadline_ns) {
        ExpireCommand(view);
        continue;
      }
    }
    // Injected dequeue-scratch allocation failure: shed the command up
    // front with a typed reason (the waiter's session surfaces it as
    // ResourceExhausted) instead of letting the arena growth abort.
    if (ERIS_INJECT_SHOULD_FAIL(kAeuScratchAlloc)) {
      uint64_t units = routing::CommandUnits(view);
      if (view.header.sink != nullptr) {
        view.header.sink->OnCommandDropped(units,
                                           routing::DropReason::kAllocFailed);
      }
      continue;
    }
    // Group by (object, type): linear scan — the number of distinct groups
    // per drain is tiny.
    Group* group = nullptr;
    for (size_t i = 0; i < groups_used_; ++i) {
      Group& g = groups_[i];
      if (g.object == view.header.object && g.type == view.header.type) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      group = AppendGroup(view.header.object, view.header.type);
    }
    group->commands.push_back(view);
  }
}

void Aeu::ProcessGroups() {
  for (size_t gi = 0; gi < groups_used_; ++gi) {
    Group& g = groups_[gi];
    if (fi::Armed()) FilterPoisoned(&g);
    if (g.commands.empty()) continue;
    Stopwatch watch;
    group_ops_ = 0;
    group_stream_bytes_ = 0;
    group_extra_words_ = 0;
    group_index_visits_ = 0;
    group_modeled_ns_ = 0;
    switch (g.type) {
      case routing::CommandType::kLookupBatch:
        ProcessLookupGroup(g);
        break;
      case routing::CommandType::kInsertBatch:
      case routing::CommandType::kUpsertBatch:
        ProcessWriteGroup(g);
        break;
      case routing::CommandType::kEraseBatch:
        ProcessEraseGroup(g);
        break;
      case routing::CommandType::kAppendBatch:
        ProcessAppendGroup(g);
        break;
      case routing::CommandType::kScanColumn:
        ProcessScanColumnGroup(g);
        break;
      case routing::CommandType::kScanIndexRange:
        ProcessScanIndexGroup(g);
        break;
      case routing::CommandType::kPipeline:
        ProcessPipelineGroup(g);
        break;
      case routing::CommandType::kJoinScatter:
        ProcessJoinScatterGroup(g);
        break;
      case routing::CommandType::kJoinStage:
        ProcessJoinStageGroup(g);
        break;
      case routing::CommandType::kJoinMerge:
        ProcessJoinMergeGroup(g);
        break;
      case routing::CommandType::kFence:
        for (const routing::CommandView& cmd : g.commands) ProcessFence(cmd);
        break;
      default:
        ERIS_CHECK(false) << "unexpected data command "
                          << routing::CommandTypeName(g.type);
    }
    ChargeGroupStream();
    stats_.commands_processed += g.commands.size();
    double exec_ns = engine_->sim_enabled()
                         ? group_modeled_ns_
                         : static_cast<double>(watch.ElapsedNanos());
    RecordGroupMetrics(g.object, group_ops_, exec_ns);
    for (const Completion& c : group_completions_) {
      c.sink->OnCommandComplete(c.units);
    }
    group_completions_.clear();
  }
  // Balancing and transfer commands run after the data commands (the last
  // stage of the AEU loop in Figure 3).
  for (const routing::CommandView& cmd : control_) {
    switch (cmd.header.type) {
      case routing::CommandType::kBalanceRange:
        HandleBalanceRange(cmd);
        break;
      case routing::CommandType::kBalancePhysical:
        HandleBalancePhysical(cmd);
        break;
      case routing::CommandType::kTransferRequest:
        HandleTransferRequest(cmd);
        break;
      case routing::CommandType::kInstallPartition:
        HandleInstall(cmd);
        break;
      default:
        ERIS_CHECK(false);
    }
    ++stats_.commands_processed;
  }
}

void Aeu::RetryDeferred() {
  std::vector<std::vector<uint8_t>> pending;
  pending.swap(deferred_);
  uint64_t now = 0;
  for (const std::vector<uint8_t>& record : pending) {
    routing::CommandView view = routing::DecodeCommand(record.data());
    if (!IsControlCommand(view.header.type) && view.header.deadline_ns != 0) {
      if (now == 0) now = MonotonicNanos();
      if (now > view.header.deadline_ns) {
        ExpireCommand(view);
        continue;
      }
    }
    groups_used_ = 0;
    control_.clear();
    if (IsControlCommand(view.header.type)) {
      control_.push_back(view);
    } else {
      AppendGroup(view.header.object, view.header.type)
          ->commands.push_back(view);
    }
    ProcessGroups();
  }
}

void Aeu::ExpireCommand(const routing::CommandView& cmd) {
  uint64_t units = routing::CommandUnits(cmd);
  ++stats_.commands_expired;
  stats_.units_expired += units;
  if (cmd.header.sink != nullptr) {
    cmd.header.sink->OnCommandDropped(units, routing::DropReason::kExpired);
  }
}

void Aeu::FilterPoisoned(Group* g) {
  size_t kept = 0;
  for (size_t i = 0; i < g->commands.size(); ++i) {
    const routing::CommandView& cmd = g->commands[i];
    current_command_ = &cmd;
    bool poisoned = false;
    try {
      ERIS_INJECT_POINT(kAeuProcess);
    } catch (...) {
      poisoned = true;
    }
    current_command_ = nullptr;
    if (poisoned) {
      HandlePoisoned(cmd);
    } else {
      g->commands[kept++] = cmd;
    }
  }
  g->commands.resize(kept);
}

void Aeu::HandlePoisoned(const routing::CommandView& cmd) {
  // Bounded dead-letter log: quarantine keeps the header + payload copy of
  // the first kMaxDeadLetters poison commands for post-mortem inspection.
  constexpr size_t kMaxDeadLetters = 1024;
  uint64_t key = PoisonKey(cmd);
  uint32_t attempts = ++poison_attempts_[key];
  if (attempts <= engine_->options().overload.max_command_retries) {
    DeferCommand(cmd.header, {cmd.payload, cmd.header.payload_bytes});
    return;
  }
  poison_attempts_.erase(key);
  ++stats_.commands_quarantined;
  if (dead_letters_.size() < kMaxDeadLetters) {
    dead_letters_.push_back(DeadLetter{
        cmd.header, std::vector<uint8_t>(
                        cmd.payload, cmd.payload + cmd.header.payload_bytes)});
  }
  uint64_t units = routing::CommandUnits(cmd);
  if (cmd.header.sink != nullptr) {
    cmd.header.sink->OnCommandDropped(units,
                                      routing::DropReason::kQuarantined);
  }
}

uint64_t Aeu::PoisonKey(const routing::CommandView& cmd) {
  uint64_t h = Mix64((static_cast<uint64_t>(cmd.header.object) << 8) |
                     static_cast<uint64_t>(cmd.header.type));
  h = Mix64(h ^ cmd.header.payload_bytes);
  h = Mix64(h ^ reinterpret_cast<uintptr_t>(cmd.header.sink));
  size_t i = 0;
  for (; i + 8 <= cmd.header.payload_bytes; i += 8) {
    uint64_t w;
    std::memcpy(&w, cmd.payload + i, 8);
    h = Mix64(h ^ w);
  }
  if (i < cmd.header.payload_bytes) {
    uint64_t tail = 0;
    std::memcpy(&tail, cmd.payload + i, cmd.header.payload_bytes - i);
    h = Mix64(h ^ tail);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Keyed command helpers
// ---------------------------------------------------------------------------

bool Aeu::InPendingRange(storage::ObjectId object, storage::Key key) const {
  for (const PendingFetch& p : pending_fetches_) {
    if (p.object == object && p.range.Contains(key)) return true;
  }
  return false;
}

bool Aeu::RangeOverlapsPending(storage::ObjectId object, storage::Key lo,
                               storage::Key hi) const {
  for (const PendingFetch& p : pending_fetches_) {
    if (p.object != object) continue;
    storage::Key p_hi = p.range.hi;
    if (lo < p_hi && p.range.lo < hi) return true;
  }
  return false;
}

void Aeu::DeferCommand(const routing::CommandHeader& header,
                       std::span<const uint8_t> payload) {
  std::vector<uint8_t> record;
  routing::EncodeCommand(header, payload, &record);
  deferred_.push_back(std::move(record));
  ++stats_.commands_deferred;
}

void Aeu::ProcessLookupGroup(const Group& g) {
  storage::Partition* part = partition(g.object);
  const LookupPathOptions& lp = engine_->options().lookup;
  lookup_segments_.clear();
  scratch_keys_.clear();  // "mine" keys of every command in the group
  for (const routing::CommandView& cmd : g.commands) {
    std::span<const storage::Key> keys = cmd.PayloadAs<storage::Key>();
    pending_keys_.clear();
    foreign_keys_.clear();
    const size_t offset = scratch_keys_.size();
    // Classify keys: mine / in-flight (deferred) / no longer mine (forward).
    for (storage::Key k : keys) {
      // Pending check first: after a balancing command the declared range
      // already covers data that is still in flight toward this AEU.
      if (InPendingRange(g.object, k)) {
        pending_keys_.push_back(k);
      } else if (part->range().Contains(k)) {
        scratch_keys_.push_back(k);
      } else {
        foreign_keys_.push_back(k);
      }
    }
    if (scratch_keys_.size() > offset) {
      lookup_segments_.push_back(
          {cmd.header.sink, static_cast<uint32_t>(offset),
           static_cast<uint32_t>(scratch_keys_.size() - offset)});
    }
    if (!foreign_keys_.empty()) {
      // The partitioning moved under this command: forward to the current
      // owners (completion units travel with the forwarded keys, and the
      // forwarded record inherits the original deadline).
      endpoint_.set_deadline_ns(cmd.header.deadline_ns);
      endpoint_.SendLookupBatch(g.object, foreign_keys_, cmd.header.sink);
      endpoint_.set_deadline_ns(0);
      ++stats_.commands_forwarded;
    }
    if (!pending_keys_.empty()) {
      DeferCommand(cmd.header,
                   {reinterpret_cast<const uint8_t*>(pending_keys_.data()),
                    pending_keys_.size() * sizeof(storage::Key)});
    }
  }
  if (scratch_keys_.empty()) return;
  scratch_values_.resize(scratch_keys_.size());
  found_.resize(scratch_keys_.size());
  storage::BatchLookupStats probe_stats;
  auto probe = [&](std::span<const storage::Key> keys, storage::Value* out,
                   bool* found) {
    if (lp.pipelined_descent) {
      // Batched probe: the probes descend together with prefetching — the
      // latency-hiding batch operation of the paper's Section 3.1.
      if (const storage::PrefixTree* tree = part->index()) {
        tree->BatchLookup(keys, out, found, &probe_stats);
        return;
      }
      if (const storage::HashTable* hash = part->hash()) {
        hash->BatchLookup(keys, out, found, &probe_stats);
        return;
      }
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      std::optional<storage::Value> v = part->Lookup(keys[i]);
      found[i] = v.has_value();
      out[i] = v.value_or(0);
    }
  };
  std::span<const storage::Key> all_keys{scratch_keys_};
  if (lp.coalesce_commands) {
    // One descent over the whole group's keys: commands that arrived in the
    // same dequeue window share prefetch slots and upper-level cache lines
    // (mirrors scan-group coalescing for point reads).
    probe(all_keys, scratch_values_.data(), found_.data());
    if (lookup_segments_.size() > 1) {
      stats_.lookups_coalesced += lookup_segments_.size() - 1;
    }
  } else {
    for (const LookupSegment& s : lookup_segments_) {
      probe(all_keys.subspan(s.offset, s.len),
            scratch_values_.data() + s.offset, found_.data() + s.offset);
    }
  }
  for (const LookupSegment& s : lookup_segments_) {
    if (s.sink == nullptr) continue;
    s.sink->OnLookupBatch(
        all_keys.subspan(s.offset, s.len),
        std::span<const storage::Value>{scratch_values_}.subspan(s.offset,
                                                                 s.len),
        {found_.data() + s.offset, s.len});
    CompleteAfterGroup(s.sink, s.len);
  }
  group_ops_ += scratch_keys_.size();
  ChargeLookupOps(g.object, group_ops_, probe_stats.nodes_touched);
}

void Aeu::ProcessWriteGroup(const Group& g) {
  storage::Partition* part = partition(g.object);
  const bool overwrite = g.type == routing::CommandType::kUpsertBatch;
  for (const routing::CommandView& cmd : g.commands) {
    std::span<const routing::KeyValue> kvs =
        cmd.PayloadAs<routing::KeyValue>();
    routing::ResultSink* sink = cmd.header.sink;
    if (wal_ != nullptr && wal_->sealed()) {
      // Fail-stop: the log can never make this write durable. Drop the
      // whole command (nothing applied, nothing forwarded) with a typed
      // reason covering all of its units so the waiter completes.
      if (sink != nullptr) {
        sink->OnCommandDropped(kvs.size(), routing::DropReason::kWalSealed);
      }
      stats_.wal_drops += kvs.size();
      continue;
    }
    // Injected version/pool allocation failure: shed the whole command
    // before anything is logged or applied (recoverable — the waiter's
    // session surfaces a typed ResourceExhausted).
    if (ERIS_INJECT_SHOULD_FAIL(kMvccVersionAlloc)) {
      if (sink != nullptr) {
        sink->OnCommandDropped(kvs.size(), routing::DropReason::kAllocFailed);
      }
      continue;
    }
    scratch_kvs_.clear();  // foreign
    pending_kvs_.clear();
    mine_kvs_.clear();
    for (const routing::KeyValue& kv : kvs) {
      if (InPendingRange(g.object, kv.key)) {
        pending_kvs_.push_back(kv);
      } else if (part->range().Contains(kv.key)) {
        mine_kvs_.push_back(kv);
      } else {
        scratch_kvs_.push_back(kv);
      }
    }
    // Write-ahead: the locally applied subset is logged before it touches
    // the partition (foreign/pending keys are logged by their eventual
    // applier, so each AEU's log replays independently).
    if (wal_ != nullptr && !mine_kvs_.empty()) {
      Status st = WalLogEffect(
          g.type, g.object,
          {reinterpret_cast<const uint8_t*>(mine_kvs_.data()),
           mine_kvs_.size() * sizeof(routing::KeyValue)});
      if (st.IsResourceExhausted()) {
        // Group-buffer allocation failed (injected): nothing was logged,
        // the log is not sealed — shed the local subset so nothing is
        // applied-but-unlogged. Foreign/pending splits still travel.
        if (sink != nullptr) {
          sink->OnCommandDropped(mine_kvs_.size(),
                                 routing::DropReason::kAllocFailed);
        }
        mine_kvs_.clear();
      }
    }
    uint64_t applied = 0;
    for (const routing::KeyValue& kv : mine_kvs_) {
      bool was_new = overwrite ? part->Upsert(kv.key, kv.value)
                               : part->Insert(kv.key, kv.value);
      applied += was_new ? 1 : 0;
    }
    uint64_t mine = mine_kvs_.size();
    if (mine > 0 && sink != nullptr) AckWrite(sink, applied, mine);
    group_ops_ += mine;
    if (!scratch_kvs_.empty()) {
      endpoint_.set_deadline_ns(cmd.header.deadline_ns);
      endpoint_.SendWriteBatch(g.type, g.object, scratch_kvs_, sink);
      endpoint_.set_deadline_ns(0);
      ++stats_.commands_forwarded;
    }
    if (!pending_kvs_.empty()) {
      DeferCommand(cmd.header,
                   {reinterpret_cast<const uint8_t*>(pending_kvs_.data()),
                    pending_kvs_.size() * sizeof(routing::KeyValue)});
    }
  }
  ChargePointOps(g.object, group_ops_, /*is_write=*/true);
}

void Aeu::ProcessEraseGroup(const Group& g) {
  storage::Partition* part = partition(g.object);
  for (const routing::CommandView& cmd : g.commands) {
    std::span<const storage::Key> keys = cmd.PayloadAs<storage::Key>();
    routing::ResultSink* sink = cmd.header.sink;
    if (wal_ != nullptr && wal_->sealed()) {
      if (sink != nullptr) {
        sink->OnCommandDropped(keys.size(), routing::DropReason::kWalSealed);
      }
      stats_.wal_drops += keys.size();
      continue;
    }
    scratch_keys_.clear();
    pending_keys_.clear();
    mine_keys_.clear();
    for (storage::Key k : keys) {
      if (InPendingRange(g.object, k)) {
        pending_keys_.push_back(k);
      } else if (part->range().Contains(k)) {
        mine_keys_.push_back(k);
      } else {
        scratch_keys_.push_back(k);
      }
    }
    if (wal_ != nullptr && !mine_keys_.empty()) {
      Status st = WalLogEffect(
          g.type, g.object,
          {reinterpret_cast<const uint8_t*>(mine_keys_.data()),
           mine_keys_.size() * sizeof(storage::Key)});
      if (st.IsResourceExhausted()) {
        if (sink != nullptr) {
          sink->OnCommandDropped(mine_keys_.size(),
                                 routing::DropReason::kAllocFailed);
        }
        mine_keys_.clear();
      }
    }
    uint64_t applied = 0;
    for (storage::Key k : mine_keys_) applied += part->Erase(k) ? 1 : 0;
    uint64_t mine = mine_keys_.size();
    if (mine > 0 && sink != nullptr) AckWrite(sink, applied, mine);
    group_ops_ += mine;
    if (!scratch_keys_.empty()) {
      endpoint_.set_deadline_ns(cmd.header.deadline_ns);
      endpoint_.SendEraseBatch(g.object, scratch_keys_, sink);
      endpoint_.set_deadline_ns(0);
      ++stats_.commands_forwarded;
    }
    if (!pending_keys_.empty()) {
      DeferCommand(cmd.header,
                   {reinterpret_cast<const uint8_t*>(pending_keys_.data()),
                    pending_keys_.size() * sizeof(storage::Key)});
    }
  }
  ChargePointOps(g.object, group_ops_, /*is_write=*/true);
}

void Aeu::ProcessAppendGroup(const Group& g) {
  storage::Partition* part = partition(g.object);
  uint64_t total_values = 0;
  for (const routing::CommandView& cmd : g.commands) {
    std::span<const storage::Value> values =
        cmd.PayloadAs<storage::Value>();
    if (wal_ != nullptr && wal_->sealed()) {
      if (cmd.header.sink != nullptr) {
        cmd.header.sink->OnCommandDropped(1, routing::DropReason::kWalSealed);
      }
      ++stats_.wal_drops;
      continue;
    }
    // Injected MVCC version-pool allocation failure: shed before logging
    // or appending (recoverable, typed).
    if (ERIS_INJECT_SHOULD_FAIL(kMvccVersionAlloc)) {
      if (cmd.header.sink != nullptr) {
        cmd.header.sink->OnCommandDropped(1,
                                          routing::DropReason::kAllocFailed);
      }
      continue;
    }
    if (wal_ != nullptr && !values.empty()) {
      Status st = WalLogEffect(
          routing::CommandType::kAppendBatch, g.object,
          {reinterpret_cast<const uint8_t*>(values.data()),
           values.size() * sizeof(storage::Value)});
      if (st.IsResourceExhausted()) {
        if (cmd.header.sink != nullptr) {
          cmd.header.sink->OnCommandDropped(
              1, routing::DropReason::kAllocFailed);
        }
        continue;
      }
    }
    uint64_t ts = engine_->oracle().NextWriteTs();
    for (storage::Value v : values) part->ColumnAppend(v, ts);
    total_values += values.size();
    if (cmd.header.sink != nullptr) {
      AckWrite(cmd.header.sink, values.size(), 1);
    }
  }
  group_ops_ += total_values;
  group_stream_bytes_ += total_values * sizeof(storage::Value);
  engine_->monitor().RecordSize(id_, g.object, part->tuple_count(),
                                part->memory_bytes());
}

void Aeu::ProcessScanColumnGroup(const Group& g) {
  storage::Partition* part = partition(g.object);
  storage::MvccColumn* column = part->mvcc_column();
  ERIS_CHECK(column != nullptr) << "column scan on keyed object";
  scan_jobs_.clear();
  uint64_t now = 0;
  for (const routing::CommandView& cmd : g.commands) {
    // Re-checked at coalescing time: an expired member is dropped here so
    // the shared pass extent (max visible prefix) honors the earliest
    // deadline among the surviving jobs.
    if (cmd.header.deadline_ns != 0) {
      if (now == 0) now = MonotonicNanos();
      if (now > cmd.header.deadline_ns) {
        ExpireCommand(cmd);
        continue;
      }
    }
    routing::ScanParams p = cmd.PayloadAs<routing::ScanParams>()[0];
    ScanJob job;
    job.params = p;
    job.sink = cmd.header.sink;
    job.visible = p.snapshot_ts == ~uint64_t{0}
                      ? column->size()
                      : column->VisibleSize(p.snapshot_ts);
    scan_jobs_.push_back(job);
  }
  // Scan sharing: one physical pass answers every coalesced command —
  // whatever its output kind — with MVCC snapshots preserving each
  // command's isolation. Segment-at-a-time: each 512 KiB segment is
  // streamed once and every job's kernel runs over it while it is
  // cache-resident, clamped to the job's visible prefix.
  const bool fast = column->undo_chains() == 0;
  uint64_t max_visible = 0;
  for (const ScanJob& j : scan_jobs_) max_visible = std::max(max_visible, j.visible);
  const storage::ColumnStore& col = column->column();
  constexpr uint64_t kCap = storage::ColumnStore::kSegmentCapacity;
  uint64_t streamed_bytes = 0;
  for (size_t s = 0; s * kCap < max_visible; ++s) {
    std::span<const storage::Value> seg = col.Segment(s);
    const storage::TupleId base = s * kCap;
    const storage::ZoneMap& z = col.zone(s);
    uint64_t seg_streamed = 0;
    for (ScanJob& j : scan_jobs_) {
      if (base >= j.visible) continue;
      uint64_t m = std::min<uint64_t>(seg.size(), j.visible - base);
      const storage::Value* data = seg.data();
      bool covered = false;
      if (fast) {
        // Zone maps let selective jobs skip whole segments without
        // touching their payload.
        if (z.Excludes(j.params.lo, j.params.hi)) {
          ++stats_.zone_segments_skipped;
          continue;
        }
        covered = z.CoveredBy(j.params.lo, j.params.hi);
      } else {
        // MVCC fallback: a versioned column reads the job's snapshot of
        // the segment through the undo chains, then runs the same kernels.
        snapshot_view_.resize(m);
        for (uint64_t i = 0; i < m; ++i) {
          snapshot_view_[i] = column->Read(base + i, j.params.snapshot_ts);
        }
        data = snapshot_view_.data();
      }
      ScanSegment(&j, data, m, covered);
      seg_streamed = std::max(seg_streamed, m * sizeof(storage::Value));
    }
    streamed_bytes += seg_streamed;
  }
  for (ScanJob& j : scan_jobs_) {
    if (j.sink == nullptr) continue;
    if (j.params.output == routing::ScanOutput::kStats) {
      j.sink->OnScanStats(j.rows, j.sum, j.min, j.max);
    } else {
      j.sink->OnScanPartial(j.rows, j.sum);
      if (j.routed > 0) j.sink->OnScanRouted(j.routed);
    }
    CompleteAfterGroup(j.sink, 1);
  }
  if (scan_jobs_.size() > 1) stats_.scans_coalesced += scan_jobs_.size() - 1;
  group_ops_ += scan_jobs_.size();
  engine_->monitor().RecordSize(id_, g.object, part->tuple_count(),
                                part->memory_bytes());
  // Segments every job skipped via its zone map are never streamed, so
  // they cost neither bandwidth nor time in the model. The shared pass
  // streams the column once regardless of the number of coalesced
  // commands (the benefit of scan sharing); extra predicates cost a
  // little CPU each.
  group_stream_bytes_ += streamed_bytes;
  if (!scan_jobs_.empty()) {
    group_extra_words_ += streamed_bytes / sizeof(storage::Value) *
                          (scan_jobs_.size() - 1);
  }
}

void Aeu::ScanSegment(ScanJob* job, const storage::Value* data, uint64_t m,
                      bool covered) {
  ScanJob& j = *job;
  const routing::ScanParams& p = j.params;
  switch (p.output) {
    case routing::ScanOutput::kSum: {
      if (covered) {
        j.sum += simd::SumAll(data, m);
        j.rows += m;
        return;
      }
      uint64_t sum = 0;
      uint64_t rows = 0;
      simd::ScanSumCount(data, m, p.lo, p.hi, &sum, &rows);
      j.sum += sum;
      j.rows += rows;
      return;
    }
    case routing::ScanOutput::kStats: {
      // Zone maps are only bounds (Set widens them), so min and max come
      // from the values even when the segment is covered.
      simd::ScanStatsResult r = simd::ScanStats(data, m, p.lo, p.hi);
      j.rows += r.count;
      j.sum += r.sum;
      j.min = std::min(j.min, r.min);
      j.max = std::max(j.max, r.max);
      return;
    }
    case routing::ScanOutput::kAppendTo:
    case routing::ScanOutput::kLookupIn: {
      // Route this segment's matches onward right away: appends land in
      // the destination owners' local memory (NUMA-local
      // materialization), lookups probe the index owners.
      std::span<const storage::Value> matches{data, m};
      if (!covered) {
        sel_.resize(m);
        uint32_t cnt = simd::FilterIndices(data, m, p.lo, p.hi, sel_.data());
        scratch_values_.resize(cnt);
        for (uint32_t i = 0; i < cnt; ++i) scratch_values_[i] = data[sel_[i]];
        matches = scratch_values_;
      }
      if (matches.empty()) return;
      j.rows += matches.size();
      j.sum += simd::SumAll(matches.data(), matches.size());
      j.routed += p.output == routing::ScanOutput::kAppendTo
                      ? endpoint_.SendAppendBatch(p.target_object, matches,
                                                  p.target_sink)
                      : endpoint_.SendLookupBatch(p.target_object, matches,
                                                  p.target_sink);
      return;
    }
  }
}

void Aeu::ProcessScanIndexGroup(const Group& g) {
  storage::Partition* part = partition(g.object);
  uint64_t visited_total = 0;
  for (const routing::CommandView& cmd : g.commands) {
    routing::IndexScanParams p =
        cmd.PayloadAs<routing::IndexScanParams>()[0];
    if (RangeOverlapsPending(g.object, p.key_lo, p.key_hi)) {
      DeferCommand(cmd.header, {cmd.payload, cmd.header.payload_bytes});
      continue;
    }
    uint64_t rows = 0;
    uint64_t sum = 0;
    uint64_t visited = part->IndexRangeScan(
        p.key_lo, p.key_hi, [&](storage::Key, storage::Value v) {
          if (v >= p.scan.lo && v <= p.scan.hi) {
            ++rows;
            sum += v;
          }
        });
    visited_total += visited;
    if (cmd.header.sink != nullptr) {
      cmd.header.sink->OnScanPartial(rows, sum);
      CompleteAfterGroup(cmd.header.sink, 1);
    }
  }
  group_ops_ += visited_total;
  group_index_visits_ += visited_total;
  group_stream_bytes_ +=
      visited_total * (sizeof(storage::Key) + sizeof(storage::Value));
}

// ---------------------------------------------------------------------------
// Fused query pipelines & MPSM sort-merge join (DESIGN.md §13)
// ---------------------------------------------------------------------------

void Aeu::ProcessPipelineGroup(const Group& g) {
  // g.object is the driving filter column; every job of the group shares
  // it (the dequeue grouping that lets pipelines scan-share the driving
  // column like kScanColumn groups do).
  storage::Partition* part = partition(g.object);
  storage::MvccColumn* f1 = part->mvcc_column();
  ERIS_CHECK(f1 != nullptr) << "pipeline on keyed object";
  pipeline_jobs_.clear();
  uint64_t now = 0;
  for (const routing::CommandView& cmd : g.commands) {
    if (cmd.header.deadline_ns != 0) {
      if (now == 0) now = MonotonicNanos();
      if (now > cmd.header.deadline_ns) {
        ExpireCommand(cmd);
        continue;
      }
    }
    PipelineJob job;
    job.p = cmd.PayloadAs<routing::PipelineParams>()[0];
    job.sink = cmd.header.sink;
    if (job.p.filter2_object != routing::kNoPipelineColumn) {
      job.f2 = partition(job.p.filter2_object)->mvcc_column();
      ERIS_CHECK(job.f2 != nullptr) << "pipeline filter on keyed object";
    }
    job.agg = partition(job.p.agg_object)->mvcc_column();
    ERIS_CHECK(job.agg != nullptr) << "pipeline aggregate on keyed object";
    // Visible prefix: the minimum over the group's member columns. The
    // group is co-partitioned, so the members agree except for straggler
    // rows of concurrent appends, which no snapshot of the pipeline sees.
    auto vis = [&](const storage::MvccColumn* c) {
      return job.p.snapshot_ts == ~uint64_t{0} ? c->size()
                                               : c->VisibleSize(job.p.snapshot_ts);
    };
    job.visible = vis(f1);
    job.visible = std::min(job.visible, vis(job.agg));
    if (job.f2 != nullptr) job.visible = std::min(job.visible, vis(job.f2));
    job.fast = f1->undo_chains() == 0 && job.agg->undo_chains() == 0 &&
               (job.f2 == nullptr || job.f2->undo_chains() == 0);
    pipeline_jobs_.push_back(job);
  }

  const storage::ColumnStore& c1 = f1->column();
  constexpr uint64_t kCap = storage::ColumnStore::kSegmentCapacity;
  uint64_t f1_bytes = 0;   // driving column, streamed once per segment
  uint64_t f2_bytes = 0;   // refining filter gathers (per job)
  uint64_t agg_bytes = 0;  // aggregate gathers (per job)

  // --- fused, vectorized path: one pass, selection vectors in cache ---
  pipeline_fused_.clear();
  uint64_t max_visible = 0;
  for (PipelineJob& j : pipeline_jobs_) {
    if (j.fast && (j.p.flags & routing::kPipelineFused) != 0) {
      pipeline_fused_.push_back(&j);
      max_visible = std::max(max_visible, j.visible);
      ++stats_.pipelines_fused;
    }
  }
  for (size_t s = 0; s * kCap < max_visible; ++s) {
    std::span<const storage::Value> seg1 = c1.Segment(s);
    const storage::TupleId base = s * kCap;
    const storage::ZoneMap& z1 = c1.zone(s);
    uint64_t seg_streamed = 0;
    for (PipelineJob* jp : pipeline_fused_) {
      PipelineJob& j = *jp;
      if (base >= j.visible) continue;
      uint64_t m = std::min<uint64_t>(seg1.size(), j.visible - base);
      // Zone-map pruning runs before the filter kernel: an excluded
      // segment costs only its zone-map read.
      if (z1.Excludes(j.p.lo, j.p.hi)) {
        ++stats_.pipeline_segments_pruned;
        continue;
      }
      // Operator 1 — filter: selection vector of matching positions.
      // `full` short-circuits a fully covered segment (identity selection).
      bool full = z1.CoveredBy(j.p.lo, j.p.hi);
      uint32_t cnt = static_cast<uint32_t>(m);
      if (!full) {
        sel_.resize(m);
        cnt = simd::FilterIndices(seg1.data(), m, j.p.lo, j.p.hi, sel_.data());
        seg_streamed = std::max<uint64_t>(seg_streamed,
                                          m * sizeof(storage::Value));
      }
      if (cnt == 0) continue;
      // Operator 2 — refining filter over the carried selection vector.
      if (j.f2 != nullptr) {
        const storage::ColumnStore& c2 = j.f2->column();
        std::span<const storage::Value> seg2 = c2.Segment(s);
        const storage::ZoneMap& z2 = c2.zone(s);
        if (z2.Excludes(j.p.lo2, j.p.hi2)) {
          ++stats_.pipeline_segments_pruned;
          continue;
        }
        if (!z2.CoveredBy(j.p.lo2, j.p.hi2)) {
          if (full) {
            sel_.resize(m);
            cnt = simd::FilterIndices(seg2.data(), m, j.p.lo2, j.p.hi2,
                                      sel_.data());
            f2_bytes += m * sizeof(storage::Value);
            full = false;
          } else {
            f2_bytes += cnt * sizeof(storage::Value);
            cnt = simd::FilterIndicesSel(seg2.data(), sel_.data(), cnt,
                                         j.p.lo2, j.p.hi2, sel_.data());
          }
          if (cnt == 0) continue;
        }
      }
      // Operator 3 — aggregate: gather-sum through the selection vector.
      const storage::ColumnStore& ca = j.agg->column();
      std::span<const storage::Value> sega = ca.Segment(s);
      if (full) {
        j.sum += simd::SumAll(sega.data(), m);
        j.rows += m;
        agg_bytes += m * sizeof(storage::Value);
      } else {
        j.sum += simd::GatherSumSel(sega.data(), sel_.data(), cnt);
        j.rows += cnt;
        agg_bytes += cnt * sizeof(storage::Value);
      }
    }
    f1_bytes += seg_streamed;
  }

  // --- operator-at-a-time baseline (the fusion ablation): one full pass
  // per operator, a materialized intermediate index vector, no zone maps ---
  for (PipelineJob& j : pipeline_jobs_) {
    if (!j.fast || (j.p.flags & routing::kPipelineFused) != 0) continue;
    ++stats_.pipelines_baseline;
    mat_idx_.resize(j.visible);
    uint64_t cnt = 0;
    for (size_t s = 0; s * kCap < j.visible; ++s) {
      std::span<const storage::Value> seg = c1.Segment(s);
      const storage::TupleId base = s * kCap;
      uint64_t m = std::min<uint64_t>(seg.size(), j.visible - base);
      cnt += simd::ScanCollect(seg.data(), m, j.p.lo, j.p.hi, base,
                               mat_idx_.data() + cnt);
    }
    // Full column pass + writing the materialized index vector.
    f1_bytes += j.visible * sizeof(storage::Value) + cnt * sizeof(uint64_t);
    if (j.f2 != nullptr) {
      const storage::ColumnStore& c2 = j.f2->column();
      uint64_t kept = 0;
      f2_bytes += 2 * cnt * sizeof(uint64_t);  // reread indices + gather
      for (uint64_t i = 0; i < cnt; ++i) {
        uint64_t idx = mat_idx_[i];
        storage::Value v = c2.Segment(idx / kCap)[idx % kCap];
        if (v >= j.p.lo2 && v <= j.p.hi2) mat_idx_[kept++] = idx;
      }
      f2_bytes += kept * sizeof(uint64_t);  // rewrite the survivors
      cnt = kept;
    }
    const storage::ColumnStore& ca = j.agg->column();
    agg_bytes += 2 * cnt * sizeof(uint64_t);
    for (uint64_t i = 0; i < cnt; ++i) {
      uint64_t idx = mat_idx_[i];
      j.sum += ca.Segment(idx / kCap)[idx % kCap];
    }
    j.rows = cnt;
  }

  // --- MVCC fallback: versioned member columns read tuple-at-a-time ---
  for (PipelineJob& j : pipeline_jobs_) {
    if (j.fast) continue;
    for (storage::TupleId tid = 0; tid < j.visible; ++tid) {
      storage::Value v1 = f1->Read(tid, j.p.snapshot_ts);
      if (v1 < j.p.lo || v1 > j.p.hi) continue;
      if (j.f2 != nullptr) {
        storage::Value v2 = j.f2->Read(tid, j.p.snapshot_ts);
        if (v2 < j.p.lo2 || v2 > j.p.hi2) continue;
      }
      ++j.rows;
      j.sum += j.agg->Read(tid, j.p.snapshot_ts);
    }
    uint64_t cols = 2 + (j.f2 != nullptr ? 1 : 0);
    f1_bytes += j.visible * sizeof(storage::Value) * cols;
  }

  for (PipelineJob& j : pipeline_jobs_) {
    if (j.sink != nullptr) {
      j.sink->OnScanPartial(j.rows, j.sum);
      CompleteAfterGroup(j.sink, 1);
    }
  }
  if (pipeline_fused_.size() > 1) stats_.scans_coalesced += pipeline_fused_.size() - 1;
  stats_.pipeline_filter_bytes += f1_bytes;
  stats_.pipeline_filter2_bytes += f2_bytes;
  stats_.pipeline_agg_bytes += agg_bytes;
  group_ops_ += pipeline_jobs_.size();
  group_stream_bytes_ += f1_bytes + f2_bytes + agg_bytes;
}

void Aeu::BuildLocalRun(storage::ObjectId object,
                        routing::QueryArenaVec<routing::KeyValue>* out) {
  out->clear();
  storage::Partition* part = partition(object);
  const storage::KeyRange& r = part->range();
  part->IndexRangeScan(r.lo, r.hi, [&](storage::Key k, storage::Value v) {
    out->push_back(routing::KeyValue{k, v});
  });
  if (part->index() == nullptr) {
    // Hash containers scan unordered: the MPSM in-place local sort.
    std::sort(out->begin(), out->end(),
              [](const routing::KeyValue& a, const routing::KeyValue& b) {
                return a.key < b.key;
              });
    ++stats_.join_runs_sorted;
  }
}

Aeu::JoinStage* Aeu::FindOrCreateStage(uint64_t join_id) {
  JoinStage* free_slot = nullptr;
  for (auto& s : join_stages_) {
    if (s->active && s->join_id == join_id) return s.get();
    if (!s->active && free_slot == nullptr) free_slot = s.get();
  }
  if (free_slot == nullptr) {
    join_stages_.push_back(
        std::make_unique<JoinStage>(&engine_->memory().manager(node_)));
    free_slot = join_stages_.back().get();
  }
  free_slot->join_id = join_id;
  free_slot->active = true;
  free_slot->entries.clear();
  return free_slot;
}

bool Aeu::JoinAlreadyMerged(uint64_t join_id) const {
  if (join_id == 0) return false;
  for (uint64_t id : merged_join_ids_) {
    if (id == join_id) return true;
  }
  return false;
}

void Aeu::ProcessJoinScatterGroup(const Group& g) {
  for (const routing::CommandView& cmd : g.commands) {
    routing::MergeJoinParams p = cmd.PayloadAs<routing::MergeJoinParams>()[0];
    if (p.strategy == routing::JoinStrategy::kSharedHash) {
      // Shared-hash baseline: every local R key becomes a routed lookup
      // into the hash-partitioned S — probe traffic crosses links
      // uniformly, the cost MPSM's range alignment avoids.
      BuildLocalRun(p.r_object, &join_run_);
      join_keys_.clear();
      for (const routing::KeyValue& kv : join_run_) {
        join_keys_.push_back(kv.key);
      }
      if (!join_keys_.empty()) {
        endpoint_.set_deadline_ns(cmd.header.deadline_ns);
        endpoint_.SendLookupBatch(p.s_object, join_keys_, p.result_sink);
        endpoint_.set_deadline_ns(0);
      }
      if (cmd.header.sink != nullptr) {
        cmd.header.sink->OnScanPartial(join_run_.size(), 0);
        CompleteAfterGroup(cmd.header.sink, 1);
      }
    } else {
      // MPSM scatter: sort the local S run in place, keep the key ranges
      // this AEU also owns on the R side, exchange only the ranges that
      // straddle R's partition boundaries.
      BuildLocalRun(p.s_object, &join_run_);
      storage::Partition* rpart = partition(p.r_object);
      join_out_.clear();
      JoinStage* stage = nullptr;
      uint64_t kept = 0;
      for (const routing::KeyValue& kv : join_run_) {
        if (rpart->range().Contains(kv.key)) {
          if (stage == nullptr) stage = FindOrCreateStage(p.join_id);
          stage->entries.push_back(kv);
          ++kept;
        } else {
          join_out_.push_back(kv);
        }
      }
      stats_.join_entries_local += kept;
      stats_.join_entries_exchanged += join_out_.size();
      if (!join_out_.empty()) {
        routing::JoinStageParams sp;
        sp.join_id = p.join_id;
        sp.result_sink = p.result_sink;
        endpoint_.set_deadline_ns(cmd.header.deadline_ns);
        endpoint_.SendJoinStage(p.r_object, sp, join_out_, nullptr);
        endpoint_.set_deadline_ns(0);
      }
      if (cmd.header.sink != nullptr) {
        cmd.header.sink->OnScanPartial(join_run_.size(), 0);
        CompleteAfterGroup(cmd.header.sink, 1);
      }
    }
    group_stream_bytes_ += join_run_.size() * sizeof(routing::KeyValue);
  }
  group_ops_ += g.commands.size();
}

void Aeu::ProcessJoinStageGroup(const Group& g) {
  for (const routing::CommandView& cmd : g.commands) {
    routing::JoinStageParams sp;
    std::memcpy(&sp, cmd.payload, sizeof(sp));
    std::span<const routing::KeyValue> entries{
        reinterpret_cast<const routing::KeyValue*>(cmd.payload + sizeof(sp)),
        (cmd.header.payload_bytes - sizeof(sp)) / sizeof(routing::KeyValue)};
    storage::Partition* rpart = partition(g.object);
    if (JoinAlreadyMerged(sp.join_id)) {
      // The merge for this join already ran here (ownership moved under a
      // concurrent rebalance): resolve the stragglers through the routed
      // lookup path, which forwards/defers correctly on its own.
      join_keys_.clear();
      for (const routing::KeyValue& kv : entries) join_keys_.push_back(kv.key);
      endpoint_.set_deadline_ns(cmd.header.deadline_ns);
      endpoint_.SendLookupBatch(g.object, join_keys_, sp.result_sink);
      endpoint_.set_deadline_ns(0);
      stats_.join_boundary_lookups += entries.size();
    } else {
      JoinStage* stage = nullptr;
      join_out_.clear();
      for (const routing::KeyValue& kv : entries) {
        if (rpart->range().Contains(kv.key) ||
            InPendingRange(g.object, kv.key)) {
          if (stage == nullptr) stage = FindOrCreateStage(sp.join_id);
          stage->entries.push_back(kv);
        } else {
          join_out_.push_back(kv);
        }
      }
      if (!join_out_.empty()) {
        // Ownership moved since the scatter routed this chunk: forward to
        // the current owners.
        endpoint_.set_deadline_ns(cmd.header.deadline_ns);
        endpoint_.SendJoinStage(g.object, sp, join_out_, nullptr);
        endpoint_.set_deadline_ns(0);
        ++stats_.commands_forwarded;
      }
    }
    if (cmd.header.sink != nullptr) CompleteAfterGroup(cmd.header.sink, 1);
  }
  group_ops_ += g.commands.size();
}

void Aeu::ProcessJoinMergeGroup(const Group& g) {
  for (const routing::CommandView& cmd : g.commands) {
    routing::MergeJoinParams p = cmd.PayloadAs<routing::MergeJoinParams>()[0];
    // Mark merged before consuming the stage: staged entries arriving
    // after this point resolve via routed lookups (see ProcessJoinStage).
    merged_join_ids_[merged_join_pos_++ % kMergedRing] = p.join_id;
    uint64_t matches = 0;
    uint64_t key_sum = 0;
    JoinStage* stage = nullptr;
    for (auto& s : join_stages_) {
      if (s->active && s->join_id == p.join_id) {
        stage = s.get();
        break;
      }
    }
    if (stage != nullptr) {
      // The staged run is a concatenation of per-source sorted chunks:
      // sort it in place, then merge linearly against the local R run.
      std::sort(stage->entries.begin(), stage->entries.end(),
                [](const routing::KeyValue& a, const routing::KeyValue& b) {
                  return a.key < b.key;
                });
      ++stats_.join_runs_sorted;
      storage::Partition* rpart = partition(p.r_object);
      BuildLocalRun(p.r_object, &join_run_);
      join_keys_.clear();
      size_t k = 0;
      for (const routing::KeyValue& e : stage->entries) {
        if (!rpart->range().Contains(e.key) ||
            InPendingRange(p.r_object, e.key)) {
          // Moved away (or still in flight) under a concurrent rebalance:
          // the routed lookup path resolves it at the current owner.
          join_keys_.push_back(e.key);
          continue;
        }
        while (k < join_run_.size() && join_run_[k].key < e.key) ++k;
        if (k < join_run_.size() && join_run_[k].key == e.key) {
          ++matches;
          key_sum += e.key;
        }
      }
      if (!join_keys_.empty()) {
        endpoint_.set_deadline_ns(cmd.header.deadline_ns);
        endpoint_.SendLookupBatch(p.r_object, join_keys_, p.result_sink);
        endpoint_.set_deadline_ns(0);
        stats_.join_boundary_lookups += join_keys_.size();
      }
      group_stream_bytes_ += (stage->entries.size() + join_run_.size()) *
                             sizeof(routing::KeyValue);
      stage->active = false;
      stage->entries.clear();
    }
    if (p.result_sink != nullptr) {
      p.result_sink->OnScanPartial(matches, key_sum);
    }
    if (cmd.header.sink != nullptr) CompleteAfterGroup(cmd.header.sink, 1);
  }
  group_ops_ += g.commands.size();
}

void Aeu::ProcessFence(const routing::CommandView& cmd) {
  if (cmd.header.sink != nullptr) CompleteAfterGroup(cmd.header.sink, 1);
}

// ---------------------------------------------------------------------------
// Balancing
// ---------------------------------------------------------------------------

void Aeu::HandleBalanceRange(const routing::CommandView& cmd) {
  ERIS_INJECT_POINT(kBalanceApply);
  const uint8_t* p = cmd.payload;
  BalanceRangeHeader hdr;
  std::memcpy(&hdr, p, sizeof(hdr));
  storage::ObjectId object = cmd.header.object;
  if (wal_ != nullptr) {
    WalLogEffect(routing::CommandType::kWalSetRange, object,
                 {reinterpret_cast<const uint8_t*>(&hdr.new_range),
                  sizeof(hdr.new_range)});
  }
  partition(object)->set_range(hdr.new_range);
  if (hdr.num_fetches == 0) {
    if (cmd.header.sink != nullptr) cmd.header.sink->OnCommandComplete(1);
    return;
  }
  balance_tickets_.push_back(
      BalanceTicket{object, cmd.header.sink, hdr.num_fetches});
  for (uint32_t i = 0; i < hdr.num_fetches; ++i) {
    FetchInstr f;
    std::memcpy(&f, p + sizeof(hdr) + i * sizeof(FetchInstr), sizeof(f));
    pending_fetches_.push_back(PendingFetch{object, f.range});
    TransferRequest req;
    req.range = f.range;
    req.requester = id_;
    req.is_physical = 0;
    endpoint_.SendControl(f.source, routing::CommandType::kTransferRequest,
                          object,
                          {reinterpret_cast<const uint8_t*>(&req),
                           sizeof(req)},
                          nullptr);
  }
}

void Aeu::HandleBalancePhysical(const routing::CommandView& cmd) {
  ERIS_INJECT_POINT(kBalanceApply);
  const uint8_t* p = cmd.payload;
  BalancePhysicalHeader hdr;
  std::memcpy(&hdr, p, sizeof(hdr));
  storage::ObjectId object = cmd.header.object;
  if (hdr.num_fetches == 0) {
    if (cmd.header.sink != nullptr) cmd.header.sink->OnCommandComplete(1);
    return;
  }
  balance_tickets_.push_back(
      BalanceTicket{object, cmd.header.sink, hdr.num_fetches});
  for (uint32_t i = 0; i < hdr.num_fetches; ++i) {
    PhysFetchInstr f;
    std::memcpy(&f, p + sizeof(hdr) + i * sizeof(PhysFetchInstr), sizeof(f));
    TransferRequest req;
    req.tuples = f.tuples;
    req.requester = id_;
    req.is_physical = 1;
    endpoint_.SendControl(f.source, routing::CommandType::kTransferRequest,
                          object,
                          {reinterpret_cast<const uint8_t*>(&req),
                           sizeof(req)},
                          nullptr);
  }
}

void Aeu::HandleTransferRequest(const routing::CommandView& cmd) {
  ERIS_INJECT_POINT(kTransferApply);
  TransferRequest req;
  std::memcpy(&req, cmd.payload, sizeof(req));
  storage::ObjectId object = cmd.header.object;
  storage::Partition* part = partition(object);
  // Log the donor-side effect before mutating: the moved piece is logged
  // again (as plain writes) by the receiving AEU when it installs it.
  if (wal_ != nullptr) {
    if (req.is_physical) {
      uint64_t tuples = std::min<uint64_t>(req.tuples, part->tuple_count());
      WalLogEffect(routing::CommandType::kWalSplitTail, object,
                   {reinterpret_cast<const uint8_t*>(&tuples),
                    sizeof(tuples)});
    } else {
      WalLogEffect(routing::CommandType::kWalExtractRange, object,
                   {reinterpret_cast<const uint8_t*>(&req.range),
                    sizeof(req.range)});
    }
  }
  storage::Partition moved =
      req.is_physical
          ? part->SplitOffTail(std::min<uint64_t>(req.tuples,
                                                  part->tuple_count()))
          : part->ExtractRange(req.range.lo, req.range.hi);
  if (!req.is_physical) {
    // The donor's own balancing command may not have arrived yet; shrink
    // the declared range now so commands for the extracted piece are
    // forwarded instead of answered as local misses. Extracted pieces are
    // always edge pieces of the declared range.
    storage::KeyRange declared = part->range();
    if (req.range.lo <= declared.lo && req.range.hi > declared.lo) {
      declared.lo = req.range.hi;
    } else if (req.range.hi >= declared.hi && req.range.lo < declared.hi) {
      declared.hi = req.range.lo;
    }
    if (declared.lo <= declared.hi) {
      if (wal_ != nullptr) {
        WalLogEffect(routing::CommandType::kWalSetRange, object,
                     {reinterpret_cast<const uint8_t*>(&declared),
                      sizeof(declared)});
      }
      part->set_range(declared);
    }
  }
  engine_->monitor().RecordSize(id_, object, part->tuple_count(),
                                part->memory_bytes());
  const bool same_node = engine_->NodeOfAeu(req.requester) == node_;
  if (same_node) {
    // Link transfer: hand the partition over in place; both AEUs share the
    // node's memory manager, so the receiver can splice the structures.
    auto* heap = new storage::Partition(std::move(moved));
    InstallHeader hdr;
    hdr.range = req.range;
    hdr.source = id_;
    hdr.is_link = 1;
    hdr.is_final = 1;
    hdr.is_physical = req.is_physical;
    hdr.linked = heap;
    endpoint_.SendControl(req.requester,
                          routing::CommandType::kInstallPartition, object,
                          {reinterpret_cast<const uint8_t*>(&hdr),
                           sizeof(hdr)},
                          nullptr);
    ++stats_.link_transfers;
  } else {
    SendCopyTransfer(object, req.range, req.requester,
                     req.is_physical != 0, std::move(moved));
    ++stats_.copy_transfers;
  }
}

void Aeu::SendCopyTransfer(storage::ObjectId object, storage::KeyRange range,
                           routing::AeuId requester, bool is_physical,
                           storage::Partition&& part) {
  // Flatten to the exchange format and stream it in chunks small enough
  // for the incoming buffers.
  const size_t kChunkEntries = 2048;
  InstallHeader hdr;
  hdr.range = range;
  hdr.source = id_;
  hdr.is_link = 0;
  hdr.is_final = 0;
  hdr.is_physical = is_physical ? 1 : 0;
  hdr.linked = nullptr;

  scratch_payload_.clear();
  auto flush_chunk = [&](bool final) {
    hdr.is_final = final ? 1 : 0;
    transfer_payload_.resize(sizeof(hdr) + scratch_payload_.size());
    std::memcpy(transfer_payload_.data(), &hdr, sizeof(hdr));
    if (!scratch_payload_.empty()) {
      std::memcpy(transfer_payload_.data() + sizeof(hdr),
                  scratch_payload_.data(), scratch_payload_.size());
    }
    endpoint_.SendControl(requester,
                          routing::CommandType::kInstallPartition, object,
                          transfer_payload_, nullptr);
    stats_.bytes_copied += transfer_payload_.size();
    scratch_payload_.clear();
  };

  if (is_physical) {
    const storage::MvccColumn* column = part.mvcc_column();
    uint64_t n = column->size();
    uint64_t i = 0;
    column->column().ForEach([&](storage::TupleId, storage::Value v) {
      scratch_payload_.append(reinterpret_cast<const uint8_t*>(&v),
                              sizeof(v));
      ++i;
      if (scratch_payload_.size() >= kChunkEntries * sizeof(v) && i < n) {
        flush_chunk(false);
      }
    });
  } else if (part.index() != nullptr) {
    uint64_t n = part.index()->size();
    uint64_t i = 0;
    part.index()->ForEach([&](storage::Key k, storage::Value v) {
      routing::KeyValue kv{k, v};
      scratch_payload_.append(reinterpret_cast<const uint8_t*>(&kv),
                              sizeof(kv));
      ++i;
      if (scratch_payload_.size() >= kChunkEntries * sizeof(kv) && i < n) {
        flush_chunk(false);
      }
    });
  } else {
    part.hash()->ForEach([&](storage::Key k, storage::Value v) {
      routing::KeyValue kv{k, v};
      scratch_payload_.append(reinterpret_cast<const uint8_t*>(&kv),
                              sizeof(kv));
      if (scratch_payload_.size() >= kChunkEntries * sizeof(kv)) {
        flush_chunk(false);
      }
    });
  }
  flush_chunk(true);  // final chunk (possibly empty)
}

void Aeu::HandleInstall(const routing::CommandView& cmd) {
  ERIS_INJECT_POINT(kTransferApply);
  InstallHeader hdr;
  std::memcpy(&hdr, cmd.payload, sizeof(hdr));
  storage::ObjectId object = cmd.header.object;
  storage::Partition* part = partition(object);
  if (hdr.is_link) {
    auto* linked = static_cast<storage::Partition*>(hdr.linked);
    // Link transfers never flatten, so the receiver logs the absorbed
    // contents as ordinary write effects before splicing them in.
    if (wal_ != nullptr) WalLogPartitionContents(object, *linked);
    storage::KeyRange keep = part->range();
    part->Absorb(std::move(*linked), engine_->oracle().NextWriteTs());
    part->set_range(keep);  // declared range was set by the balance command
    delete linked;
    ++stats_.link_transfers;
  } else {
    std::span<const uint8_t> entries(cmd.payload + sizeof(hdr),
                                     cmd.header.payload_bytes - sizeof(hdr));
    if (wal_ != nullptr && !entries.empty()) {
      WalLogEffect(hdr.is_physical ? routing::CommandType::kAppendBatch
                                   : routing::CommandType::kUpsertBatch,
                   object, entries);
    }
    if (hdr.is_physical) {
      uint64_t ts = engine_->oracle().NextWriteTs();
      size_t n = entries.size() / sizeof(storage::Value);
      for (size_t i = 0; i < n; ++i) {
        storage::Value v;
        std::memcpy(&v, entries.data() + i * sizeof(v), sizeof(v));
        part->ColumnAppend(v, ts);
      }
    } else {
      size_t n = entries.size() / sizeof(routing::KeyValue);
      for (size_t i = 0; i < n; ++i) {
        routing::KeyValue kv;
        std::memcpy(&kv, entries.data() + i * sizeof(kv), sizeof(kv));
        part->Upsert(kv.key, kv.value);
      }
    }
  }
  engine_->monitor().RecordSize(id_, object, part->tuple_count(),
                                part->memory_bytes());
  if (hdr.is_final) {
    CompleteFetch(object, hdr.is_physical ? storage::KeyRange{0, 0}
                                          : hdr.range);
  }
}

void Aeu::CompleteFetch(storage::ObjectId object, storage::KeyRange range) {
  // Drop the pending marker (physical transfers have no range marker).
  for (size_t i = 0; i < pending_fetches_.size(); ++i) {
    if (pending_fetches_[i].object == object &&
        pending_fetches_[i].range.lo == range.lo &&
        pending_fetches_[i].range.hi == range.hi) {
      pending_fetches_.erase(pending_fetches_.begin() +
                             static_cast<ptrdiff_t>(i));
      break;
    }
  }
  for (size_t i = 0; i < balance_tickets_.size(); ++i) {
    BalanceTicket& t = balance_tickets_[i];
    if (t.object != object) continue;
    if (--t.outstanding == 0) {
      if (t.sink != nullptr) t.sink->OnCommandComplete(1);
      balance_tickets_.erase(balance_tickets_.begin() +
                             static_cast<ptrdiff_t>(i));
    }
    break;
  }
}

// ---------------------------------------------------------------------------
// Monitoring & simulated costs
// ---------------------------------------------------------------------------

void Aeu::RecordGroupMetrics(storage::ObjectId object, uint64_t ops,
                             double exec_ns) {
  if (ops == 0) return;
  engine_->monitor().RecordAccess(id_, object, ops, exec_ns);
}

void Aeu::ChargePointOps(storage::ObjectId object, uint64_t ops,
                         bool is_write) {
  if (!engine_->sim_enabled() || ops == 0) return;
  storage::Partition* part = partition(object);
  sim::TreeShape shape = ShapeOf(*part);
  sim::PointOpCost cost = sim::BatchPointOpCost(
      engine_->cost_model(), node_, node_, shape,
      engine_->llc_budget_per_aeu(), ops, /*interleaved=*/false, is_write,
      /*coherence_writes=*/false);
  // Routed commands pay the routing layer's CPU cost (target lookup,
  // buffer append/drain) — the overhead the shared baseline avoids.
  cost.compute_ns += static_cast<double>(ops) *
                     engine_->cost_model().params().routing_cpu_ns;
  sim::ResourceUsage& ru = engine_->resource_usage();
  ru.AddComputeNs(id_, cost.compute_ns);
  ru.AddMemoryTraffic(node_, node_, cost.dram_bytes);
  group_modeled_ns_ += cost.compute_ns;
}

void Aeu::ChargeLookupOps(storage::ObjectId object, uint64_t keys,
                          uint64_t nodes_touched) {
  if (!engine_->sim_enabled() || keys == 0) return;
  storage::Partition* part = partition(object);
  sim::TreeShape shape = ShapeOf(*part);
  // The analytic model prices one op as a full root-to-leaf descent
  // (`levels` node touches). A coalesced batch that shares descent paths
  // touches fewer unique nodes, so convert the measured node count back
  // into effective ops; scalar probes (nodes_touched == 0) pay per key.
  uint64_t ops = keys;
  if (nodes_touched > 0 && shape.levels > 0) {
    ops = std::min(keys, (nodes_touched + shape.levels - 1) / shape.levels);
    ops = std::max<uint64_t>(ops, 1);
  }
  sim::PointOpCost cost = sim::BatchPointOpCost(
      engine_->cost_model(), node_, node_, shape,
      engine_->llc_budget_per_aeu(), ops, /*interleaved=*/false,
      /*is_write=*/false, /*coherence_writes=*/false);
  // Routing CPU (target lookup, buffer append/drain) is per key: every key
  // traveled through the router regardless of descent sharing.
  cost.compute_ns += static_cast<double>(keys) *
                     engine_->cost_model().params().routing_cpu_ns;
  sim::ResourceUsage& ru = engine_->resource_usage();
  ru.AddComputeNs(id_, cost.compute_ns);
  ru.AddMemoryTraffic(node_, node_, cost.dram_bytes);
  group_modeled_ns_ += cost.compute_ns;
}

void Aeu::ChargeGroupStream() {
  if (!engine_->sim_enabled() || group_stream_bytes_ == 0) return;
  const sim::CostModel& model = engine_->cost_model();
  double ns = model.StreamNs(node_, node_, group_stream_bytes_) +
              0.25 * static_cast<double>(group_extra_words_) +
              static_cast<double>(group_index_visits_) * 2.0 *
                  model.params().upper_hit_ns;
  sim::ResourceUsage& ru = engine_->resource_usage();
  ru.AddComputeNs(id_, ns);
  ru.AddMemoryTraffic(node_, node_, group_stream_bytes_);
  group_modeled_ns_ += ns;
}

void Aeu::ChargeRoutingCosts() {
  if (!engine_->sim_enabled()) return;
  const routing::EndpointStats& es = endpoint_.stats();
  uint64_t delta_bytes = es.bytes_flushed - last_bytes_flushed_;
  uint64_t delta_flushes = es.flushes - last_flushes_;
  if (delta_bytes == 0 && delta_flushes == 0) return;
  last_bytes_flushed_ = es.bytes_flushed;
  last_flushes_ = es.flushes;
  const sim::CostModelParams& p = engine_->cost_model().params();
  double ns = static_cast<double>(delta_bytes) / p.copy_gbps +
              static_cast<double>(delta_flushes) *
                  engine_->cost_model().FlushOverheadNs(node_);
  engine_->resource_usage().AddComputeNs(id_, ns);
}

// ---------------------------------------------------------------------------
// Thread body
// ---------------------------------------------------------------------------

void Aeu::ThreadMain() {
  if (engine_->options().pin_threads) {
    numa::PinCurrentThreadToCore(id_).ok();
  }
  uint32_t idle = 0;
  while (!engine_->stop_.load(std::memory_order_acquire)) {
    if (engine_->pause_.load(std::memory_order_acquire)) {
      // Snapshot parking: the engine needs every loop off its partitions
      // (and off its WAL) while it flattens a consistent image.
      engine_->paused_count_.fetch_add(1, std::memory_order_acq_rel);
      while (engine_->pause_.load(std::memory_order_acquire) &&
             !engine_->stop_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      engine_->paused_count_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (RunLoopIteration()) {
      idle = 0;
      continue;
    }
    if (++idle > 64) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      CpuRelax();
    }
  }
  // Final drain so shutdown leaves no queued commands behind (with a WAL
  // attached this also commits and delivers the last deferred acks).
  RunLoopIteration();
  engine_->memory().manager(node_).FlushThisThreadCache();
}

// ---------------------------------------------------------------------------
// Durability (DESIGN.md §14)
// ---------------------------------------------------------------------------

void Aeu::ReplacePartition(storage::ObjectId object,
                           storage::Partition&& part) {
  ERIS_CHECK_LT(object, num_partitions_.load(std::memory_order_acquire));
  partitions_[object] =
      std::make_unique<storage::Partition>(std::move(part));
}

Status Aeu::WalLogEffect(routing::CommandType type, storage::ObjectId object,
                         std::span<const uint8_t> payload) {
  routing::CommandHeader h;
  h.type = type;
  h.object = static_cast<uint16_t>(object);
  h.source = id_;
  // Never persisted as meaningful state: replay ignores both.
  h.deadline_ns = 0;
  h.sink = nullptr;
  wal_scratch_.clear();
  routing::EncodeCommand(h, payload, &wal_scratch_);
  // A sealed-log failure (the log just sealed, possibly via an inline
  // backpressure commit) needs no handling here: the command that hit it
  // is applied-but-unlogged — crash-equivalent, its ack is shed with
  // kWalSealed at CommitWalAndAck — and every later command is dropped up
  // front by the sealed() guards in the write handlers. A ResourceExhausted
  // failure (injected group-buffer allocation) is recoverable and the data
  // handlers shed the effect instead of applying it.
  Status st = wal_->Append(wal_scratch_);
  if (st.ok()) ++stats_.wal_records;
  return st;
}

void Aeu::WalLogPartitionContents(storage::ObjectId object,
                                  const storage::Partition& part) {
  // Bound each record so a huge absorbed partition cannot blow the group
  // buffer (backpressure may inline-commit between chunks, which is fine:
  // the chunks are idempotent upserts/appends).
  constexpr size_t kChunk = 4096;
  if (const storage::MvccColumn* column = part.mvcc_column()) {
    scratch_values_.clear();
    auto flush = [&] {
      if (scratch_values_.empty()) return;
      WalLogEffect(routing::CommandType::kAppendBatch, object,
                   {reinterpret_cast<const uint8_t*>(scratch_values_.data()),
                    scratch_values_.size() * sizeof(storage::Value)});
      scratch_values_.clear();
    };
    column->column().ForEach([&](storage::TupleId, storage::Value v) {
      scratch_values_.push_back(v);
      if (scratch_values_.size() >= kChunk) flush();
    });
    flush();
    return;
  }
  scratch_kvs_.clear();
  auto flush = [&] {
    if (scratch_kvs_.empty()) return;
    WalLogEffect(routing::CommandType::kUpsertBatch, object,
                 {reinterpret_cast<const uint8_t*>(scratch_kvs_.data()),
                  scratch_kvs_.size() * sizeof(routing::KeyValue)});
    scratch_kvs_.clear();
  };
  auto collect = [&](storage::Key k, storage::Value v) {
    scratch_kvs_.push_back(routing::KeyValue{k, v});
    if (scratch_kvs_.size() >= kChunk) flush();
  };
  if (part.index() != nullptr) {
    part.index()->ForEach(collect);
  } else if (part.hash() != nullptr) {
    part.hash()->ForEach(collect);
  }
  flush();
}

void Aeu::CommitWalAndAck() {
  uint64_t committed = 0;
  Status st = wal_->Commit(&committed);
  if (committed > 0) ++stats_.wal_commits;
  stats_.wal_stalls = wal_->stats().stalls;
  if (!st.ok()) {
    // The group never became durable (the log just sealed, or was already
    // sealed when this iteration's records were appended). Acknowledging
    // would break acknowledged ⇒ durable, so shed every pending ack with a
    // typed drop reason — waiters complete with kWalSealed instead of
    // hanging — after handing the fail-stop to the engine for quarantine.
    // The engine degrades before any waiter sees its drop, so a client
    // that got kWalSealed already reads degraded() (DESIGN.md §15).
    engine_->OnWalSealed(id_, st);
    for (const PendingAck& ack : pending_acks_) {
      ack.sink->OnCommandDropped(ack.units, routing::DropReason::kWalSealed);
      stats_.wal_drops += ack.units;
    }
    pending_acks_.clear();
    return;
  }
  // Acks are delivered even when this commit was a no-op: a mid-iteration
  // backpressure commit may already have made their records durable.
  for (const PendingAck& ack : pending_acks_) {
    ack.sink->OnWriteBatch(ack.applied);
    ack.sink->OnCommandComplete(ack.units);
  }
  pending_acks_.clear();
}

void Aeu::AckWrite(routing::ResultSink* sink, uint64_t applied,
                   uint64_t units) {
  if (wal_ != nullptr) {
    // Held until the iteration-end group commit: acknowledged ⇒ durable.
    pending_acks_.push_back(PendingAck{sink, applied, units});
  } else {
    sink->OnWriteBatch(applied);
    CompleteAfterGroup(sink, units);
  }
}

void Aeu::CompleteAfterGroup(routing::ResultSink* sink, uint64_t units) {
  group_completions_.push_back(Completion{sink, units});
}

void Aeu::FlushWal() {
  if (wal_ == nullptr) return;
  CommitWalAndAck();
}

}  // namespace eris::core
