#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "durability/wal.h"

namespace eris::core {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  num_aeus_ = options_.num_aeus != 0 ? options_.num_aeus
                                     : options_.topology.total_cores();
  // Wall-clock pacing of delivery backoff only makes sense with real AEU
  // threads; a simulated engine pumps the loops inline and must never gate
  // progress on elapsed time.
  options_.router.retry.pace_with_time =
      options_.mode == ExecutionMode::kThreads;
  memory_ = std::make_unique<numa::MemoryPool>(options_.topology.num_nodes());
  std::vector<numa::NodeId> aeu_nodes(num_aeus_);
  for (routing::AeuId a = 0; a < num_aeus_; ++a) aeu_nodes[a] = NodeOfAeu(a);
  router_ = std::make_unique<routing::Router>(std::move(aeu_nodes),
                                              options_.router);
  // Pre-sized for the object cap so dynamic object creation never swaps
  // the monitor under running AEUs.
  monitor_ = std::make_unique<Monitor>(num_aeus_,
                                       routing::Router::kMaxObjects);
  objects_.reserve(routing::Router::kMaxObjects);
  if (options_.sim.enabled) {
    cost_model_ =
        std::make_unique<sim::CostModel>(options_.topology, options_.sim.cost);
    usage_ = std::make_unique<sim::ResourceUsage>(options_.topology,
                                                  num_aeus_);
    router_->set_resource_usage(usage_.get());
    llc_budget_per_aeu_ = options_.sim.llc_bytes_per_node /
                          options_.topology.cores_per_node();
  }
  aeus_.reserve(num_aeus_);
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    aeus_.push_back(std::make_unique<Aeu>(a, this));
  }
  admission_ = std::make_unique<AdmissionController>(
      options_.overload.max_inflight_units);
  watchdog_ = std::make_unique<AeuWatchdog>(num_aeus_,
                                            options_.overload.watchdog_strikes);
  wal_sealed_flags_ = std::make_unique<std::atomic<bool>[]>(num_aeus_);
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    wal_sealed_flags_[a].store(false, std::memory_order_relaxed);
  }
  if (options_.durability.enabled) {
    ERIS_CHECK(!options_.durability.dir.empty())
        << "durability enabled without a directory";
    durability_ = std::make_unique<durability::DurabilityManager>(
        options_.durability, num_aeus_);
  }
}

Engine::~Engine() { Stop(); }

storage::ObjectId Engine::RegisterObject(storage::DataObjectDesc desc,
                                         storage::Key domain_hi) {
  // Objects may also be created while the engine runs (the query layer
  // materializes intermediate results as new columns); registration is
  // single-threaded per engine by contract.
  desc.id = static_cast<storage::ObjectId>(objects_.size());
  objects_.push_back(std::make_unique<storage::DataObjectDesc>(std::move(desc)));
  const storage::DataObjectDesc& d = *objects_.back();
  if (d.partitioning == storage::PartitioningKind::kRange) {
    router_->RegisterRangeObject(d, domain_hi);
    std::vector<routing::RangeEntry> entries =
        router_->range_table(d.id)->Snapshot();
    for (routing::AeuId a = 0; a < num_aeus_; ++a) {
      storage::KeyRange range{
          a == 0 ? storage::kMinKey : entries[a - 1].hi, entries[a].hi};
      aeus_[a]->AddPartition(d, range);
    }
  } else if (d.partitioning == storage::PartitioningKind::kHashed) {
    router_->RegisterHashedObject(d);
    // Every partition may hold keys from the full domain (its hash class).
    for (routing::AeuId a = 0; a < num_aeus_; ++a) {
      aeus_[a]->AddPartition(d, storage::KeyRange{});
    }
  } else {
    router_->RegisterPhysicalObject(d);
    for (routing::AeuId a = 0; a < num_aeus_; ++a) {
      aeus_[a]->AddPartition(d, storage::KeyRange{});
    }
  }
  return d.id;
}

storage::ObjectId Engine::CreateIndex(std::string name,
                                      storage::Key domain_hi,
                                      storage::PrefixTreeConfig config) {
  storage::DataObjectDesc desc =
      storage::DataObjectDesc::Index(0, std::move(name), config);
  desc.domain_hi = domain_hi;
  return RegisterObject(std::move(desc), domain_hi);
}

storage::ObjectId Engine::CreateColumn(std::string name) {
  storage::DataObjectDesc desc =
      storage::DataObjectDesc::Column(0, std::move(name));
  return RegisterObject(std::move(desc), storage::kMaxKey);
}

storage::ObjectId Engine::CreateHashedIndex(std::string name,
                                            storage::Key domain_hi,
                                            storage::PrefixTreeConfig config) {
  storage::DataObjectDesc desc =
      storage::DataObjectDesc::Index(0, std::move(name), config);
  desc.partitioning = storage::PartitioningKind::kHashed;
  desc.domain_hi = domain_hi;
  return RegisterObject(std::move(desc), domain_hi);
}

storage::ObjectId Engine::CreateHashTable(std::string name,
                                          storage::Key domain_hi) {
  storage::DataObjectDesc desc =
      storage::DataObjectDesc::Hash(0, std::move(name));
  desc.domain_hi = domain_hi;
  return RegisterObject(std::move(desc), domain_hi);
}

void Engine::Start() {
  ERIS_CHECK(!started_);
  if (durability_ != nullptr && !recovered_) {
    Status st = Recover();
    ERIS_CHECK(st.ok()) << "recovery failed: " << st.message();
  }
  started_ = true;
  stop_.store(false, std::memory_order_release);
  if (options_.mode == ExecutionMode::kThreads) {
    threads_.reserve(num_aeus_);
    for (routing::AeuId a = 0; a < num_aeus_; ++a) {
      threads_.emplace_back([this, a] { aeus_[a]->ThreadMain(); });
    }
    if (options_.balancer_background) {
      balancer_thread_ = std::thread([this] { BalancerThreadMain(); });
    }
    if (options_.overload.watchdog) {
      watchdog_thread_ = std::thread([this] { WatchdogThreadMain(); });
    }
    if (durability_ != nullptr &&
        options_.durability.scrub_interval_ms > 0) {
      scrubber_thread_ = std::thread([this] { ScrubberThreadMain(); });
    }
  }
}

void Engine::Stop() {
  if (started_) {
    // Drain phase (DESIGN.md §14): give in-flight work a bounded window to
    // complete — and with a WAL attached, to group-commit — before the
    // threads are signalled. A wedged engine just times out here; shutdown
    // never blocks indefinitely.
    TryQuiesce(options_.stop_drain_ms);
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    if (balancer_thread_.joinable()) balancer_thread_.join();
    if (watchdog_thread_.joinable()) watchdog_thread_.join();
    if (scrubber_thread_.joinable()) scrubber_thread_.join();
    started_ = false;
  }
  if (durability_ != nullptr && recovered_) {
    // Commit any residue (simulated engines never spawned threads, and a
    // thread's final iteration may still have raced a late submit).
    for (auto& aeu : aeus_) aeu->FlushWal();
  }
}

bool Engine::PumpAll() {
  bool progress = false;
  for (auto& aeu : aeus_) progress |= aeu->RunLoopIteration();
  return progress;
}

void Engine::BalancerThreadMain() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.balancer.interval_ms));
    if (stop_.load(std::memory_order_acquire)) break;
    RebalanceAll();
  }
}

void Engine::WatchdogThreadMain() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.overload.watchdog_interval_ms));
    if (stop_.load(std::memory_order_acquire)) break;
    CheckAeuHealth();
  }
}

void Engine::ScrubberThreadMain() {
  // Cold-state scrubber (DESIGN.md §15): periodically CRC-verify snapshot
  // files and sealed/cold WAL segments so bit rot is found — and corrupt
  // cold snapshots quarantined — before recovery ever depends on them.
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.durability.scrub_interval_ms));
    if (stop_.load(std::memory_order_acquire)) break;
    ScrubReport report;
    Status st = ScrubStorage(&report);
    if (!st.ok() || !report.clean()) {
      ERIS_DLOG(Warning) << "storage scrub: " << report.corrupt_files
                         << " corrupt files, " << report.snapshots_quarantined
                         << " snapshots quarantined, " << report.wal_torn_tails
                         << " torn WAL tails: " << st.message();
    }
  }
}

void Engine::CheckAeuHealth() {
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    const auto [retired, written] = AeuProgress(a);
    const bool pending = retired != written;
    AeuWatchdog::Observation obs =
        watchdog_->Observe(a, aeus_[a]->heartbeat(), pending);
    if (obs.newly_stalled) {
      router_->SetAeuStalled(a, true);
      ERIS_DLOG(Warning) << "watchdog: AEU " << a
                         << " stalled (heartbeat static with pending work); "
                            "partitions flagged, routed commands fail fast";
    } else if (obs.newly_recovered) {
      // Sticky fail-stop: an AEU whose WAL sealed must never be unsealed,
      // however lively its heartbeat looks (the watchdog's forced-stall bit
      // already suppresses this, but the flag here guards the router seal
      // independently).
      if (!WalSealed(a)) {
        router_->SetAeuStalled(a, false);
        ERIS_DLOG(Info) << "watchdog: AEU " << a << " recovered";
      }
    }
  }
}

void Engine::OnWalSealed(routing::AeuId a, const Status& cause) {
  if (wal_sealed_flags_[a].exchange(true, std::memory_order_acq_rel)) {
    return;  // already quarantined
  }
  // Quarantine through the existing stall machinery: the router seals the
  // mailbox (routed commands fail fast, Quiesce skips the AEU) and the
  // watchdog pins the stall so no health pass ever reports recovery.
  router_->SetAeuStalled(a, true);
  watchdog_->ForceStall(a);
  ERIS_DLOG(Warning) << "AEU " << a
                     << " WAL sealed fail-stop: " << cause.message();
  EnterDegradedMode("AEU " + std::to_string(a) +
                    " WAL sealed: " + std::string(cause.message()));
}

bool Engine::AnyWalSealed() const {
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    if (WalSealed(a)) return true;
  }
  return false;
}

std::string Engine::degraded_reason() const {
  std::lock_guard<SpinLock> guard(degraded_lock_);
  return degraded_reason_;
}

void Engine::EnterDegradedMode(std::string reason) {
  {
    std::lock_guard<SpinLock> guard(degraded_lock_);
    if (degraded_.load(std::memory_order_relaxed)) return;  // keep 1st cause
    degraded_reason_ = std::move(reason);
    degraded_.store(true, std::memory_order_release);
  }
  ERIS_DLOG(Warning) << "engine degraded to read-only: " << degraded_reason();
}

Status Engine::ScrubStorage(ScrubReport* report) {
  *report = ScrubReport{};
  if (durability_ == nullptr) return Status::Ok();
  Status first_bad = Status::Ok();
  uint64_t live_epoch = 0;
  Status st = durability_->ReadCurrentEpoch(&live_epoch);
  if (!st.ok()) {
    // An unreadable manifest is itself a scrub finding, not a crash.
    first_bad = std::move(st);
    live_epoch = 0;
  }
  for (uint64_t epoch : durability_->ListSnapshotEpochs()) {
    ++report->snapshots_checked;
    uint64_t files = 0;
    uint64_t corrupt = 0;
    st = durability_->VerifySnapshot(epoch, &files, &corrupt);
    report->files_checked += files;
    report->corrupt_files += corrupt;
    if (st.ok()) continue;
    if (first_bad.ok()) first_bad = st;
    if (epoch != live_epoch) {
      // Cold (non-live) snapshot: move it aside so recovery and
      // RemoveOldSnapshots never touch it again.
      if (durability_->QuarantineSnapshot(epoch).ok()) {
        ++report->snapshots_quarantined;
      }
    }
    // The live snapshot stays in place even when corrupt: it is the only
    // full copy, and recovery will surface the CRC failure typed.
  }
  // WAL files are scanned only while cold: before Start() armed the
  // writers, or after the writer sealed (both leave the file static).
  // A torn tail on a *sealed* log is expected — it is the partially
  // written group the seal discarded — so only unsealed logs count.
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    bool cold = !started_ || WalSealed(a);
    if (!cold) continue;
    ++report->wals_checked;
    durability::WalReplayResult replay;
    st = durability::ReplayWal(
        durability_->WalPath(a), ~0ull,
        [](uint64_t, std::span<const uint8_t>) {}, &replay);
    if (!st.ok()) {
      if (first_bad.ok()) first_bad = st;
      continue;
    }
    if (replay.torn && !WalSealed(a)) ++report->wal_torn_tails;
  }
  return first_bad;
}

void Engine::RetireSink(std::unique_ptr<routing::AggregateSink> sink) {
  std::lock_guard<SpinLock> guard(retired_lock_);
  retired_sinks_.push_back(std::move(sink));
}

void Engine::Quiesce() {
  ERIS_CHECK(TryQuiesce(~uint64_t{0}))
      << "engine stopped making progress before it went idle";
}

std::pair<uint64_t, uint64_t> Engine::AeuProgress(routing::AeuId a) const {
  // Retired first: every byte it covers was counted as written before the
  // owner drained it, so the later written read can never fall behind.
  const uint64_t retired = aeus_[a]->BytesRetired();
  return {retired, router_->mailbox(a).BytesWritten()};
}

bool Engine::TryQuiesce(uint64_t timeout_ms) {
  // One collect reads every non-stalled AEU's (retired, written) pair.
  // The counters are monotone, so two equal collects are an atomic
  // snapshot: at an instant between them each AEU had retired every byte
  // delivered to it, including the follow-ups of everything it retired.
  std::vector<std::pair<uint64_t, uint64_t>> first(num_aeus_);
  std::vector<std::pair<uint64_t, uint64_t>> second(num_aeus_);
  auto collect = [&](std::vector<std::pair<uint64_t, uint64_t>>* marks) {
    bool idle = true;
    for (routing::AeuId a = 0; a < num_aeus_; ++a) {
      (*marks)[a] = router_->IsAeuStalled(a)
                        ? std::pair<uint64_t, uint64_t>{}
                        : AeuProgress(a);
      idle &= (*marks)[a].first == (*marks)[a].second;
    }
    return idle;
  };
  const bool inline_pump =
      options_.mode == ExecutionMode::kSimulated || !started_;
  const uint64_t start = MonotonicNanos();
  const uint64_t deadline =
      timeout_ms >= (~uint64_t{0} - start) / 1'000'000ull
          ? ~uint64_t{0}
          : start + timeout_ms * 1'000'000ull;
  uint64_t idle_passes = 0;
  for (;;) {
    if (collect(&first) && collect(&second) && first == second) return true;
    if (inline_pump) {
      // A simulated engine makes all its progress here, so a no-progress
      // pass budget replaces the wall clock.
      idle_passes = PumpAll() ? 0 : idle_passes + 1;
      if (idle_passes > (1u << 16)) return false;
    } else {
      std::this_thread::yield();
      if (MonotonicNanos() > deadline) return false;
    }
  }
}

bool Engine::RebalanceAll() {
  bool any = false;
  for (storage::ObjectId o = 0; o < objects_.size(); ++o) {
    any |= RebalanceObject(o, options_.balancer);
  }
  return any;
}

bool Engine::RebalanceObject(storage::ObjectId object,
                             const LoadBalancerConfig& config) {
  if (config.algorithm == BalanceAlgorithm::kNone) return false;
  // A degraded engine stops moving partitions: transfers would target
  // quarantined AEUs and generate WAL effects a sealed log cannot persist.
  if (degraded()) return false;
  const storage::DataObjectDesc& desc = *objects_[object];
  std::vector<PartitionMetrics> metrics = monitor_->SnapshotAndReset(object);

  if (desc.partitioning == storage::PartitioningKind::kHashed) {
    // Hash classes cannot be rebalanced by range — the paper's point.
    return false;
  }
  if (desc.partitioning == storage::PartitioningKind::kRange) {
    routing::RangePartitionTable* table = router_->range_table(object);
    std::vector<routing::RangeEntry> entries = table->Snapshot();
    std::vector<double> metric(entries.size());
    uint64_t total = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const PartitionMetrics& m = metrics[entries[i].owner];
      metric[i] = config.metric == BalanceMetric::kExecutionTime
                      ? m.exec_time_ns
                      : static_cast<double>(m.accesses);
      total += m.accesses;
    }
    if (total < config.min_total_accesses) return false;
    if (CoefficientOfVariation(metric) <= config.trigger_cv) return false;
    std::vector<storage::Key> new_his = ComputeTargetBoundaries(
        entries, metric, config.algorithm, config.ma_window, desc.domain_hi);
    RebalancePlan plan = BuildRangePlan(entries, new_his);
    if (plan.empty()) return false;

    // Install the new routing table first; AEUs forward straggler commands
    // for ranges they no longer own and defer commands for data still in
    // flight toward them. Commands routed with the old table can still be
    // in flight here — the perturbation point stretches that window.
    table->Replace(plan.new_entries);
    ERIS_INJECT_POINT(kBalanceApply);
    routing::AggregateSink sink;
    routing::Endpoint ep(router_.get(), routing::kInvalidAeu, 0);
    std::vector<uint8_t> payload;
    for (const RebalancePlan::AeuPlan& ap : plan.aeus) {
      payload.clear();
      BalanceRangeHeader hdr;
      hdr.new_range = ap.new_range;
      hdr.num_fetches = static_cast<uint32_t>(ap.fetches.size());
      payload.resize(sizeof(hdr) + ap.fetches.size() * sizeof(FetchInstr));
      std::memcpy(payload.data(), &hdr, sizeof(hdr));
      if (!ap.fetches.empty()) {
        std::memcpy(payload.data() + sizeof(hdr), ap.fetches.data(),
                    ap.fetches.size() * sizeof(FetchInstr));
      }
      ep.SendControl(ap.aeu, routing::CommandType::kBalanceRange, object,
                     payload, &sink);
    }
    uint64_t expected = plan.aeus.size();
    DriveUntil([&] {
      if (ep.HasPending()) ep.FlushAll();
      return sink.completed() >= expected;
    });
    return true;
  }

  // Physically partitioned object: balance tuple counts.
  std::vector<uint64_t> tuples(num_aeus_);
  uint64_t total = 0;
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    tuples[a] = metrics[a].tuples;
    total += tuples[a];
  }
  if (total == 0) return false;
  std::vector<double> metric(tuples.begin(), tuples.end());
  if (CoefficientOfVariation(metric) <= config.trigger_cv) return false;
  std::vector<uint32_t> aeu_node(num_aeus_);
  for (routing::AeuId a = 0; a < num_aeus_; ++a) aeu_node[a] = NodeOfAeu(a);
  uint64_t min_tuples = std::max<uint64_t>(1, total / num_aeus_ / 64);
  PhysicalPlan plan = BuildPhysicalPlan(tuples, aeu_node, min_tuples);
  if (plan.empty()) return false;

  routing::AggregateSink sink;
  routing::Endpoint ep(router_.get(), routing::kInvalidAeu, 0);
  std::vector<uint8_t> payload;
  for (const PhysicalPlan::AeuPlan& ap : plan.aeus) {
    payload.clear();
    BalancePhysicalHeader hdr;
    hdr.num_fetches = static_cast<uint32_t>(ap.fetches.size());
    payload.resize(sizeof(hdr) + ap.fetches.size() * sizeof(PhysFetchInstr));
    std::memcpy(payload.data(), &hdr, sizeof(hdr));
    std::memcpy(payload.data() + sizeof(hdr), ap.fetches.data(),
                ap.fetches.size() * sizeof(PhysFetchInstr));
    ep.SendControl(ap.aeu, routing::CommandType::kBalancePhysical, object,
                   payload, &sink);
  }
  uint64_t expected = plan.aeus.size();
  DriveUntil([&] {
    if (ep.HasPending()) ep.FlushAll();
    return sink.completed() >= expected;
  });
  return true;
}

// ---------------------------------------------------------------------------
// Durability (DESIGN.md §14)
// ---------------------------------------------------------------------------

Status Engine::Recover() {
  if (durability_ == nullptr) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  if (recovered_) return Status::Ok();
  ERIS_CHECK(!started_) << "Recover() must run before Start()";
  Status st = durability_->EnsureDir();
  if (!st.ok()) return st;
  uint64_t epoch = 0;
  st = durability_->ReadCurrentEpoch(&epoch);
  if (!st.ok()) return st;
  std::vector<uint64_t> watermark(num_aeus_, 0);
  std::vector<uint64_t> next_lsn(num_aeus_, 1);

  if (epoch != 0) {
    durability::SnapshotMeta meta;
    st = durability_->ReadSnapshotMeta(epoch, &meta);
    if (!st.ok()) return st;
    // The caller re-registers the schema before recovering; refuse to
    // restore a snapshot into a differently-shaped engine.
    if (meta.num_aeus != num_aeus_ ||
        meta.objects.size() != objects_.size()) {
      return Status::FailedPrecondition(
          "snapshot topology/schema does not match this engine");
    }
    for (size_t o = 0; o < objects_.size(); ++o) {
      const storage::DataObjectDesc& d = *objects_[o];
      if (meta.objects[o].container != static_cast<uint32_t>(d.container) ||
          meta.objects[o].partitioning !=
              static_cast<uint32_t>(d.partitioning)) {
        return Status::FailedPrecondition(
            "snapshot schema mismatch for object '" + d.name + "'");
      }
    }
    watermark = meta.wal_watermark;
    next_lsn = meta.wal_next_lsn;
    std::vector<uint8_t> payload;
    for (const durability::PartitionMeta& pm : meta.partitions) {
      if (pm.object >= objects_.size() || pm.aeu >= num_aeus_) {
        return Status::IoError("snapshot references an unknown partition");
      }
      st = durability_->ReadPartitionFile(epoch, pm, &payload);
      if (!st.ok()) return st;
      const storage::DataObjectDesc& d = *objects_[pm.object];
      numa::NodeId node = NodeOfAeu(pm.aeu);
      uint64_t salt = Mix64((static_cast<uint64_t>(d.id) << 32) | pm.aeu);
      Result<storage::Partition> rebuilt = storage::Partition::Rebuild(
          d, &memory_->manager(node), pm.range, salt, payload);
      if (!rebuilt.ok()) return rebuilt.status();
      aeus_[pm.aeu]->ReplacePartition(pm.object,
                                      std::move(rebuilt).value());
      // Rebuild refills the raw column without MVCC frontier entries;
      // publish the restored tuples at a fresh timestamp so scans see them.
      aeus_[pm.aeu]->partition(pm.object)->ColumnPublish(
          oracle_.NextWriteTs());
    }
  }

  // Replay each AEU's log tail. Only the locally applied ("mine") effect
  // of every command was logged, so per-AEU replay is a pure function of
  // that AEU's own log — cross-AEU ordering cannot matter.
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    durability::WalReplayResult rr;
    st = durability::ReplayWal(
        durability_->WalPath(a), watermark[a],
        [&](uint64_t, std::span<const uint8_t> body) {
          ApplyWalRecord(a, body);
        },
        &rr);
    if (!st.ok()) return st;
    next_lsn[a] = std::max(next_lsn[a], rr.next_lsn);
    st = durability_->OpenWal(a, next_lsn[a], rr.valid_end);
    if (!st.ok()) return st;
    aeus_[a]->set_wal(durability_->wal(a));
  }

  st = RebuildRangeTables();
  if (!st.ok()) return st;

  // Seed the monitor so the balancer restarts from real partition sizes.
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    for (storage::ObjectId o = 0; o < objects_.size(); ++o) {
      storage::Partition* part = aeus_[a]->partition(o);
      monitor_->RecordSize(a, o, part->tuple_count(), part->memory_bytes());
    }
  }
  snapshot_epoch_ = epoch;
  recovered_ = true;
  return Status::Ok();
}

void Engine::ApplyWalRecord(routing::AeuId a, std::span<const uint8_t> body) {
  if (body.size() < sizeof(routing::CommandHeader)) return;
  routing::CommandView cmd = routing::DecodeCommand(body.data());
  if (body.size() < sizeof(routing::CommandHeader) + cmd.header.payload_bytes) {
    return;  // cannot happen behind an intact CRC; never read past the body
  }
  // Objects beyond the re-registered schema are query-layer intermediates:
  // transient by design, their effects are dropped.
  if (cmd.header.object >= objects_.size()) return;
  storage::Partition* part = aeus_[a]->partition(cmd.header.object);
  switch (cmd.header.type) {
    case routing::CommandType::kInsertBatch:
      for (const routing::KeyValue& kv : cmd.PayloadAs<routing::KeyValue>()) {
        part->Insert(kv.key, kv.value);
      }
      break;
    case routing::CommandType::kUpsertBatch:
      for (const routing::KeyValue& kv : cmd.PayloadAs<routing::KeyValue>()) {
        part->Upsert(kv.key, kv.value);
      }
      break;
    case routing::CommandType::kEraseBatch:
      for (storage::Key k : cmd.PayloadAs<storage::Key>()) part->Erase(k);
      break;
    case routing::CommandType::kAppendBatch: {
      uint64_t ts = oracle_.NextWriteTs();
      for (storage::Value v : cmd.PayloadAs<storage::Value>()) {
        part->ColumnAppend(v, ts);
      }
      break;
    }
    case routing::CommandType::kWalExtractRange: {
      storage::KeyRange r = cmd.PayloadAs<storage::KeyRange>()[0];
      // Donor-side balance effect; the moved piece replays as plain writes
      // from the receiving AEU's own log.
      (void)part->ExtractRange(r.lo, r.hi);
      break;
    }
    case routing::CommandType::kWalSplitTail: {
      uint64_t tuples = cmd.PayloadAs<uint64_t>()[0];
      (void)part->SplitOffTail(std::min(tuples, part->tuple_count()));
      break;
    }
    case routing::CommandType::kWalSetRange:
      part->set_range(cmd.PayloadAs<storage::KeyRange>()[0]);
      break;
    default:
      break;  // reads and control commands are never logged
  }
}

Status Engine::RebuildRangeTables() {
  for (storage::ObjectId o = 0; o < objects_.size(); ++o) {
    const storage::DataObjectDesc& d = *objects_[o];
    if (d.partitioning != storage::PartitioningKind::kRange) continue;
    struct Owned {
      storage::KeyRange range;
      routing::AeuId owner;
    };
    std::vector<Owned> owned;
    for (routing::AeuId a = 0; a < num_aeus_; ++a) {
      storage::KeyRange r = aeus_[a]->partition(o)->range();
      if (r.Empty()) continue;  // fully drained by balancing
      owned.push_back(Owned{r, a});
    }
    if (owned.empty()) {
      return Status::Internal("no recovered ranges for object '" + d.name +
                              "'");
    }
    std::sort(owned.begin(), owned.end(),
              [](const Owned& x, const Owned& y) {
                return x.range.lo < y.range.lo;
              });
    if (owned.front().range.lo != storage::kMinKey ||
        owned.back().range.hi != storage::kMaxKey) {
      return Status::Internal("recovered ranges do not cover the domain of '" +
                              d.name + "'");
    }
    std::vector<routing::RangeEntry> entries;
    entries.reserve(owned.size());
    for (size_t i = 0; i < owned.size(); ++i) {
      if (i + 1 < owned.size() &&
          owned[i].range.hi != owned[i + 1].range.lo) {
        return Status::Internal("recovered ranges of '" + d.name +
                                "' are not contiguous");
      }
      entries.push_back(routing::RangeEntry{owned[i].range.hi,
                                            owned[i].owner});
    }
    router_->range_table(o)->Replace(entries);
  }
  return Status::Ok();
}

Status Engine::Snapshot() {
  if (durability_ == nullptr) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  ERIS_CHECK(recovered_) << "Snapshot() before Recover()";
  if (AnyWalSealed()) {
    // The sealed AEU's recent effects never reached its log, so the
    // in-memory state is ahead of anything provably durable; flattening it
    // would publish unlogged (possibly un-acknowledged) writes. The engine
    // must restart and recover before it snapshots again.
    return Status::Unavailable("cannot snapshot: a WAL sealed fail-stop")
        .WithDetail(StatusDetail::kWalSealed, degraded_reason());
  }
  // Reach a consistent point: no in-flight commands, no balancing residue.
  Quiesce();
  bool paused = false;
  if (options_.mode == ExecutionMode::kThreads && started_) {
    pause_.store(true, std::memory_order_release);
    while (paused_count_.load(std::memory_order_acquire) <
           static_cast<uint32_t>(threads_.size())) {
      std::this_thread::yield();
    }
    paused = true;
  }
  Status st = WriteSnapshotFiles();
  if (paused) pause_.store(false, std::memory_order_release);
  if (!st.ok()) {
    // A failed snapshot (ENOSPC, EIO) leaves the previous epoch intact but
    // means the disk can no longer be trusted to absorb writes: degrade.
    // The condition is retryable — freeing space and snapshotting again
    // clears it below.
    EnterDegradedMode("snapshot failed: " + std::string(st.message()));
    return st;
  }
  if (degraded() && !AnyWalSealed()) {
    // Space-only degradation heals once a full snapshot round-trips.
    {
      std::lock_guard<SpinLock> guard(degraded_lock_);
      degraded_reason_.clear();
      degraded_.store(false, std::memory_order_release);
    }
    ERIS_DLOG(Info) << "engine left degraded mode after a clean snapshot";
  }
  return st;
}

Status Engine::WriteSnapshotFiles() {
  const uint64_t epoch = snapshot_epoch_ + 1;
  durability::SnapshotMeta meta;
  meta.epoch = epoch;
  meta.num_aeus = num_aeus_;
  meta.objects.reserve(objects_.size());
  for (const auto& obj : objects_) {
    meta.objects.push_back(durability::ObjectMeta{
        static_cast<uint32_t>(obj->container),
        static_cast<uint32_t>(obj->partitioning)});
  }
  meta.wal_watermark.resize(num_aeus_);
  meta.wal_next_lsn.resize(num_aeus_);
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    // Quiesced + paused: safe to commit residue from this thread.
    aeus_[a]->FlushWal();
    durability::WalWriter* wal = durability_->wal(a);
    if (wal->sealed()) {
      // The residue commit itself just failed: the in-memory state now
      // holds effects that never reached the log, so this snapshot would
      // publish unlogged writes. Abort before any file is created.
      return wal->seal_status();
    }
    meta.wal_watermark[a] = wal->next_lsn() - 1;
    meta.wal_next_lsn[a] = wal->next_lsn();
  }
  // Pre-flatten so the metadata carries exact byte counts; the write path
  // then just hands the streams over.
  std::vector<std::vector<uint8_t>> streams;
  streams.reserve(objects_.size() * num_aeus_);
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    for (storage::ObjectId o = 0; o < objects_.size(); ++o) {
      storage::Partition* part = aeus_[a]->partition(o);
      streams.push_back(part->Flatten());
      meta.partitions.push_back(durability::PartitionMeta{
          o, a, part->range(), streams.back().size()});
    }
  }
  Status st = durability_->WriteSnapshot(
      meta, [&](size_t i) { return std::move(streams[i]); });
  if (!st.ok()) return st;
  // Publication point: after this rename+fsync the new snapshot is the
  // recovery base; before it, the old one. Never a mix.
  st = durability_->WriteCurrent(epoch);
  if (!st.ok()) return st;
  snapshot_epoch_ = epoch;
  // The log contents are redundant now. A crash before a Rotate() is
  // harmless: replay skips records at or below the watermark.
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    st = durability_->wal(a)->Rotate();
    if (!st.ok()) return st;
  }
  durability_->RemoveOldSnapshots(epoch);
  return Status::Ok();
}

std::string Engine::StatsReport() {
  std::ostringstream os;
  os << "engine: " << options_.topology.name() << ", " << num_aeus_
     << " AEUs, "
     << (options_.mode == ExecutionMode::kThreads ? "threads" : "simulated")
     << " mode\n";
  for (numa::NodeId node = 0; node < options_.topology.num_nodes(); ++node) {
    numa::MemoryStats m = memory_->manager(node).stats();
    os << "  node " << node << ": " << m.bytes_in_use() / 1024
       << " KiB in use, " << m.bytes_reserved / 1024 << " KiB reserved, "
       << m.allocations << " allocations\n";
  }
  for (storage::ObjectId o = 0; o < objects_.size(); ++o) {
    const storage::DataObjectDesc& d = *objects_[o];
    uint64_t tuples = 0;
    uint64_t bytes = 0;
    for (routing::AeuId a = 0; a < num_aeus_; ++a) {
      tuples += aeus_[a]->partition(o)->tuple_count();
      bytes += aeus_[a]->partition(o)->memory_bytes();
    }
    os << "  object " << o << " '" << d.name << "': " << tuples
       << " tuples, " << bytes / 1024 << " KiB";
    if (d.partitioning == storage::PartitioningKind::kRange) {
      os << ", " << router_->range_table(o)->size() << " ranges";
    } else if (d.partitioning == storage::PartitioningKind::kPhysical) {
      os << ", " << router_->bitmap_table(o)->count() << " holders";
    } else {
      os << ", hash partitioned";
    }
    os << "\n";
  }
  uint64_t commands = 0;
  uint64_t forwarded = 0;
  uint64_t deferred = 0;
  uint64_t coalesced = 0;
  uint64_t links = 0;
  uint64_t copies = 0;
  uint64_t expired = 0;
  uint64_t quarantined = 0;
  for (routing::AeuId a = 0; a < num_aeus_; ++a) {
    const AeuLoopStats& st = aeus_[a]->loop_stats();
    commands += st.commands_processed;
    forwarded += st.commands_forwarded;
    deferred += st.commands_deferred;
    coalesced += st.scans_coalesced;
    links += st.link_transfers;
    copies += st.copy_transfers;
    expired += st.commands_expired;
    quarantined += st.commands_quarantined;
  }
  os << "  AEUs: " << commands << " commands processed, " << forwarded
     << " forwarded, " << deferred << " deferred, " << coalesced
     << " scans coalesced, " << links << " link / " << copies
     << " copy transfers\n";
  os << "  overload: " << admission_->inflight() << "/"
     << admission_->budget() << " units in flight, "
     << admission_->rejections() << " admission rejections, " << expired
     << " commands expired, " << quarantined << " quarantined, "
     << watchdog_->stalled_count() << " AEUs stalled ("
     << watchdog_->stall_events() << " stall events)\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Engine::Session::Session(Engine* engine, numa::NodeId node)
    : engine_(engine),
      endpoint_(&engine->router(), routing::kInvalidAeu, node,
                &engine->memory().manager(node)) {}

std::unique_ptr<Engine::Session> Engine::CreateSession() {
  numa::NodeId node = static_cast<numa::NodeId>(
      session_counter_.fetch_add(1, std::memory_order_relaxed) %
      options_.topology.num_nodes());
  return std::make_unique<Session>(this, node);
}

std::unique_ptr<Engine::Session> Engine::CreateSessionOnNode(
    numa::NodeId node) {
  return std::make_unique<Session>(this, node);
}

void Engine::Session::Wait(uint64_t expected) {
  endpoint_.FlushAll();
  engine_->DriveUntil([&] {
    if (endpoint_.HasPending()) endpoint_.FlushAll();
    return sink_.completed() >= expected;
  });
}

uint64_t Engine::Session::Lookup(storage::ObjectId object,
                                 std::span<const storage::Key> keys) {
  sink_.Reset();
  size_t expected = endpoint_.SendLookupBatch(object, keys, &sink_);
  Wait(expected);
  return sink_.hits();
}

namespace {

/// Sink collecting per-key lookup results (for LookupValues).
class CollectSink : public routing::ResultSink {
 public:
  void OnLookupBatch(std::span<const storage::Key> keys,
                     std::span<const storage::Value> values,
                     std::span<const bool> found) override {
    std::lock_guard<SpinLock> guard(lock_);
    for (size_t i = 0; i < keys.size(); ++i) {
      results_[keys[i]] =
          found[i] ? std::optional<storage::Value>(values[i]) : std::nullopt;
    }
  }
  void OnCommandComplete(uint64_t units) override {
    completed_.fetch_add(units, std::memory_order_release);
  }
  uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  std::optional<storage::Value> Get(storage::Key key) const {
    auto it = results_.find(key);
    return it == results_.end() ? std::nullopt : it->second;
  }

 private:
  SpinLock lock_;
  std::unordered_map<storage::Key, std::optional<storage::Value>> results_;
  std::atomic<uint64_t> completed_{0};
};

}  // namespace

std::vector<std::optional<storage::Value>> Engine::Session::LookupValues(
    storage::ObjectId object, std::span<const storage::Key> keys) {
  CollectSink sink;
  size_t expected = endpoint_.SendLookupBatch(object, keys, &sink);
  endpoint_.FlushAll();
  engine_->DriveUntil([&] {
    if (endpoint_.HasPending()) endpoint_.FlushAll();
    return sink.completed() >= expected;
  });
  std::vector<std::optional<storage::Value>> out;
  out.reserve(keys.size());
  for (storage::Key k : keys) out.push_back(sink.Get(k));
  return out;
}

uint64_t Engine::Session::Insert(storage::ObjectId object,
                                 std::span<const routing::KeyValue> kvs) {
  sink_.Reset();
  size_t expected = endpoint_.SendWriteBatch(
      routing::CommandType::kInsertBatch, object, kvs, &sink_);
  Wait(expected);
  return sink_.hits();
}

uint64_t Engine::Session::Upsert(storage::ObjectId object,
                                 std::span<const routing::KeyValue> kvs) {
  sink_.Reset();
  size_t expected = endpoint_.SendWriteBatch(
      routing::CommandType::kUpsertBatch, object, kvs, &sink_);
  Wait(expected);
  return sink_.hits();
}

uint64_t Engine::Session::Erase(storage::ObjectId object,
                                std::span<const storage::Key> keys) {
  sink_.Reset();
  size_t expected = endpoint_.SendEraseBatch(object, keys, &sink_);
  Wait(expected);
  return sink_.hits();
}

void Engine::Session::Append(storage::ObjectId object,
                             std::span<const storage::Value> values) {
  sink_.Reset();
  size_t expected = endpoint_.SendAppendBatch(object, values, &sink_);
  Wait(expected);
}

Engine::Session::ColumnStats Engine::Session::ScanStats(
    storage::ObjectId object, storage::Value lo, storage::Value hi) {
  sink_.Reset();
  routing::ScanParams params;
  params.lo = lo;
  params.hi = hi;
  params.snapshot_ts = engine_->oracle().ReadTs();
  params.output = routing::ScanOutput::kStats;
  SnapshotTracker::Pin pin(&engine_->snapshots(), params.snapshot_ts);
  size_t expected = endpoint_.SendScanColumn(object, params, &sink_);
  Wait(expected);
  ColumnStats stats;
  stats.rows = sink_.hits();
  stats.sum = sink_.sum();
  stats.min = sink_.min();
  stats.max = sink_.max();
  stats.avg = stats.rows > 0
                  ? static_cast<double>(stats.sum) /
                        static_cast<double>(stats.rows)
                  : 0.0;
  return stats;
}

ScanResult Engine::Session::ScanColumn(storage::ObjectId object,
                                       storage::Value lo, storage::Value hi) {
  sink_.Reset();
  routing::ScanParams params;
  params.lo = lo;
  params.hi = hi;
  params.snapshot_ts = engine_->oracle().ReadTs();
  // Pin the snapshot so idle-time MVCC maintenance cannot reclaim the
  // versions this scan reads.
  SnapshotTracker::Pin pin(&engine_->snapshots(), params.snapshot_ts);
  size_t expected = endpoint_.SendScanColumn(object, params, &sink_);
  Wait(expected);
  return ScanResult{sink_.hits(), sink_.sum()};
}

ScanResult Engine::Session::ScanIndexRange(storage::ObjectId object,
                                           storage::Key key_lo,
                                           storage::Key key_hi) {
  sink_.Reset();
  routing::ScanParams params;  // no value filter
  size_t expected =
      endpoint_.SendScanIndexRange(object, key_lo, key_hi, params, &sink_);
  Wait(expected);
  return ScanResult{sink_.hits(), sink_.sum()};
}

void Engine::Session::Fence() {
  sink_.Reset();
  uint64_t expected = 0;
  for (routing::AeuId a = 0; a < engine_->num_aeus(); ++a) {
    expected += endpoint_.SendControl(a, routing::CommandType::kFence, 0, {},
                                      &sink_);
  }
  Wait(expected);
}

// ---------------------------------------------------------------------------
// Overload-aware submits
// ---------------------------------------------------------------------------

bool Engine::Session::WaitForUnits(routing::AggregateSink* sink,
                                   uint64_t expected, uint64_t deadline_abs) {
  // Grace past the deadline: an expired command is only counted when the
  // target AEU dequeues it, so the wait extends slightly beyond the
  // deadline to observe the drop before bailing.
  constexpr uint64_t kGraceNs = 2'000'000;
  endpoint_.FlushAll();
  uint64_t idle = 0;
  while (sink->completed() < expected) {
    if (endpoint_.HasPending()) endpoint_.FlushAll();
    bool progress = false;
    if (engine_->options().mode == ExecutionMode::kSimulated ||
        !engine_->started()) {
      progress = engine_->PumpAll();
    } else {
      std::this_thread::yield();
    }
    if (deadline_abs != 0) {
      if (MonotonicNanos() > deadline_abs + kGraceNs) {
        return sink->completed() >= expected;
      }
    } else {
      // No deadline: keep the quiesced-engine abort of DriveUntil so a
      // submit that can never complete fails loudly instead of hanging.
      if (engine_->options().mode == ExecutionMode::kSimulated ||
          !engine_->started()) {
        idle = progress ? 0 : idle + 1;
        ERIS_CHECK_LT(idle, 1u << 22)
            << "engine quiesced without completing the submit";
      }
    }
  }
  return true;
}

Status Engine::Session::SubmitCommon(
    uint64_t admission_units,
    const std::function<size_t(routing::AggregateSink*)>& send,
    SubmitOutcome* out,
    const std::function<void(const routing::AggregateSink&)>& observe) {
  AdmissionController& adm = engine_->admission();
  if (!adm.TryAcquire(admission_units)) {
    if (out != nullptr) *out = SubmitOutcome{};
    return Status::ResourceExhausted("in-flight unit budget exhausted")
        .WithDetail(StatusDetail::kAdmissionRejected,
                    "admission controller rejected the submit");
  }
  uint64_t timeout_ns =
      op_timeout_ns_ != 0 ? op_timeout_ns_
                          : engine_->options().overload.default_deadline_ns;
  uint64_t deadline_abs = timeout_ns != 0 ? MonotonicNanos() + timeout_ns : 0;
  // Heap sink: if the wait bails on its deadline with units still in
  // flight, the sink is retired to the engine instead of destroyed under
  // late completions.
  auto sink = std::make_unique<routing::AggregateSink>();
  endpoint_.set_deadline_ns(deadline_abs);
  uint64_t expected = send(sink.get());
  endpoint_.set_deadline_ns(0);
  bool complete = WaitForUnits(sink.get(), expected, deadline_abs);

  if (out != nullptr) {
    out->units = expected;
    out->hits = sink->hits();
    out->shed = sink->dropped(routing::DropReason::kRetryExhausted);
    out->stalled = sink->dropped(routing::DropReason::kTargetStalled);
    out->expired = sink->dropped(routing::DropReason::kExpired);
    out->quarantined = sink->dropped(routing::DropReason::kQuarantined);
    out->wal_sealed = sink->dropped(routing::DropReason::kWalSealed);
    out->alloc_failed = sink->dropped(routing::DropReason::kAllocFailed);
  }
  // Release the full grant even when units are still in flight after a
  // bail-out: admission bounds concurrent submits, not mailbox residency,
  // and a stuck grant would leak budget forever.
  adm.Release(admission_units);
  if (!complete) {
    engine_->RetireSink(std::move(sink));
    return Status::DeadlineExceeded("submit timed out")
        .WithDetail(StatusDetail::kDeadlineExpired,
                    "completion units still in flight at the deadline");
  }
  if (observe) observe(*sink);
  return DropStatus(*sink);
}

Status DropStatus(const routing::AggregateSink& sink) {
  using routing::DropReason;
  if (sink.dropped(DropReason::kQuarantined) > 0) {
    return Status::Internal("poison command quarantined")
        .WithDetail(StatusDetail::kCommandQuarantined,
                    "command dead-lettered after repeated handler crashes");
  }
  if (sink.dropped(DropReason::kTargetStalled) > 0) {
    return Status::Unavailable("target AEU stalled")
        .WithDetail(StatusDetail::kAeuStalled,
                    "commands shed fail-fast for a quarantined AEU");
  }
  if (sink.dropped(DropReason::kWalSealed) > 0) {
    return Status::Unavailable("write lost: WAL sealed")
        .WithDetail(StatusDetail::kWalSealed,
                    "target AEU's log sealed fail-stop on an I/O error");
  }
  if (sink.dropped(DropReason::kAllocFailed) > 0) {
    return Status::ResourceExhausted("arena allocation failed")
        .WithDetail(StatusDetail::kAllocFailed,
                    "hot-path arena/pool could not grow; command shed");
  }
  if (sink.dropped(DropReason::kRetryExhausted) > 0) {
    return Status::ResourceExhausted("delivery retries exhausted")
        .WithDetail(StatusDetail::kBufferFull,
                    "target incoming buffer stayed full past the retry cap");
  }
  if (sink.dropped(DropReason::kExpired) > 0) {
    return Status::DeadlineExceeded("command deadline expired")
        .WithDetail(StatusDetail::kDeadlineExpired,
                    "dropped at dequeue after the deadline passed");
  }
  return Status::Ok();
}

Status Engine::Session::CheckWritable(SubmitOutcome* out) {
  if (!engine_->degraded()) return Status::Ok();
  // Degraded read-only mode (DESIGN.md §15): shed writes at the session
  // boundary, before they acquire admission units or touch any mailbox.
  // Reads (SubmitLookup/SubmitScanStats and the query layer) keep serving.
  engine_->admission().RecordRejection();
  if (out != nullptr) *out = SubmitOutcome{};
  std::string reason = engine_->degraded_reason();
  return Status::Unavailable("engine degraded read-only: " + reason)
      .WithDetail(StatusDetail::kReadOnly, reason);
}

Status Engine::Session::SubmitInsert(storage::ObjectId object,
                                     std::span<const routing::KeyValue> kvs,
                                     SubmitOutcome* out) {
  ERIS_RETURN_NOT_OK(CheckWritable(out));
  return SubmitCommon(kvs.size(), [&](routing::AggregateSink* sink) {
    return endpoint_.SendWriteBatch(routing::CommandType::kInsertBatch,
                                    object, kvs, sink);
  }, out);
}

Status Engine::Session::SubmitUpsert(storage::ObjectId object,
                                     std::span<const routing::KeyValue> kvs,
                                     SubmitOutcome* out) {
  ERIS_RETURN_NOT_OK(CheckWritable(out));
  return SubmitCommon(kvs.size(), [&](routing::AggregateSink* sink) {
    return endpoint_.SendWriteBatch(routing::CommandType::kUpsertBatch,
                                    object, kvs, sink);
  }, out);
}

Status Engine::Session::SubmitErase(storage::ObjectId object,
                                    std::span<const storage::Key> keys,
                                    SubmitOutcome* out) {
  ERIS_RETURN_NOT_OK(CheckWritable(out));
  return SubmitCommon(keys.size(), [&](routing::AggregateSink* sink) {
    return endpoint_.SendEraseBatch(object, keys, sink);
  }, out);
}

Status Engine::Session::SubmitLookup(storage::ObjectId object,
                                     std::span<const storage::Key> keys,
                                     SubmitOutcome* out) {
  return SubmitCommon(keys.size(), [&](routing::AggregateSink* sink) {
    return endpoint_.SendLookupBatch(object, keys, sink);
  }, out);
}

Status Engine::Session::SubmitAppend(storage::ObjectId object,
                                     std::span<const storage::Value> values,
                                     SubmitOutcome* out) {
  ERIS_RETURN_NOT_OK(CheckWritable(out));
  return SubmitCommon(values.size(), [&](routing::AggregateSink* sink) {
    return endpoint_.SendAppendBatch(object, values, sink);
  }, out);
}

Status Engine::Session::SubmitScanStats(storage::ObjectId object,
                                        storage::Value lo, storage::Value hi,
                                        ColumnStats* stats,
                                        SubmitOutcome* out) {
  routing::ScanParams params;
  params.lo = lo;
  params.hi = hi;
  params.snapshot_ts = engine_->oracle().ReadTs();
  params.output = routing::ScanOutput::kStats;
  SnapshotTracker::Pin pin(&engine_->snapshots(), params.snapshot_ts);
  return SubmitCommon(
      1,
      [&](routing::AggregateSink* sink) {
        return endpoint_.SendScanColumn(object, params, sink);
      },
      out,
      [&](const routing::AggregateSink& sink) {
        if (stats == nullptr) return;
        stats->rows = sink.hits();
        stats->sum = sink.sum();
        stats->min = sink.min();
        stats->max = sink.max();
        stats->avg = stats->rows > 0
                         ? static_cast<double>(stats->sum) /
                               static_cast<double>(stats->rows)
                         : 0.0;
      });
}

}  // namespace eris::core
