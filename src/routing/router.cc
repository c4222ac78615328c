#include "routing/router.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace eris::routing {

uint64_t JitteredBackoffNs(const DeliveryRetryPolicy& policy, uint32_t attempt,
                           Xoshiro256& rng) {
  if (policy.backoff_base_ns == 0) return 0;
  uint32_t shift = attempt > 0 ? attempt - 1 : 0;
  // Beyond ~2^40x the clamp below always wins; avoid shift overflow.
  uint64_t exp = shift >= 40 ? policy.backoff_max_ns
                             : policy.backoff_base_ns << shift;
  exp = std::min(std::max(exp, policy.backoff_base_ns), policy.backoff_max_ns);
  double factor = 1.0 + policy.jitter * (2.0 * rng.NextDouble() - 1.0);
  if (factor < 0.0) factor = 0.0;
  return static_cast<uint64_t>(static_cast<double>(exp) * factor);
}

Router::Router(std::vector<numa::NodeId> aeu_nodes, RouterConfig config)
    : aeu_nodes_(std::move(aeu_nodes)), config_(config) {
  ERIS_CHECK(!aeu_nodes_.empty());
  // Objects can be registered while the engine runs (query-layer
  // intermediates); reserving up front keeps readers safe from
  // reallocation.
  objects_.reserve(kMaxObjects);
  mailboxes_.reserve(aeu_nodes_.size());
  stalled_ = std::make_unique<std::atomic<uint8_t>[]>(aeu_nodes_.size());
  for (size_t i = 0; i < aeu_nodes_.size(); ++i) {
    mailboxes_.push_back(
        std::make_unique<IncomingBufferPair>(config_.incoming_capacity_bytes));
    stalled_[i].store(0, std::memory_order_relaxed);
  }
}

void Router::RegisterRangeObject(const storage::DataObjectDesc& desc,
                                 storage::Key domain_hi) {
  ERIS_CHECK_EQ(desc.id, objects_.size())
      << "objects must be registered with consecutive ids";
  ERIS_CHECK_LT(objects_.size(), kMaxObjects);
  ERIS_CHECK(desc.partitioning == storage::PartitioningKind::kRange);
  auto routing = std::make_unique<ObjectRouting>();
  routing->kind = storage::PartitioningKind::kRange;
  std::vector<AeuId> all(num_aeus());
  for (AeuId a = 0; a < num_aeus(); ++a) all[a] = a;
  routing->range = std::make_unique<RangePartitionTable>(
      RangePartitionTable::UniformEntries(all, domain_hi));
  objects_.push_back(std::move(routing));
}

void Router::RegisterPhysicalObject(const storage::DataObjectDesc& desc) {
  ERIS_CHECK_EQ(desc.id, objects_.size())
      << "objects must be registered with consecutive ids";
  ERIS_CHECK_LT(objects_.size(), kMaxObjects);
  ERIS_CHECK(desc.partitioning == storage::PartitioningKind::kPhysical);
  auto routing = std::make_unique<ObjectRouting>();
  routing->kind = storage::PartitioningKind::kPhysical;
  routing->bitmap = std::make_unique<BitmapPartitionTable>(num_aeus());
  // Physically partitioned objects start spread over every AEU.
  for (AeuId a = 0; a < num_aeus(); ++a) routing->bitmap->Set(a, true);
  objects_.push_back(std::move(routing));
}

void Router::RegisterHashedObject(const storage::DataObjectDesc& desc) {
  ERIS_CHECK_EQ(desc.id, objects_.size())
      << "objects must be registered with consecutive ids";
  ERIS_CHECK_LT(objects_.size(), kMaxObjects);
  ERIS_CHECK(desc.partitioning == storage::PartitioningKind::kHashed);
  auto routing = std::make_unique<ObjectRouting>();
  routing->kind = storage::PartitioningKind::kHashed;
  objects_.push_back(std::move(routing));
}

void Router::OwnersOfKeys(storage::ObjectId object,
                          std::span<const storage::Key> keys,
                          AeuId* owners) const {
  const ObjectRouting& routing = *objects_[object];
  if (routing.kind == storage::PartitioningKind::kHashed) {
    const uint64_t n = num_aeus();
    for (size_t i = 0; i < keys.size(); ++i) {
      owners[i] = static_cast<AeuId>(Mix64(keys[i]) % n);
    }
    return;
  }
  ERIS_CHECK(routing.range != nullptr) << "keyed command on non-keyed object";
  if (config_.batch_owner_lookup) {
    routing.range->BatchOwnerOf(keys, owners);
  } else {
    routing.range->OwnersOf(keys, owners);
  }
}

std::vector<AeuId> Router::OwnersOfKeyRange(storage::ObjectId object,
                                            storage::Key lo,
                                            storage::Key hi) const {
  const ObjectRouting& routing = *objects_[object];
  if (routing.kind == storage::PartitioningKind::kHashed) {
    // Hash partitioning is not order preserving: a range scan must visit
    // every partition (the cost the paper avoids with range partitioning).
    std::vector<AeuId> all(num_aeus());
    for (AeuId a = 0; a < num_aeus(); ++a) all[a] = a;
    return all;
  }
  ERIS_CHECK(routing.range != nullptr);
  return routing.range->OwnersOfRange(lo, hi);
}

AeuId Router::PickAppendTarget(storage::ObjectId object) {
  ObjectRouting& routing = *objects_[object];
  ERIS_CHECK(routing.bitmap != nullptr);
  std::vector<AeuId> owners = routing.bitmap->Owners();
  ERIS_CHECK(!owners.empty()) << "physical object with no partitions";
  uint64_t c =
      routing.append_cursor.fetch_add(1, std::memory_order_relaxed);
  return owners[c % owners.size()];
}

Endpoint::Endpoint(Router* router, AeuId source, numa::NodeId node,
                   numa::NodeMemoryManager* memory)
    : router_(router),
      source_(source),
      node_(node),
      outgoing_(router->num_aeus(), memory),
      flush_retry_hist_(0.0, static_cast<double>(router->num_aeus()),
                        router->num_aeus()),
      backoff_rng_(router->config().retry.seed ^ Mix64(source + 1)),
      retry_(memory),
      owners_(memory),
      keys_(memory),
      group_order_(memory),
      bucket_count_(memory),
      chunk_(memory),
      pieces_(memory) {
  retry_.assign(router->num_aeus(), TargetRetry{});
}

void Endpoint::Unicast(AeuId target, const CommandHeader& header,
                       std::span<const uint8_t> payload) {
  ERIS_INJECT_POINT(kRouterUnicast);
  CommandHeader h = header;
  // Stamp the endpoint deadline unless the command carries its own (a
  // forwarded command keeps the deadline of the original submit).
  if (h.deadline_ns == 0) h.deadline_ns = deadline_ns_;
  // Injected exchange-stream allocation failure: shed the command with a
  // typed drop (ResourceExhausted at the session) instead of growing.
  if (ERIS_INJECT_SHOULD_FAIL(kExchangeStreamAlloc)) {
    h.payload_bytes = static_cast<uint32_t>(payload.size());
    uint64_t units = CommandUnits(CommandView{h, payload.data()});
    stats_.units_shed += units;
    ++stats_.commands_shed;
    if (h.sink != nullptr)
      h.sink->OnCommandDropped(units, DropReason::kAllocFailed);
    return;
  }
  outgoing_.AppendUnicast(target, h, payload);
  ++stats_.commands_routed;
  if (outgoing_.PendingBytes(target) >=
      router_->config().flush_threshold_bytes) {
    FlushTarget(target);
  }
}

void Endpoint::Multicast(std::span<const AeuId> targets,
                         const CommandHeader& header,
                         std::span<const uint8_t> payload) {
  ERIS_INJECT_POINT(kRouterMulticast);
  CommandHeader h = header;
  if (h.deadline_ns == 0) h.deadline_ns = deadline_ns_;
  if (ERIS_INJECT_SHOULD_FAIL(kExchangeStreamAlloc)) {
    h.payload_bytes = static_cast<uint32_t>(payload.size());
    uint64_t units = CommandUnits(CommandView{h, payload.data()});
    for (AeuId t : targets) {
      (void)t;
      stats_.units_shed += units;
      ++stats_.commands_shed;
      if (h.sink != nullptr)
        h.sink->OnCommandDropped(units, DropReason::kAllocFailed);
    }
    return;
  }
  outgoing_.AppendMulticast(targets, h, payload);
  stats_.commands_routed += targets.size();
  for (AeuId t : targets) {
    if (outgoing_.PendingBytes(t) >= router_->config().flush_threshold_bytes) {
      FlushTarget(t);
    }
  }
}

void Endpoint::ShedTarget(AeuId target, DropReason reason) {
  size_t records = outgoing_.DropPending(target, &pieces_, [&](
                                             const CommandView& v) {
    uint64_t units = CommandUnits(v);
    stats_.units_shed += units;
    if (v.header.sink != nullptr) v.header.sink->OnCommandDropped(units, reason);
  });
  stats_.commands_shed += records;
}

bool Endpoint::RecordFlushFailure(AeuId target) {
  flush_retry_hist_.Add(static_cast<double>(target));
  const DeliveryRetryPolicy& rp = router_->config().retry;
  TargetRetry& rs = retry_[target];
  ++rs.attempts;
  if (rp.max_attempts != 0 && rs.attempts >= rp.max_attempts) {
    // Bounded retry exhausted: shed instead of spinning forever.
    rs.attempts = 0;
    ShedTarget(target, DropReason::kRetryExhausted);
    return true;  // backlog cleared (by shedding)
  }
  if (rp.pace_with_time) {
    rs.next_attempt_ns =
        MonotonicNanos() + JitteredBackoffNs(rp, rs.attempts, backoff_rng_);
  }
  return false;
}

bool Endpoint::FlushTarget(AeuId target) {
  // Fail fast on a quarantined target: commands routed to a stalled AEU
  // are shed immediately so producers (and Drain barriers) never block on
  // a mailbox nobody drains.
  if (router_->IsAeuStalled(target)) {
    ShedTarget(target, DropReason::kTargetStalled);
    retry_[target].attempts = 0;
    return true;
  }
  TargetRetry& rs = retry_[target];
  const DeliveryRetryPolicy& rp = router_->config().retry;
  // Backoff gate: after a failed delivery, wait out the jittered delay
  // before touching the mailbox again (kThreads engines only).
  if (rp.pace_with_time && rs.attempts > 0 &&
      MonotonicNanos() < rs.next_attempt_ns) {
    return false;
  }
  // Injected rejected delivery: identical to the target's incoming buffer
  // being full — the commands stay buffered and the caller retries.
  if (ERIS_INJECT_SHOULD_FAIL(kRouterFlush)) return RecordFlushFailure(target);
  ERIS_INJECT_POINT(kRouterFlush);
  IncomingBufferPair& mailbox = router_->mailbox(target);
  while (outgoing_.HasPending(target)) {
    OutgoingSet::Consumption consumed =
        outgoing_.GatherUpTo(target, mailbox.capacity(), &pieces_);
    if (consumed.total_bytes == 0) return true;  // nothing deliverable
    if (!mailbox.TryWriteGather(pieces_)) return RecordFlushFailure(target);
    rs.attempts = 0;  // consecutive-failure cap: any success resets
    ++stats_.flushes;
    stats_.bytes_flushed += consumed.total_bytes;
    if (sim::ResourceUsage* usage = router_->resource_usage()) {
      usage->AddRoutedBytes(node_, router_->NodeOfAeu(target),
                            consumed.total_bytes);
    }
    outgoing_.Consume(target, consumed);
  }
  return true;
}

bool Endpoint::FlushAll() {
  bool all_delivered = true;
  for (AeuId t = 0; t < outgoing_.num_targets(); ++t) {
    if (outgoing_.HasPending(t)) all_delivered &= FlushTarget(t);
  }
  return all_delivered;
}

namespace {
inline storage::Key KeyOf(storage::Key k) { return k; }
inline storage::Key KeyOf(const KeyValue& kv) { return kv.key; }

template <typename T>
std::span<const uint8_t> AsBytes(std::span<const T> s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size_bytes()};
}
}  // namespace

template <typename E>
size_t Endpoint::SendKeyed(CommandType type, storage::ObjectId object,
                           std::span<const E> elements, ResultSink* sink) {
  const size_t n = elements.size();
  if (n == 0) return 0;

  // Step 1: batch lookup of responsible AEUs (range table or key hash).
  // Keys are copied out first so the partition table sees one dense array
  // regardless of the element type (Key or KeyValue).
  owners_.resize(n);
  keys_.resize(n);
  for (size_t i = 0; i < n; ++i) keys_[i] = KeyOf(elements[i]);
  router_->OwnersOfKeys(object, keys_, owners_.data());

  // Step 2: split per target. Stable counting sort of indices by owner
  // (targets can number in the hundreds; only touched buckets are visited).
  group_order_.resize(n);
  bucket_count_.assign(router_->num_aeus() + 1, 0);
  for (size_t i = 0; i < n; ++i) bucket_count_[owners_[i] + 1]++;
  for (size_t a = 1; a < bucket_count_.size(); ++a)
    bucket_count_[a] += bucket_count_[a - 1];
  for (size_t i = 0; i < n; ++i)
    group_order_[bucket_count_[owners_[i]]++] = static_cast<uint32_t>(i);

  const size_t max_elems = router_->config().max_batch_elements;
  CommandHeader header;
  header.type = type;
  header.object = static_cast<uint16_t>(object);
  header.source = source_;
  header.sink = sink;

  size_t pos = 0;
  while (pos < n) {
    AeuId target = owners_[group_order_[pos]];
    size_t end = pos;
    chunk_.clear();
    while (end < n && owners_[group_order_[end]] == target &&
           end - pos < max_elems) {
      const E& e = elements[group_order_[end]];
      chunk_.append(reinterpret_cast<const uint8_t*>(&e), sizeof(E));
      ++end;
    }
    Unicast(target, header, chunk_);
    pos = end;
  }
  // Keyed batches complete per element; the caller waits for n units.
  return n;
}

size_t Endpoint::SendLookupBatch(storage::ObjectId object,
                                 std::span<const storage::Key> keys,
                                 ResultSink* sink) {
  return SendKeyed<storage::Key>(CommandType::kLookupBatch, object, keys,
                                 sink);
}

size_t Endpoint::SendWriteBatch(CommandType type, storage::ObjectId object,
                                std::span<const KeyValue> kvs,
                                ResultSink* sink) {
  ERIS_CHECK(type == CommandType::kInsertBatch ||
             type == CommandType::kUpsertBatch);
  return SendKeyed<KeyValue>(type, object, kvs, sink);
}

size_t Endpoint::SendEraseBatch(storage::ObjectId object,
                                std::span<const storage::Key> keys,
                                ResultSink* sink) {
  return SendKeyed<storage::Key>(CommandType::kEraseBatch, object, keys,
                                 sink);
}

size_t Endpoint::SendAppendBatch(storage::ObjectId object,
                                 std::span<const storage::Value> values,
                                 ResultSink* sink) {
  CommandHeader header;
  header.type = CommandType::kAppendBatch;
  header.object = static_cast<uint16_t>(object);
  header.source = source_;
  header.sink = sink;
  const size_t max_elems = router_->config().max_batch_elements;
  size_t commands = 0;
  for (size_t pos = 0; pos < values.size(); pos += max_elems) {
    size_t len = std::min(max_elems, values.size() - pos);
    AeuId target = router_->PickAppendTarget(object);
    Unicast(target, header, AsBytes(values.subspan(pos, len)));
    ++commands;
  }
  return commands;
}

size_t Endpoint::SendAppendTo(AeuId target, storage::ObjectId object,
                              std::span<const storage::Value> values,
                              ResultSink* sink) {
  CommandHeader header;
  header.type = CommandType::kAppendBatch;
  header.object = static_cast<uint16_t>(object);
  header.source = source_;
  header.sink = sink;
  const size_t max_elems = router_->config().max_batch_elements;
  size_t commands = 0;
  for (size_t pos = 0; pos < values.size(); pos += max_elems) {
    size_t len = std::min(max_elems, values.size() - pos);
    Unicast(target, header, AsBytes(values.subspan(pos, len)));
    ++commands;
  }
  return commands;
}

size_t Endpoint::SendScanColumn(storage::ObjectId object,
                                const ScanParams& params, ResultSink* sink) {
  BitmapPartitionTable* bitmap = router_->bitmap_table(object);
  ERIS_CHECK(bitmap != nullptr) << "column scan on non-physical object";
  std::vector<AeuId> owners = bitmap->Owners();
  if (owners.empty()) return 0;
  CommandHeader header;
  header.type = CommandType::kScanColumn;
  header.object = static_cast<uint16_t>(object);
  header.source = source_;
  header.sink = sink;
  std::span<const ScanParams> one(&params, 1);
  Multicast(owners, header, AsBytes(one));
  return owners.size();
}

namespace {
template <typename P>
std::span<const uint8_t> OneAsBytes(const P& p) {
  return {reinterpret_cast<const uint8_t*>(&p), sizeof(P)};
}
}  // namespace

size_t Endpoint::SendPipeline(const PipelineParams& params, ResultSink* sink) {
  BitmapPartitionTable* bitmap = router_->bitmap_table(params.filter_object);
  ERIS_CHECK(bitmap != nullptr) << "pipeline on non-physical filter column";
  std::vector<AeuId> owners = bitmap->Owners();
  if (owners.empty()) return 0;
  CommandHeader header;
  header.type = CommandType::kPipeline;
  header.object = static_cast<uint16_t>(params.filter_object);
  header.source = source_;
  header.sink = sink;
  Multicast(owners, header, OneAsBytes(params));
  return owners.size();
}

size_t Endpoint::SendJoinPhase(CommandType type, const MergeJoinParams& params,
                               ResultSink* sink) {
  ERIS_CHECK(type == CommandType::kJoinScatter ||
             type == CommandType::kJoinMerge);
  // Scatter visits the owners of the side being scanned: S for MPSM (its
  // run is exchanged toward R's owners), R for the shared-hash baseline
  // (its keys are probed into hashed S). Merge visits every AEU — staged
  // entries may sit anywhere after a concurrent rebalance.
  storage::ObjectId scanned = params.r_object;
  std::vector<AeuId> owners;
  if (type == CommandType::kJoinScatter) {
    if (params.strategy != JoinStrategy::kSharedHash) scanned = params.s_object;
    owners = router_->OwnersOfKeyRange(scanned, 0, ~storage::Key{0});
  } else {
    owners.resize(router_->num_aeus());
    for (AeuId a = 0; a < router_->num_aeus(); ++a) owners[a] = a;
  }
  if (owners.empty()) return 0;
  CommandHeader header;
  header.type = type;
  header.object = static_cast<uint16_t>(scanned);
  header.source = source_;
  header.sink = sink;
  Multicast(owners, header, OneAsBytes(params));
  return owners.size();
}

size_t Endpoint::SendJoinStage(storage::ObjectId r_object,
                               const JoinStageParams& params,
                               std::span<const KeyValue> entries,
                               ResultSink* sink) {
  const size_t n = entries.size();
  if (n == 0) return 0;
  owners_.resize(n);
  keys_.resize(n);
  for (size_t i = 0; i < n; ++i) keys_[i] = entries[i].key;
  router_->OwnersOfKeys(r_object, keys_, owners_.data());

  group_order_.resize(n);
  bucket_count_.assign(router_->num_aeus() + 1, 0);
  for (size_t i = 0; i < n; ++i) bucket_count_[owners_[i] + 1]++;
  for (size_t a = 1; a < bucket_count_.size(); ++a)
    bucket_count_[a] += bucket_count_[a - 1];
  for (size_t i = 0; i < n; ++i)
    group_order_[bucket_count_[owners_[i]]++] = static_cast<uint32_t>(i);

  const size_t max_elems = router_->config().max_batch_elements;
  CommandHeader header;
  header.type = CommandType::kJoinStage;
  header.object = static_cast<uint16_t>(r_object);
  header.source = source_;
  header.sink = sink;

  size_t commands = 0;
  size_t pos = 0;
  while (pos < n) {
    AeuId target = owners_[group_order_[pos]];
    size_t end = pos;
    chunk_.clear();
    chunk_.append(reinterpret_cast<const uint8_t*>(&params), sizeof(params));
    while (end < n && owners_[group_order_[end]] == target &&
           end - pos < max_elems) {
      const KeyValue& e = entries[group_order_[end]];
      chunk_.append(reinterpret_cast<const uint8_t*>(&e), sizeof(KeyValue));
      ++end;
    }
    Unicast(target, header, chunk_);
    ++commands;
    pos = end;
  }
  return commands;
}

size_t Endpoint::SendScanIndexRange(storage::ObjectId object, storage::Key lo,
                                    storage::Key hi, const ScanParams& params,
                                    ResultSink* sink) {
  std::vector<AeuId> owners = router_->OwnersOfKeyRange(object, lo, hi);
  if (owners.empty()) return 0;
  IndexScanParams scan_params;
  scan_params.key_lo = lo;
  scan_params.key_hi = hi;
  scan_params.scan = params;
  CommandHeader header;
  header.type = CommandType::kScanIndexRange;
  header.object = static_cast<uint16_t>(object);
  header.source = source_;
  header.sink = sink;
  std::span<const IndexScanParams> one(&scan_params, 1);
  if (owners.size() == 1) {
    Unicast(owners[0], header, AsBytes(one));
  } else {
    Multicast(owners, header, AsBytes(one));
  }
  return owners.size();
}

size_t Endpoint::SendControl(AeuId target, CommandType type,
                             storage::ObjectId object,
                             std::span<const uint8_t> payload,
                             ResultSink* sink) {
  CommandHeader header;
  header.type = type;
  header.object = static_cast<uint16_t>(object);
  header.source = source_;
  header.sink = sink;
  Unicast(target, header, payload);
  return 1;
}

}  // namespace eris::routing
