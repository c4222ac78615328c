// The four workloads (see README.md for why each exists) and the runner
// that sets them up, measures them and derives their metrics.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_util/workload.h"
#include "common/rng.h"
#include "durability/wal.h"
#include "harness.h"
#include "query/pipeline.h"
#include "query/query.h"

namespace perfbench {

using namespace eris;
using storage::Key;
using storage::Value;

namespace {

// --- Shared constants --------------------------------------------------------

constexpr uint64_t kIndexKeys = uint64_t{1} << 22;
constexpr uint32_t kIndexKeyBits = 22;
constexpr size_t kBatch = 64;
/// Keys drawn per workload; requests cycle through them.
constexpr size_t kPoolKeys = size_t{1} << 20;
constexpr size_t kLoadBatch = 8192;
/// Engine set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
constexpr uint64_t kWarmupRequests = 2000;
/// Upper bound on spans kept by one traced run.
constexpr size_t kSpanCapacity = size_t{1} << 21;

/// Value the index is loaded with for `key`.
Value InitialValue(uint64_t seed, Key key) {
  return Mix64(key ^ Mix64(seed));
}

enum Kind { kLookup = 0, kUpsert, kAggregate, kPipeline, kScan, kNumKinds };

/// What one measured phase produced.
struct Phase {
  LatencyLog kind[kNumKinds];
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t start_ns = NowNs();
  double seconds = 0;
  /// Completions per 1-second window since start_ns.
  std::vector<uint64_t> window_completions;
  // skew_rebalance only
  uint64_t rebalance_calls = 0;
  uint64_t rebalances_triggered = 0;
  LatencyLog rebalance_triggered_ns;
  // durable_mixed only: upserted key/value bytes
  uint64_t upserted_bytes = 0;

  void Record(Kind k, uint64_t ns, bool ok) {
    kind[k].Add(ns);
    ++requests;
    size_t w = (NowNs() - start_ns) / 1'000'000'000;
    if (w >= window_completions.size()) window_completions.resize(w + 1, 0);
    ++window_completions[w];
    if (!ok) ++failed;
  }
};

/// \brief One workload: a fresh engine per Setup, closed-loop requests.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds, loads and warms up a fresh engine (dropping the previous one);
  /// returns the set-up seconds, excluding input generation. Failed loads
  /// or warm-up requests are added to `warmup_failed_`.
  virtual double Setup() = 0;
  /// Runs closed-loop requests until `deadline_ns`; every result is
  /// checked. `rec` (null or enabled) records spans.
  virtual void Run(uint64_t deadline_ns, SpanRecorder* rec, Phase* p) = 0;
  virtual core::Engine* engine() = 0;
  /// Client endpoint counters summed over the workload's sessions (owned
  /// by the client thread, so always safe to read).
  virtual routing::EndpointStats endpoint_stats() = 0;
  /// Key/value bytes loaded into the engine.
  virtual double user_bytes() const = 0;
  /// Workload-specific per-layer metrics (traced run).
  virtual void LayerMetrics(const Counters& d, const Phase& p,
                            RunResult* r) = 0;

  uint64_t warmup_attempted() const { return warmup_attempted_; }
  uint64_t warmup_failed() const { return warmup_failed_; }

 protected:
  uint64_t warmup_attempted_ = 0;
  uint64_t warmup_failed_ = 0;
};

routing::EndpointStats Sum(routing::EndpointStats a,
                           const routing::EndpointStats& b) {
  a.commands_routed += b.commands_routed;
  a.bytes_flushed += b.bytes_flushed;
  a.flushes += b.flushes;
  a.commands_shed += b.commands_shed;
  a.units_shed += b.units_shed;
  return a;
}

routing::EndpointStats Minus(routing::EndpointStats a,
                             const routing::EndpointStats& b) {
  a.commands_routed -= b.commands_routed;
  a.bytes_flushed -= b.bytes_flushed;
  a.flushes -= b.flushes;
  a.commands_shed -= b.commands_shed;
  a.units_shed -= b.units_shed;
  return a;
}

/// Flushes the filesystem holding `dir`. Deleting a large WAL on a
/// filesystem mounted with online discard queues discards that stall the
/// next journal commits; flushing here keeps that cost out of the
/// measurement.
void SyncFs(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// Empties `dir` (a previous set-up's WAL) and settles the filesystem.
void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SyncFs(dir);
}

// --- Index workloads ---------------------------------------------------------

/// Common part of point_read, durable_mixed and skew_rebalance: a
/// range-partitioned prefix-tree index of kIndexKeys dense keys.
class IndexWorkload : public Workload {
 public:
  IndexWorkload(const Args& args, std::string wal_dir)
      : args_(args), wal_dir_(std::move(wal_dir)) {}

  double Setup() override {
    session_.reset();
    engine_.reset();
    ResetStream();
    if (!wal_dir_.empty()) ResetDir(wal_dir_);
    uint64_t t0 = NowNs();
    engine_ = std::make_unique<core::Engine>(BenchEngineOptions(wal_dir_));
    idx_ = engine_->CreateIndex(
        "kv", kIndexKeys, {.prefix_bits = 8, .key_bits = kIndexKeyBits});
    engine_->Start();
    session_ = engine_->CreateSession();
    std::vector<routing::KeyValue> kvs;
    uint64_t inserted = 0;
    for (Key k = 0; k < kIndexKeys;) {
      kvs.clear();
      for (size_t i = 0; i < kLoadBatch && k < kIndexKeys; ++i, ++k) {
        kvs.push_back({k, InitialValue(args_.seed, k)});
      }
      inserted += session_->Insert(idx_, kvs);
    }
    ++warmup_attempted_;
    if (inserted != kIndexKeys) ++warmup_failed_;
    Phase warm;
    RunRequests(~uint64_t{0}, kWarmupRequests, nullptr, &warm);
    warmup_attempted_ += warm.requests;
    warmup_failed_ += warm.failed;
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  void Run(uint64_t deadline_ns, SpanRecorder* rec, Phase* p) override {
    RunRequests(deadline_ns, ~uint64_t{0}, rec, p);
  }

  core::Engine* engine() override { return engine_.get(); }
  routing::EndpointStats endpoint_stats() override {
    return session_->endpoint().stats();
  }
  double user_bytes() const override {
    return static_cast<double>(kIndexKeys * sizeof(routing::KeyValue));
  }

  void LayerMetrics(const Counters&, const Phase&, RunResult* r) override {
    // The replayed partition is AEU 0's initial range.
    const uint64_t range_hi = kIndexKeys / 3;
    std::vector<uint64_t> keys = ReplayKeys(range_hi);
    keys.resize(keys.size() / kBatch * kBatch);
    r->Set("storage.batch_lookup_ns_per_key",
           ReplayBatchLookupNsPerKey(range_hi, kIndexKeyBits, keys), "ns");
  }

 protected:
  /// Restarts the workload's input stream (called by every Setup).
  virtual void ResetStream() = 0;
  virtual void RunRequests(uint64_t deadline_ns, uint64_t max_requests,
                           SpanRecorder* rec, Phase* p) = 0;
  /// The workload's lookup keys that fall below `range_hi`.
  virtual std::vector<uint64_t> ReplayKeys(uint64_t range_hi) const = 0;

  /// One 64-key lookup through the session, 1 request in flight; checks
  /// the hit count and the value sum. The traced form issues the same
  /// calls Session::Lookup makes, with a span around each.
  void TimedLookup(std::span<const Key> keys, uint64_t expected_sum,
                   SpanRecorder* rec, uint64_t request, Phase* p) {
    core::Engine::Session& s = *session_;
    uint64_t t0 = NowNs();
    if (rec == nullptr) {
      s.Lookup(idx_, keys);
    } else {
      ScopedSpan req(rec, SpanKind::kRequest, SpanRecorder::kNone, request);
      routing::Endpoint& ep = s.endpoint();
      routing::AggregateSink& sink = s.sink();
      sink.Reset();
      size_t expected;
      {
        ScopedSpan span(rec, SpanKind::kSend, req.id(), request);
        expected = ep.SendLookupBatch(idx_, keys, &sink);
      }
      {
        ScopedSpan span(rec, SpanKind::kFlush, req.id(), request);
        ep.FlushAll();
      }
      ScopedSpan span(rec, SpanKind::kWait, req.id(), request);
      while (sink.completed() < expected) {
        if (ep.HasPending()) ep.FlushAll();
        std::this_thread::yield();
      }
    }
    uint64_t ns = NowNs() - t0;
    const routing::AggregateSink& sink = s.sink();
    bool ok = sink.hits() == keys.size() && sink.sum() == expected_sum &&
              sink.dropped_total() == 0;
    p->Record(kLookup, ns, ok);
  }

  uint64_t ExpectedSum(std::span<const Key> keys) const {
    uint64_t sum = 0;
    for (Key k : keys) sum += InitialValue(args_.seed, k);
    return sum;
  }

  const Args& args_;
  const std::string wal_dir_;
  std::unique_ptr<core::Engine> engine_;
  storage::ObjectId idx_ = 0;
  std::unique_ptr<core::Engine::Session> session_;
};

// --- point_read --------------------------------------------------------------

/// 64-key Zipf(0.99) lookup batches, scattered over the domain.
class PointRead : public IndexWorkload {
 public:
  explicit PointRead(const Args& args) : IndexWorkload(args, "") {
    bench::ZipfGenerator zipf(kIndexKeys, 0.99, args.seed, /*scatter=*/true);
    pool_.resize(kPoolKeys);
    for (Key& k : pool_) k = zipf.Next();
  }

 protected:
  void ResetStream() override { cursor_ = 0; }

  void RunRequests(uint64_t deadline_ns, uint64_t max_requests,
                   SpanRecorder* rec, Phase* p) override {
    for (uint64_t i = 0; i < max_requests && NowNs() < deadline_ns; ++i) {
      std::span<const Key> keys(pool_.data() + cursor_, kBatch);
      cursor_ = (cursor_ + kBatch) % kPoolKeys;
      TimedLookup(keys, ExpectedSum(keys), rec, p->requests, p);
    }
  }

  std::vector<uint64_t> ReplayKeys(uint64_t range_hi) const override {
    std::vector<uint64_t> keys;
    for (Key k : pool_) {
      if (k < range_hi) keys.push_back(k);
    }
    return keys;
  }

 private:
  std::vector<Key> pool_;
  size_t cursor_ = 0;
};

// --- skew_rebalance ----------------------------------------------------------

/// Uniform 64-key lookups inside a hot window of 1/4 of the domain that
/// shifts by 1/8 every kShiftEvery requests; RebalanceObject (One-Shot
/// defaults) every kRebalanceEvery requests, from the client thread.
class SkewRebalance : public IndexWorkload {
 public:
  static constexpr uint64_t kShiftEvery = 5000;
  static constexpr uint64_t kRebalanceEvery = 500;

  explicit SkewRebalance(const Args& args) : IndexWorkload(args, "") {
    Xoshiro256 rng(Mix64(args.seed) ^ 0x5e3d);
    offsets_.resize(kPoolKeys);
    for (Key& o : offsets_) o = rng.NextBounded(kIndexKeys / 4);
  }

 protected:
  void ResetStream() override {
    cursor_ = 0;
    request_ = 0;
  }

  void RunRequests(uint64_t deadline_ns, uint64_t max_requests,
                   SpanRecorder* rec, Phase* p) override {
    Key keys[kBatch];
    for (uint64_t i = 0; i < max_requests && NowNs() < deadline_ns; ++i) {
      if (request_ > 0 && request_ % kRebalanceEvery == 0) {
        ScopedSpan span(rec, SpanKind::kRebalance, SpanRecorder::kNone,
                        request_);
        uint64_t t0 = NowNs();
        bool triggered = engine_->RebalanceObject(idx_, {});
        ++p->rebalance_calls;
        if (triggered) {
          ++p->rebalances_triggered;
          p->rebalance_triggered_ns.Add(NowNs() - t0);
        }
      }
      const Key lo = (request_ / kShiftEvery) * (kIndexKeys / 8);
      for (size_t j = 0; j < kBatch; ++j) {
        keys[j] = (lo + offsets_[cursor_ + j]) % kIndexKeys;
      }
      cursor_ = (cursor_ + kBatch) % kPoolKeys;
      ++request_;
      TimedLookup(keys, ExpectedSum(keys), rec, p->requests, p);
    }
  }

  std::vector<uint64_t> ReplayKeys(uint64_t range_hi) const override {
    std::vector<uint64_t> keys;
    for (Key o : offsets_) {
      if (o < range_hi) keys.push_back(o);
    }
    return keys;
  }

 private:
  std::vector<Key> offsets_;
  size_t cursor_ = 0;
  uint64_t request_ = 0;
};

// --- durable_mixed -----------------------------------------------------------

/// WAL on (group commit). 8 virtual clients multiplexed on the client
/// thread, each alternating a 64-key uniform upsert and a 64-key uniform
/// lookup. Client v owns the keys k with k % 8 == v, so the client-side
/// shadow of its upserts predicts its lookups exactly.
class DurableMixed : public IndexWorkload {
 public:
  static constexpr uint32_t kClients = 8;

  DurableMixed(const Args& args, std::string wal_dir)
      : IndexWorkload(args, std::move(wal_dir)) {}

  double Setup() override {
    shadow_.resize(kIndexKeys);
    for (Key k = 0; k < kIndexKeys; ++k) {
      shadow_[k] = InitialValue(args_.seed, k);
    }
    return IndexWorkload::Setup();
  }

  void LayerMetrics(const Counters& d, const Phase& p,
                    RunResult* r) override {
    IndexWorkload::LayerMetrics(d, p, r);
    const uint64_t range_hi = kIndexKeys / 3;
    r->Set("storage.upsert_ns_per_key",
           ReplayUpsertNsPerKey(range_hi, kIndexKeyBits,
                                ReplayKeys(range_hi)),
           "ns");
    if (d.wal_records > 0 && d.wal_fsyncs > 0) {
      uint32_t k = static_cast<uint32_t>(
          std::max<uint64_t>(1, (d.wal_records + d.wal_fsyncs / 2) /
                                    d.wal_fsyncs));
      // Average record body: commit frames are bare headers.
      const uint64_t frame = sizeof(durability::WalFrame);
      size_t record_bytes =
          (d.wal_bytes - d.wal_groups * frame) / d.wal_records - frame;
      r->Set("wal.commit_us",
             ReplayWalCommitUs(args_.work_dir + "/wal-replay", k,
                               record_bytes),
             "us");
    }
  }

 protected:
  struct Client {
    Xoshiro256 rng{0};
    routing::AggregateSink sink;
    bool upsert_next = true;
    bool in_flight = false;
    Kind kind = kUpsert;
    size_t expected = 0;
    uint64_t start_ns = 0;
    uint64_t request = 0;
    uint32_t span = SpanRecorder::kNone;
    uint32_t wait_span = SpanRecorder::kNone;
    uint64_t expected_sum = 0;
    Key keys[kBatch];
    routing::KeyValue kvs[kBatch];
  };

  uint64_t ClientSeed(uint32_t v) const {
    return Mix64(args_.seed * kClients + v) ^ 0xd0ab1e;
  }

  void ResetStream() override {
    for (uint32_t v = 0; v < kClients; ++v) {
      clients_[v].rng = Xoshiro256(ClientSeed(v));
      clients_[v].upsert_next = true;
      clients_[v].in_flight = false;
    }
    upsert_counter_ = 0;
  }

  /// A key of client v's stripe.
  static Key NextKey(Client& c, uint32_t v) {
    return c.rng.NextBounded(kIndexKeys / kClients) * kClients + v;
  }

  void Issue(Client& c, uint32_t v, SpanRecorder* rec, uint64_t request) {
    routing::Endpoint& ep = session_->endpoint();
    c.sink.Reset();
    c.request = request;
    c.kind = c.upsert_next ? kUpsert : kLookup;
    if (c.upsert_next) {
      for (size_t j = 0; j < kBatch; ++j) {
        Key k;
        bool dup;
        do {  // distinct keys: the batch's final values stay unambiguous
          k = NextKey(c, v);
          dup = std::any_of(c.kvs, c.kvs + j,
                            [&](const routing::KeyValue& kv) {
                              return kv.key == k;
                            });
        } while (dup);
        c.kvs[j] = {k, Mix64(upsert_counter_++ ^ Mix64(args_.seed + 1))};
      }
    } else {
      c.expected_sum = 0;
      for (size_t j = 0; j < kBatch; ++j) {
        c.keys[j] = NextKey(c, v);
        c.expected_sum += shadow_[c.keys[j]];
      }
    }
    c.start_ns = NowNs();
    c.wait_span = SpanRecorder::kNone;
    c.span = rec != nullptr ? rec->Begin(SpanKind::kRequest,
                                         SpanRecorder::kNone, request)
                            : SpanRecorder::kNone;
    ScopedSpan span(rec, SpanKind::kSend, c.span, request);
    c.expected =
        c.upsert_next
            ? ep.SendWriteBatch(routing::CommandType::kUpsertBatch, idx_,
                                std::span<const routing::KeyValue>(c.kvs),
                                &c.sink)
            : ep.SendLookupBatch(idx_, std::span<const Key>(c.keys), &c.sink);
    c.in_flight = true;
    c.upsert_next = !c.upsert_next;
  }

  /// Checks a completed request and updates the shadow; returns ok.
  bool Complete(Client& c) {
    c.in_flight = false;
    if (c.sink.dropped_total() != 0) return false;
    if (c.kind == kUpsert) {
      // Every key exists, so the upsert inserts none.
      if (c.sink.hits() != 0) return false;
      for (const routing::KeyValue& kv : c.kvs) shadow_[kv.key] = kv.value;
      return true;
    }
    return c.sink.hits() == kBatch && c.sink.sum() == c.expected_sum;
  }

  void RunRequests(uint64_t deadline_ns, uint64_t max_requests,
                   SpanRecorder* rec, Phase* p) override {
    routing::Endpoint& ep = session_->endpoint();
    uint64_t issued = 0;
    auto may_issue = [&] {
      return issued < max_requests && NowNs() < deadline_ns;
    };
    for (uint32_t v = 0; v < kClients && may_issue(); ++v) {
      Issue(clients_[v], v, rec, issued++);
    }
    FlushAndStartWaits(ep, rec);
    while (true) {
      bool any_in_flight = false;
      bool progress = false;
      for (uint32_t v = 0; v < kClients; ++v) {
        Client& c = clients_[v];
        if (!c.in_flight) continue;
        if (c.sink.completed() < c.expected) {
          any_in_flight = true;
          continue;
        }
        if (rec != nullptr) {
          rec->End(c.wait_span);
          rec->End(c.span);
        }
        uint64_t ns = NowNs() - c.start_ns;
        Kind kind = c.kind;
        bool ok = Complete(c);
        p->Record(kind, ns, ok);
        if (kind == kUpsert) p->upserted_bytes += sizeof(c.kvs);
        progress = true;
        if (may_issue()) {
          Issue(c, v, rec, issued++);
          any_in_flight = true;
        }
      }
      if (progress) {
        FlushAndStartWaits(ep, rec);
      } else if (!any_in_flight) {
        break;
      } else {
        if (ep.HasPending()) ep.FlushAll();
        std::this_thread::yield();
      }
    }
  }

  /// Flushes newly issued requests; their wait spans start at the end of
  /// the flush. The flush span is a child of the first such request.
  void FlushAndStartWaits(routing::Endpoint& ep, SpanRecorder* rec) {
    uint32_t parent = SpanRecorder::kNone;
    uint64_t request = 0;
    for (Client& c : clients_) {
      if (c.in_flight && c.wait_span == SpanRecorder::kNone &&
          c.span != SpanRecorder::kNone) {
        parent = c.span;
        request = c.request;
        break;
      }
    }
    {
      ScopedSpan span(rec, SpanKind::kFlush, parent, request);
      ep.FlushAll();
    }
    for (Client& c : clients_) {
      if (c.in_flight && c.wait_span == SpanRecorder::kNone &&
          c.span != SpanRecorder::kNone) {
        c.wait_span = rec->Begin(SpanKind::kWait, c.span, c.request);
      }
    }
  }

  /// Client 0's key stream (upserts and lookups draw from the same one).
  std::vector<uint64_t> ReplayKeys(uint64_t range_hi) const override {
    std::vector<uint64_t> keys;
    Client c;
    c.rng = Xoshiro256(ClientSeed(0));
    while (keys.size() < kPoolKeys / 4) {
      Key k = NextKey(c, 0);
      if (k < range_hi) keys.push_back(k);
    }
    return keys;
  }

 private:
  Client clients_[kClients];
  std::vector<Value> shadow_;
  uint64_t upsert_counter_ = 0;
};

// --- analytics ---------------------------------------------------------------

/// A 3-column group of kRows rows: c0 = row number (clustered), c1 uniform
/// in [0, 1000), c2 uniform in [0, 2^20). Each round, 1 query in flight:
/// one Aggregate on c1 (10%), four fused pipelines (c0 window of 10% AND
/// c1 <= 499, SUM c2), two ScanColumn on c2 (1%).
class Analytics : public Workload {
 public:
  static constexpr uint64_t kRows = uint64_t{1} << 24;
  static constexpr uint64_t kC1Domain = 1000;
  static constexpr uint64_t kC2Domain = uint64_t{1} << 20;
  /// Pipeline windows are whole blocks, so the oracle keeps per-block sums.
  static constexpr uint64_t kBlockRows = uint64_t{1} << 16;
  static constexpr uint64_t kBlocks = kRows / kBlockRows;
  static constexpr uint64_t kWindowBlocks = (kBlocks + 5) / 10;
  static constexpr uint64_t kSliceRows = uint64_t{1} << 20;
  static constexpr size_t kChunkRows = 4096;

  explicit Analytics(const Args& args) : args_(args) {
    c1_count_.assign(kC1Domain, 0);
    std::vector<uint64_t> c2_count(kC2Domain, 0);
    block_rows_.assign(kBlocks, 0);
    block_sum_.assign(kBlocks, 0);
    std::vector<Value> c0, c1, c2;
    Xoshiro256 rng(DataSeed());
    for (uint64_t row0 = 0; row0 < kRows; row0 += kSliceRows) {
      Generate(&rng, row0, &c0, &c1, &c2);
      for (uint64_t i = 0; i < kSliceRows; ++i) {
        ++c1_count_[c1[i]];
        ++c2_count[c2[i]];
        if (c1[i] <= kPipelineC1Hi) {
          ++block_rows_[(row0 + i) / kBlockRows];
          block_sum_[(row0 + i) / kBlockRows] += c2[i];
        }
      }
      if (row0 == 0) {
        // The replayed partition: AEU 0's share of the first slice.
        replay_c1_.assign(c1.begin(), c1.begin() + kSliceRows / 3);
        replay_c2_.assign(c2.begin(), c2.begin() + kSliceRows / 3);
      }
    }
    c2_prefix_rows_.assign(kC2Domain + 1, 0);
    c2_prefix_sum_.assign(kC2Domain + 1, 0);
    for (uint64_t v = 0; v < kC2Domain; ++v) {
      c2_prefix_rows_[v + 1] = c2_prefix_rows_[v] + c2_count[v];
      c2_prefix_sum_[v + 1] = c2_prefix_sum_[v] + v * c2_count[v];
    }
    // Segments per AEU: AppendRows deals kChunkRows chunks round-robin.
    for (uint32_t a = 0; a < 3; ++a) {
      uint64_t chunks = kRows / kChunkRows / 3 +
                        (a < (kRows / kChunkRows) % 3 ? 1 : 0);
      segments_per_query_ +=
          (chunks * kChunkRows + storage::ColumnStore::kSegmentCapacity - 1) /
          storage::ColumnStore::kSegmentCapacity;
    }
  }

  double Setup() override {
    queries_.reset();
    pipelines_.reset();
    session_.reset();
    engine_.reset();
    query_rng_ = Xoshiro256(Mix64(args_.seed) ^ 0xa11a);
    uint64_t setup_ns = 0;
    uint64_t t0 = NowNs();
    engine_ = std::make_unique<core::Engine>(BenchEngineOptions(""));
    pipelines_ = std::make_unique<query::PipelineRunner>(engine_.get());
    group_ = pipelines_->CreateColumnGroup("t", 3);
    engine_->Start();
    queries_ = std::make_unique<query::QueryRunner>(engine_.get());
    session_ = engine_->CreateSession();
    setup_ns += NowNs() - t0;
    std::vector<Value> c0, c1, c2;
    Xoshiro256 rng(DataSeed());
    for (uint64_t row0 = 0; row0 < kRows; row0 += kSliceRows) {
      Generate(&rng, row0, &c0, &c1, &c2);
      std::span<const Value> cols[3] = {c0, c1, c2};
      t0 = NowNs();
      pipelines_->AppendRows(group_, cols, kChunkRows);
      setup_ns += NowNs() - t0;
    }
    t0 = NowNs();
    Phase warm;
    Round(~uint64_t{0}, nullptr, &warm);
    warmup_attempted_ += warm.requests;
    warmup_failed_ += warm.failed;
    setup_ns += NowNs() - t0;
    return static_cast<double>(setup_ns) / 1e9;
  }

  void Run(uint64_t deadline_ns, SpanRecorder* rec, Phase* p) override {
    while (NowNs() < deadline_ns) Round(deadline_ns, rec, p);
  }

  core::Engine* engine() override { return engine_.get(); }
  routing::EndpointStats endpoint_stats() override {
    return Sum(Sum(queries_->session().endpoint().stats(),
                   pipelines_->session().endpoint().stats()),
               session_->endpoint().stats());
  }
  double user_bytes() const override {
    return static_cast<double>(kRows * 3 * sizeof(Value));
  }

  void LayerMetrics(const Counters& d, const Phase& p,
                    RunResult* r) override {
    const double scans = static_cast<double>(p.kind[kScan].size());
    const double pipes = static_cast<double>(p.kind[kPipeline].size());
    const double segs = static_cast<double>(segments_per_query_);
    if (scans > 0) {
      r->Set("core.zone_segments_skipped_ratio",
             static_cast<double>(d.zone_segments_skipped) / (scans * segs),
             "ratio");
    }
    if (pipes > 0) {
      r->Set("query.pipeline_pruned_ratio",
             static_cast<double>(d.pipeline_segments_pruned) / (pipes * segs),
             "ratio");
      r->Set("query.pipeline_bytes_per_row",
             static_cast<double>(d.pipeline_bytes) /
                 (pipes * static_cast<double>(kRows)),
             "B/row");
    }
    std::vector<std::pair<uint64_t, uint64_t>> scan_filters, agg_filters;
    Xoshiro256 rng(Mix64(args_.seed) ^ 0xa11a);
    for (int i = 0; i < 8; ++i) {
      agg_filters.push_back(AggregateFilter(&rng));
      scan_filters.push_back(ScanFilter(&rng));
    }
    r->Set("storage.column_scan_gbps",
           ReplayColumnScanGbps(replay_c2_, scan_filters), "GB/s");
    r->Set("storage.snapshot_scan_ns_per_row",
           ReplaySnapshotScanNsPerRow(replay_c1_, agg_filters), "ns");
  }

 private:
  static constexpr Value kPipelineC1Hi = 499;

  uint64_t DataSeed() const { return Mix64(args_.seed) ^ 0xc01; }

  static void Generate(Xoshiro256* rng, uint64_t row0, std::vector<Value>* c0,
                       std::vector<Value>* c1, std::vector<Value>* c2) {
    c0->resize(kSliceRows);
    c1->resize(kSliceRows);
    c2->resize(kSliceRows);
    for (uint64_t i = 0; i < kSliceRows; ++i) {
      (*c0)[i] = row0 + i;
      (*c1)[i] = rng->NextBounded(kC1Domain);
      (*c2)[i] = rng->NextBounded(kC2Domain);
    }
  }

  static std::pair<uint64_t, uint64_t> AggregateFilter(Xoshiro256* rng) {
    uint64_t lo = rng->NextBounded(kC1Domain - 100 + 1);
    return {lo, lo + 99};
  }
  static std::pair<uint64_t, uint64_t> ScanFilter(Xoshiro256* rng) {
    constexpr uint64_t kWidth = kC2Domain / 100;
    uint64_t lo = rng->NextBounded(kC2Domain - kWidth + 1);
    return {lo, lo + kWidth - 1};
  }

  /// Runs the next query of the round-robin round; one query in flight.
  void Round(uint64_t deadline_ns, SpanRecorder* rec, Phase* p) {
    for (int q = 0; q < 7 && NowNs() < deadline_ns; ++q) {
      if (q == 0) {
        RunAggregate(rec, p);
      } else if (q <= 4) {
        RunPipeline(rec, p);
      } else {
        RunScan(rec, p);
      }
    }
  }

  void RunAggregate(SpanRecorder* rec, Phase* p) {
    auto [lo, hi] = AggregateFilter(&query_rng_);
    uint64_t rows = 0, sum = 0;
    Value min = ~Value{0}, max = 0;
    for (Value v = lo; v <= hi; ++v) {
      if (c1_count_[v] == 0) continue;
      rows += c1_count_[v];
      sum += v * c1_count_[v];
      min = std::min(min, v);
      max = std::max(max, v);
    }
    uint64_t t0 = NowNs();
    query::AggregateResult res;
    {
      ScopedSpan span(rec, SpanKind::kAggregate, SpanRecorder::kNone,
                      p->requests);
      res = queries_->Aggregate(group_[1], {lo, hi});
    }
    p->Record(kAggregate, NowNs() - t0,
              res.rows == rows && res.sum == sum &&
                  (rows == 0 || (res.min == min && res.max == max)));
  }

  void RunPipeline(SpanRecorder* rec, Phase* p) {
    uint64_t b0 = query_rng_.NextBounded(kBlocks - kWindowBlocks + 1);
    uint64_t rows = 0, sum = 0;
    for (uint64_t b = b0; b < b0 + kWindowBlocks; ++b) {
      rows += block_rows_[b];
      sum += block_sum_[b];
    }
    query::PipelineQuery q;
    q.filter_column = group_[0];
    q.filter = {b0 * kBlockRows, (b0 + kWindowBlocks) * kBlockRows - 1};
    q.filter2_column = group_[1];
    q.filter2 = {0, kPipelineC1Hi};
    q.agg_column = group_[2];
    uint64_t t0 = NowNs();
    query::PipelineResult res;
    {
      ScopedSpan span(rec, SpanKind::kPipeline, SpanRecorder::kNone,
                      p->requests);
      res = pipelines_->Run(q);
    }
    p->Record(kPipeline, NowNs() - t0, res.rows == rows && res.sum == sum);
  }

  void RunScan(SpanRecorder* rec, Phase* p) {
    auto [lo, hi] = ScanFilter(&query_rng_);
    uint64_t rows = c2_prefix_rows_[hi + 1] - c2_prefix_rows_[lo];
    uint64_t sum = c2_prefix_sum_[hi + 1] - c2_prefix_sum_[lo];
    uint64_t t0 = NowNs();
    core::ScanResult res;
    {
      ScopedSpan span(rec, SpanKind::kScan, SpanRecorder::kNone, p->requests);
      res = session_->ScanColumn(group_[2], lo, hi);
    }
    p->Record(kScan, NowNs() - t0, res.rows == rows && res.sum == sum);
  }

  const Args& args_;
  std::vector<uint64_t> c1_count_;
  std::vector<uint64_t> c2_prefix_rows_, c2_prefix_sum_;
  std::vector<uint64_t> block_rows_, block_sum_;
  std::vector<Value> replay_c1_, replay_c2_;
  uint64_t segments_per_query_ = 0;
  Xoshiro256 query_rng_{0};

  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<query::PipelineRunner> pipelines_;
  query::ColumnGroup group_;
  std::unique_ptr<query::QueryRunner> queries_;
  std::unique_ptr<core::Engine::Session> session_;
};

// --- Runner ------------------------------------------------------------------

double Us(double ns) { return ns / 1e3; }
double Ms(double ns) { return ns / 1e6; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latency percentiles are the median over kChunks consecutive runs of a
/// kind's samples (LatencyLog::ChunkedPercentileNs).
constexpr size_t kChunks = 10;

/// Tail percentile of a request kind: p99 for point ops (tens of thousands
/// of samples per run), p90 for queries (hundreds).
double TailQuantile(int kind) {
  return kind == kLookup || kind == kUpsert ? 0.99 : 0.90;
}

/// Median and tail latency of every request kind.
void KindLatencies(const Phase& p, RunResult* r) {
  struct Name {
    const char* p50;
    const char* tail;
    bool ms;
  };
  static constexpr Name kNames[kNumKinds] = {
      {"lookup_p50_us", "lookup_p99_us", false},
      {"upsert_p50_us", "upsert_p99_us", false},
      {"aggregate_p50_ms", "aggregate_p90_ms", true},
      {"pipeline_p50_ms", "pipeline_p90_ms", true},
      {"scan_p50_ms", "scan_p90_ms", true},
  };
  for (int k = 0; k < kNumKinds; ++k) {
    const Name& n = kNames[k];
    double p50 = p.kind[k].ChunkedPercentileNs(0.5, kChunks);
    double tail = p.kind[k].ChunkedPercentileNs(TailQuantile(k), kChunks);
    r->Set(n.p50, n.ms ? Ms(p50) : Us(p50), n.ms ? "ms" : "us");
    r->Set(n.tail, n.ms ? Ms(tail) : Us(tail), n.ms ? "ms" : "us");
  }
}

/// Geometric mean, over the request kinds the phase issued, of each kind's
/// median (or tail) latency. A percentile over the mixture would sit on the
/// boundary between kinds and swing with their proportions.
double KindGeomeanNs(const Phase& p, bool tail) {
  double log_sum = 0;
  int kinds = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    if (p.kind[k].size() == 0) continue;
    log_sum += std::log(
        p.kind[k].ChunkedPercentileNs(tail ? 0.9 : 0.5, kChunks));
    ++kinds;
  }
  return kinds == 0 ? 0 : std::exp(log_sum / kinds);
}

/// Median over the phase's full 1-second windows of completions per
/// second (the mean when the phase is shorter than one window).
double OpsPerS(const Phase& p) {
  size_t full = std::min(p.window_completions.size(),
                         static_cast<size_t>(p.seconds));
  if (full == 0) return Ratio(p.requests, p.seconds);

  return Median(std::vector<double>(p.window_completions.begin(),
                                    p.window_completions.begin() + full));
}

void TimedRun(Workload* w, double seconds, SpanRecorder* rec, Phase* p) {
  p->start_ns = NowNs();
  w->Run(p->start_ns + static_cast<uint64_t>(seconds * 1e9), rec, p);
  p->seconds = static_cast<double>(NowNs() - p->start_ns) / 1e9;
}

RunResult Drive(Workload* w, const Args& args) {
  RunResult r;
  std::vector<double> setups;
  // The traced run sets up as often as the untraced one, so both measure
  // an engine that went through the same history.
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(w->Setup());
  }
  Phase pu;
  if (!args.trace) {
    TimedRun(w, args.seconds, nullptr, &pu);
    const numa::MemoryStats mem = w->engine()->memory().TotalStats();
    r.Set("setup_s", Median(setups), "s");
    r.Set("ops_per_s", OpsPerS(pu), "1/s");
    r.Set("latency_p50_us", Us(KindGeomeanNs(pu, /*tail=*/false)), "us");
    r.Set("latency_tail_us", Us(KindGeomeanNs(pu, /*tail=*/true)), "us");
    r.Set("success_ratio",
          1.0 - Ratio(pu.failed + w->warmup_failed(),
                      pu.requests + w->warmup_attempted()),
          "ratio");
    r.Set("mem_bytes_per_user_byte",
          static_cast<double>(mem.bytes_reserved) / w->user_bytes(), "ratio");
    RunResult detail;
    KindLatencies(pu, &detail);
    for (const Metric& m : detail.metrics) {
      if (m.value > 0) r.detail.push_back(m);
    }
  } else {
    // Counters over the untraced half; spans over the traced half.
    core::Engine* e = w->engine();
    const Counters c0 = ReadCountersQuiescent(e);
    const routing::EndpointStats ep0 = w->endpoint_stats();
    TimedRun(w, args.seconds / 2, nullptr, &pu);
    const Counters c1 = ReadCountersQuiescent(e);
    const routing::EndpointStats ep = Minus(w->endpoint_stats(), ep0);
    const Counters d = Delta(c0, c1);
    SpanRecorder rec(kSpanCapacity);
    rec.set_enabled(true);
    Phase pt;
    TimedRun(w, args.seconds / 2, &rec, &pt);
    rec.set_enabled(false);
    const std::string trace_path =
        args.work_dir + "/trace-" + args.workload + ".tsv";
    if (!rec.WriteTsv(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }

    const double reqs = static_cast<double>(pu.requests);
    r.Set("routing.send_us", Us(rec.MedianSelfNs(SpanKind::kSend)), "us");
    r.Set("routing.flush_us", Us(rec.MedianSelfNs(SpanKind::kFlush)), "us");
    r.Set("routing.commands_per_request", Ratio(ep.commands_routed, reqs),
          "count");
    r.Set("routing.bytes_per_request", Ratio(ep.bytes_flushed, reqs), "B");
    r.Set("routing.shed", static_cast<double>(ep.commands_shed), "count");
    r.Set("core.wait_us", Us(rec.MedianSelfNs(SpanKind::kWait)), "us");
    r.Set("core.iterations_per_command",
          Ratio(d.iterations, d.commands_processed), "count");
    r.Set("core.lookups_coalesced_ratio",
          Ratio(d.lookups_coalesced, d.commands_processed), "ratio");
    r.Set("core.zone_segments_skipped_ratio", 0, "ratio");
    const double rebalances = static_cast<double>(pu.rebalances_triggered);
    r.Set("core.forwarded_per_rebalance",
          Ratio(d.commands_forwarded, rebalances), "count");
    r.Set("core.deferred_per_rebalance",
          Ratio(d.commands_deferred, rebalances), "count");
    r.Set("balance.rebalance_ms",
          Ms(pt.rebalance_triggered_ns.PercentileNs(0.5)), "ms");
    r.Set("balance.trigger_ratio",
          Ratio(rebalances, pu.rebalance_calls), "ratio");
    r.Set("balance.link_transfers", d.link_transfers, "count");
    r.Set("balance.copy_transfers", d.copy_transfers, "count");
    r.Set("balance.bytes_copied_per_rebalance",
          Ratio(d.bytes_copied, rebalances), "B");
    r.Set("storage.batch_lookup_ns_per_key", 0, "ns");
    r.Set("storage.upsert_ns_per_key", 0, "ns");
    r.Set("storage.column_scan_gbps", 0, "GB/s");
    r.Set("storage.snapshot_scan_ns_per_row", 0, "ns");
    r.Set("query.pipeline_pruned_ratio", 0, "ratio");
    r.Set("query.pipeline_bytes_per_row", 0, "B/row");
    r.Set("wal.records_per_fsync", Ratio(d.wal_records, d.wal_fsyncs),
          "count");
    r.Set("wal.bytes_per_user_byte", Ratio(d.wal_bytes, pu.upserted_bytes),
          "ratio");
    r.Set("wal.stalls", d.wal_stalls, "count");
    r.Set("wal.commit_us", 0, "us");
    r.Set("mem.reserved_bytes", d.mem.bytes_reserved, "B");
    r.Set("mem.in_use_bytes", d.mem.bytes_in_use(), "B");
    r.Set("mem.fragmentation_bytes", d.mem.fragmentation_bytes(), "B");
    r.Set("mem.steady_allocations", d.mem.allocations, "count");
    r.Set("mem.central_refills", d.mem.central_refills, "count");
    r.Set("mem.huge_page_ratio",
          Ratio(d.mem.huge_page_bytes, d.mem.bytes_reserved), "ratio");
    KindLatencies(pu, &r);
    r.Set("trace.latency_p50_overhead_us",
          Us(KindGeomeanNs(pt, false) - KindGeomeanNs(pu, false)), "us");
    r.Set("trace.ops_per_s_overhead", OpsPerS(pu) - OpsPerS(pt), "1/s");
    w->LayerMetrics(d, pu, &r);
    pu.requests += pt.requests;
    pu.failed += pt.failed;
  }
  r.attempted = pu.requests + w->warmup_attempted();
  r.failed = pu.failed + w->warmup_failed();
  return r;
}

}  // namespace

RunResult RunPointRead(const Args& args) {
  PointRead w(args);
  return Drive(&w, args);
}

RunResult RunDurableMixed(const Args& args) {
  const std::string wal_dir = args.work_dir + "/wal";
  RunResult r;
  {
    DurableMixed w(args, wal_dir);
    r = Drive(&w, args);
  }
  ResetDir(wal_dir);  // leaves no multi-hundred-MB log behind
  return r;
}

RunResult RunAnalytics(const Args& args) {
  Analytics w(args);
  return Drive(&w, args);
}

RunResult RunSkewRebalance(const Args& args) {
  SkewRebalance w(args);
  return Drive(&w, args);
}

}  // namespace perfbench
