#include "harness.h"

#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/stopwatch.h"
#include "durability/manager.h"

namespace perfbench {

using namespace eris;

uint64_t NowNs() { return MonotonicNanos(); }

double LatencyLog::PercentileNs(double q) const {
  if (ns_.empty()) return 0;
  std::vector<uint64_t> sorted = ns_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]);
}

double LatencyLog::ChunkedPercentileNs(double q, size_t chunks) const {
  if (ns_.size() < chunks) return PercentileNs(q);
  std::vector<double> per_chunk;
  const size_t len = ns_.size() / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    LatencyLog chunk;
    chunk.ns_.assign(ns_.begin() + c * len, ns_.begin() + (c + 1) * len);
    per_chunk.push_back(chunk.PercentileNs(q));
  }
  return Median(std::move(per_chunk));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kSend: return "routing.send";
    case SpanKind::kFlush: return "routing.flush";
    case SpanKind::kWait: return "core.wait";
    case SpanKind::kRebalance: return "balance.rebalance";
    case SpanKind::kAggregate: return "query.aggregate";
    case SpanKind::kPipeline: return "query.pipeline";
    case SpanKind::kScan: return "session.scan";
  }
  return "?";
}

uint32_t SpanRecorder::Begin(SpanKind kind, uint32_t parent,
                             uint64_t request) {
  if (!enabled_) return kNone;
  if (spans_.size() == spans_.capacity()) return kNone;
  spans_.push_back({kind, parent, request, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanRecorder::End(uint32_t id) {
  if (id != kNone) spans_[id].end_ns = NowNs();
}

double SpanRecorder::MedianSelfNs(SpanKind kind) const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].kind != kind) continue;
    self.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
                   child_ns[i]);
  }
  return Median(std::move(self));
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tparent\trequest\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%llu\t%llu\t%llu\n", i, SpanName(s.kind),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Counters ReadCountersQuiescent(core::Engine* engine) {
  // AeuLoopStats and WalWriterStats are plain fields owned by the AEU
  // threads; joining the threads makes the reads race-free.
  engine->Stop();
  Counters c;
  for (routing::AeuId a = 0; a < engine->num_aeus(); ++a) {
    const core::AeuLoopStats& s = engine->aeu(a).loop_stats();
    c.iterations += s.iterations;
    c.commands_processed += s.commands_processed;
    c.commands_forwarded += s.commands_forwarded;
    c.commands_deferred += s.commands_deferred;
    c.lookups_coalesced += s.lookups_coalesced;
    c.zone_segments_skipped += s.zone_segments_skipped;
    c.link_transfers += s.link_transfers;
    c.copy_transfers += s.copy_transfers;
    c.bytes_copied += s.bytes_copied;
    c.pipeline_segments_pruned += s.pipeline_segments_pruned;
    c.pipeline_bytes += s.pipeline_filter_bytes + s.pipeline_filter2_bytes +
                        s.pipeline_agg_bytes;
    if (engine->durability() != nullptr &&
        engine->durability()->wal(a) != nullptr) {
      const durability::WalWriterStats& w =
          engine->durability()->wal(a)->stats();
      c.wal_records += w.records;
      c.wal_groups += w.groups;
      c.wal_fsyncs += w.fsyncs;
      c.wal_bytes += w.bytes_written;
      c.wal_stalls += w.stalls;
    }
  }
  c.mem = engine->memory().TotalStats();
  engine->Start();
  return c;
}

Counters Delta(const Counters& b, const Counters& a) {
  Counters d;
  d.iterations = a.iterations - b.iterations;
  d.commands_processed = a.commands_processed - b.commands_processed;
  d.commands_forwarded = a.commands_forwarded - b.commands_forwarded;
  d.commands_deferred = a.commands_deferred - b.commands_deferred;
  d.lookups_coalesced = a.lookups_coalesced - b.lookups_coalesced;
  d.zone_segments_skipped = a.zone_segments_skipped - b.zone_segments_skipped;
  d.link_transfers = a.link_transfers - b.link_transfers;
  d.copy_transfers = a.copy_transfers - b.copy_transfers;
  d.bytes_copied = a.bytes_copied - b.bytes_copied;
  d.pipeline_segments_pruned =
      a.pipeline_segments_pruned - b.pipeline_segments_pruned;
  d.pipeline_bytes = a.pipeline_bytes - b.pipeline_bytes;
  d.wal_records = a.wal_records - b.wal_records;
  d.wal_groups = a.wal_groups - b.wal_groups;
  d.wal_fsyncs = a.wal_fsyncs - b.wal_fsyncs;
  d.wal_bytes = a.wal_bytes - b.wal_bytes;
  d.wal_stalls = a.wal_stalls - b.wal_stalls;
  d.mem = a.mem;
  d.mem.allocations = a.mem.allocations - b.mem.allocations;
  d.mem.central_refills = a.mem.central_refills - b.mem.central_refills;
  return d;
}

core::EngineOptions BenchEngineOptions(const std::string& wal_dir) {
  core::EngineOptions opts;
  opts.topology = numa::Topology::Flat(2, 2);
  opts.num_aeus = 3;
  opts.mode = core::ExecutionMode::kThreads;
  opts.pin_threads = false;
  opts.balancer_background = false;
  opts.overload.watchdog = false;
  if (!wal_dir.empty()) {
    opts.durability.enabled = true;
    opts.durability.dir = wal_dir;
    opts.durability.mode = durability::WalMode::kGroupCommit;
    opts.durability.scrub_interval_ms = 0;
  }
  return opts;
}

std::string EngineShape() {
  return "Flat(2,2) topology, 3 AEUs (0-1 on node 0, 2 on node 1), "
         "kThreads, unpinned, no balancer/watchdog/scrubber threads, "
         "1 client thread";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return buf;
}

}  // namespace perfbench
