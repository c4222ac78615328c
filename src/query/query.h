// Query processing on top of the ERIS storage primitives.
//
// The paper closes with: "Since ERIS only provides storage operation
// primitives, we plan to implement a query processing framework on top of
// ERIS" — and motivates its architecture with exactly the two properties a
// distributed-style query layer needs: efficient routing of generated data
// commands between AEUs and NUMA-local materialization of large
// intermediate results. This module implements that layer for the
// workloads the paper's introduction names:
//
//  * filtered aggregation over a column (rows/sum/min/max/avg),
//  * selection with materialization — the matching values of a scan are
//    routed as appends into a fresh column whose partitions live in the
//    *receiving* AEUs' local memory (intermediate results spread over the
//    machine, never concentrated on the coordinator),
//  * index-nested-loop join — every AEU scans its probe-column partition
//    and routes the filtered values as lookup batches into an index; the
//    AEUs thus generate data commands for one another during query
//    processing, the scenario the routing layer is built for.
//
// All three are one command: the kScanColumn shared segment pass, with the
// scan's output kind selecting aggregates (kStats), routed appends
// (kAppendTo) or routed lookups (kLookupIn). Materialization and the join
// wait for exactly the follow-up units the owners report routing. All
// operators run through the public Session/Endpoint API; the engine stays
// the only owner of data.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/engine.h"

namespace eris::query {

/// Inclusive value filter.
struct Filter {
  storage::Value lo = 0;
  storage::Value hi = ~storage::Value{0};
};

/// Aggregates of a filtered column scan.
struct AggregateResult {
  uint64_t rows = 0;
  uint64_t sum = 0;
  storage::Value min = ~storage::Value{0};
  storage::Value max = 0;
  double avg = 0;
};

/// Result of a materializing selection.
struct MaterializeResult {
  storage::ObjectId object = 0;  ///< the new column holding the matches
  uint64_t rows = 0;             ///< matches materialized
};

/// Result of an index-nested-loop join.
struct JoinResult {
  uint64_t probes = 0;      ///< filtered probe values routed as lookups
  uint64_t matches = 0;     ///< probes that found a key in the index
  uint64_t matched_sum = 0; ///< sum of the matched index values
};

/// \brief Executes queries against one engine.
///
/// Not thread-safe (owns a session); create one runner per client thread.
class QueryRunner {
 public:
  explicit QueryRunner(core::Engine* engine);

  /// SELECT count(*), sum(v), min(v), max(v) FROM column WHERE v BETWEEN
  /// filter.lo AND filter.hi — one multicast scan, aggregated per
  /// partition, merged at the sink.
  AggregateResult Aggregate(storage::ObjectId column, Filter filter = {});

  /// As Aggregate, but overload-aware: the scan goes through admission
  /// control, carries `timeout_ns` as its command deadline, and returns a
  /// typed error (DeadlineExceeded, Unavailable, ResourceExhausted,
  /// Internal) instead of blocking past the deadline. timeout_ns = 0 falls
  /// back to the engine's default deadline.
  Result<AggregateResult> AggregateWithin(storage::ObjectId column,
                                          Filter filter, uint64_t timeout_ns);

  /// SELECT v INTO <name> FROM column WHERE v BETWEEN lo AND hi — every
  /// owner filters its partition and routes the matches as appends into a
  /// newly created column (NUMA-local intermediate materialization).
  /// Returns once the destination holds every match; a dropped scan or
  /// append returns its typed drop status (see core::DropStatus).
  Result<MaterializeResult> MaterializeFilter(storage::ObjectId column,
                                              Filter filter,
                                              std::string result_name);

  /// SELECT count(*), sum(idx.value) FROM probe JOIN idx ON idx.key =
  /// probe.v WHERE probe.v BETWEEN lo AND hi — AEUs scan their probe
  /// partitions and route lookup batches into the index.
  JoinResult IndexJoin(storage::ObjectId probe_column, Filter probe_filter,
                       storage::ObjectId index);

  core::Engine::Session& session() { return *session_; }

 private:
  core::Engine* engine_;
  std::unique_ptr<core::Engine::Session> session_;
};

}  // namespace eris::query
