#include "query/query.h"

namespace eris::query {

using core::Engine;
using routing::AggregateSink;

QueryRunner::QueryRunner(Engine* engine)
    : engine_(engine), session_(engine->CreateSession()) {
  ERIS_CHECK(engine != nullptr);
}

AggregateResult QueryRunner::Aggregate(storage::ObjectId column,
                                       Filter filter) {
  Engine::Session::ColumnStats stats =
      session_->ScanStats(column, filter.lo, filter.hi);
  AggregateResult result;
  result.rows = stats.rows;
  result.sum = stats.sum;
  result.min = stats.min;
  result.max = stats.max;
  result.avg = stats.avg;
  return result;
}

Result<AggregateResult> QueryRunner::AggregateWithin(storage::ObjectId column,
                                                     Filter filter,
                                                     uint64_t timeout_ns) {
  uint64_t saved = session_->op_timeout_ns();
  session_->set_op_timeout_ns(timeout_ns);
  Engine::Session::ColumnStats stats;
  Status status =
      session_->SubmitScanStats(column, filter.lo, filter.hi, &stats);
  session_->set_op_timeout_ns(saved);
  if (!status.ok()) return status;
  AggregateResult result;
  result.rows = stats.rows;
  result.sum = stats.sum;
  result.min = stats.min;
  result.max = stats.max;
  result.avg = stats.avg;
  return result;
}

Result<MaterializeResult> QueryRunner::MaterializeFilter(
    storage::ObjectId column, Filter filter, std::string result_name) {
  if (engine_->object(column).container != storage::ContainerKind::kColumn) {
    return Status::InvalidArgument("MaterializeFilter requires a column");
  }
  storage::ObjectId dest = engine_->CreateColumn(std::move(result_name));

  // The routed appends acknowledge to `append_sink`; each owner reports
  // how many units it routed there, so phase 2 waits for exactly those.
  AggregateSink append_sink;
  routing::ScanParams params;
  params.lo = filter.lo;
  params.hi = filter.hi;
  params.snapshot_ts = engine_->oracle().ReadTs();
  params.output = routing::ScanOutput::kAppendTo;
  params.target_object = dest;
  params.target_sink = &append_sink;

  AggregateSink& sink = session_->sink();
  sink.Reset();
  size_t scan_cmds =
      session_->endpoint().SendScanColumn(column, params, &sink);
  // Phase 1: every owner finished scanning and routed its matches.
  session_->Wait(scan_cmds);
  // Phase 2: every routed append was applied (or dropped, which completes
  // its unit too), so the destination holds every match.
  const uint64_t routed = sink.routed();
  engine_->DriveUntil([&] { return append_sink.completed() >= routed; });
  ERIS_RETURN_NOT_OK(core::DropStatus(sink));
  ERIS_RETURN_NOT_OK(core::DropStatus(append_sink));

  MaterializeResult result;
  result.object = dest;
  result.rows = sink.hits();
  return result;
}

JoinResult QueryRunner::IndexJoin(storage::ObjectId probe_column,
                                  Filter probe_filter,
                                  storage::ObjectId index) {
  ERIS_CHECK(engine_->object(index).partitioning ==
             storage::PartitioningKind::kRange)
      << "join target must be a keyed object";

  // Two sinks: the probe sink sees the scan completions and the number of
  // issued lookups; the lookup sink collects the join matches.
  AggregateSink lookup_sink;
  routing::ScanParams params;
  params.lo = probe_filter.lo;
  params.hi = probe_filter.hi;
  params.snapshot_ts = engine_->oracle().ReadTs();
  params.output = routing::ScanOutput::kLookupIn;
  params.target_object = index;
  params.target_sink = &lookup_sink;

  AggregateSink& probe_sink = session_->sink();
  probe_sink.Reset();
  size_t scan_cmds =
      session_->endpoint().SendScanColumn(probe_column, params, &probe_sink);
  session_->Wait(scan_cmds);

  // The AEUs routed one lookup unit per probe; each completes exactly once.
  const uint64_t routed = probe_sink.routed();
  engine_->DriveUntil([&] { return lookup_sink.completed() >= routed; });

  JoinResult result;
  result.probes = probe_sink.hits();
  result.matches = lookup_sink.hits();
  result.matched_sum = lookup_sink.sum();
  return result;
}

}  // namespace eris::query
