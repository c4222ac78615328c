#include "routing/data_command.h"

namespace eris::routing {

const char* CommandTypeName(CommandType t) {
  switch (t) {
    case CommandType::kLookupBatch: return "lookup-batch";
    case CommandType::kInsertBatch: return "insert-batch";
    case CommandType::kUpsertBatch: return "upsert-batch";
    case CommandType::kEraseBatch: return "erase-batch";
    case CommandType::kAppendBatch: return "append-batch";
    case CommandType::kScanColumn: return "scan-column";
    case CommandType::kScanIndexRange: return "scan-index-range";
    case CommandType::kBalanceRange: return "balance-range";
    case CommandType::kBalancePhysical: return "balance-physical";
    case CommandType::kTransferRequest: return "transfer-request";
    case CommandType::kInstallPartition: return "install-partition";
    case CommandType::kFence: return "fence";
    case CommandType::kPipeline: return "pipeline";
    case CommandType::kJoinScatter: return "join-scatter";
    case CommandType::kJoinStage: return "join-stage";
    case CommandType::kJoinMerge: return "join-merge";
    case CommandType::kWalExtractRange: return "wal-extract-range";
    case CommandType::kWalSplitTail: return "wal-split-tail";
    case CommandType::kWalSetRange: return "wal-set-range";
  }
  return "unknown";
}

const char* DropReasonName(DropReason r) {
  switch (r) {
    case DropReason::kRetryExhausted: return "retry-exhausted";
    case DropReason::kTargetStalled: return "target-stalled";
    case DropReason::kExpired: return "expired";
    case DropReason::kQuarantined: return "quarantined";
    case DropReason::kWalSealed: return "wal-sealed";
    case DropReason::kAllocFailed: return "alloc-failed";
  }
  return "unknown";
}

uint64_t CommandUnits(const CommandView& v) {
  switch (v.header.type) {
    case CommandType::kLookupBatch:
    case CommandType::kEraseBatch:
      return v.header.payload_bytes / sizeof(storage::Key);
    case CommandType::kInsertBatch:
    case CommandType::kUpsertBatch:
      return v.header.payload_bytes / sizeof(KeyValue);
    default:
      return 1;
  }
}


}  // namespace eris::routing
