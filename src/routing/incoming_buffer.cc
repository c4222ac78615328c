#include "routing/incoming_buffer.h"

#include <cstdlib>
#include <cstring>

namespace eris::routing {

IncomingBufferPair::IncomingBufferPair(size_t capacity_bytes)
    // aligned_alloc requires the size to be a multiple of the alignment.
    : capacity_(AlignUp(std::max<size_t>(capacity_bytes, 64), 64)) {
  ERIS_CHECK_LT(capacity_, uint64_t{1} << 32)
      << "offset field limits buffers to 4 GiB";
  for (int i = 0; i < 2; ++i) {
    buffers_[i] = static_cast<uint8_t*>(std::aligned_alloc(64, capacity_));
    ERIS_CHECK(buffers_[i] != nullptr);
  }
  // Buffer 0 starts writable, buffer 1 idle.
  desc_[0].store(descriptor::Make(true, 0, 0), std::memory_order_relaxed);
  desc_[1].store(descriptor::Make(false, 0, 0), std::memory_order_relaxed);
}

IncomingBufferPair::~IncomingBufferPair() {
  std::free(buffers_[0]);
  std::free(buffers_[1]);
}

bool IncomingBufferPair::TryWrite(std::span<const uint8_t> data) {
  std::span<const uint8_t> piece = data;
  return TryWriteGather({&piece, 1});
}

bool IncomingBufferPair::TryWriteGather(
    std::span<const std::span<const uint8_t>> pieces) {
  size_t total = 0;
  for (const auto& p : pieces) total += p.size();
  if (total == 0) return true;
  // A sealed mailbox (stalled AEU quarantined by the watchdog) behaves like
  // a permanently full buffer; producers shed via the bounded retry policy.
  if (sealed()) return false;
  ERIS_DCHECK(total % 8 == 0);
  ERIS_CHECK_LE(total, capacity_)
      << "single delivery larger than an incoming buffer";
  // Injected "buffer full": the caller keeps the data and retries after
  // the owner swaps, exactly as for a genuinely full buffer.
  if (ERIS_INJECT_SHOULD_FAIL(kIncomingReserve)) return false;
  for (;;) {
    uint32_t idx = writable_idx_.load(std::memory_order_acquire);
    uint64_t d = desc_[idx].load(std::memory_order_acquire);
    // Widen the load->CAS window so concurrent reservations and the
    // owner's swap/deactivate actually interleave here under stress.
    ERIS_INJECT_POINT(kIncomingReserve);
    if (!descriptor::Active(d)) {
      // Raced with a swap; re-read the index.
      CpuRelax();
      continue;
    }
    uint64_t offset = descriptor::Offset(d);
    if (offset + total > capacity_) return false;  // full
    uint64_t wanted = descriptor::Make(
        true, descriptor::Writers(d) + 1,
        static_cast<uint32_t>(offset + total));
    if (!desc_[idx].compare_exchange_weak(d, wanted,
                                          std::memory_order_acq_rel)) {
      continue;  // descriptor changed under us; retry
    }
    // Reserved but not yet copied: the owner's Drain must wait for the
    // writer count to drain before reading this region.
    ERIS_INJECT_POINT(kIncomingCopy);
    uint8_t* dst = buffers_[idx] + offset;
    for (const auto& p : pieces) {
      std::memcpy(dst, p.data(), p.size());
      dst += p.size();
    }
    ERIS_INJECT_POINT(kIncomingRelease);
    // Count the delivery while the slot is still held: the owner's drain
    // (and so its retirement of these bytes) is ordered after this add.
    written_.fetch_add(total, std::memory_order_relaxed);
    // Release the writer slot; the stores to the buffer must be visible
    // before the owner sees writers reach zero.
    desc_[idx].fetch_sub(descriptor::kWriterOne, std::memory_order_release);
    return true;
  }
}

}  // namespace eris::routing
