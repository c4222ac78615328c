// Latch-free double incoming buffer (adapted from LLAMA's multi-buffer).
//
// Every AEU owns two equally sized incoming buffers. At any time one buffer
// is writable by all other AEUs and the other is being processed by the
// owner. Each buffer carries a 64-bit descriptor:
//
//     bit 63      : active      (buffer currently accepts writers)
//     bits 62..32 : writers     (number of in-flight writers, 31 bits)
//     bits 31..0  : offset      (allocated bytes)
//
// A writer reserves space by CAS-ing offset += len, writers += 1 into the
// descriptor of the active buffer, copies its records, then atomically
// decrements writers. The owner swaps the buffers by activating the other
// buffer, clearing the active bit of the full one, and waiting until its
// writer count drains to zero; the drained buffer is then processed without
// any synchronization. Multiple AEUs can thus write in parallel with a
// single atomic each, and the owner never takes a latch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "common/bit_util.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/spinlock.h"

namespace eris::routing {

/// Descriptor bit manipulation (exposed for tests).
namespace descriptor {
inline constexpr uint64_t kActiveBit = uint64_t{1} << 63;
inline constexpr uint64_t kWriterOne = uint64_t{1} << 32;
inline constexpr uint64_t kWriterMask = ((uint64_t{1} << 31) - 1) << 32;
inline constexpr uint64_t kOffsetMask = (uint64_t{1} << 32) - 1;

inline bool Active(uint64_t d) { return (d & kActiveBit) != 0; }
inline uint32_t Writers(uint64_t d) {
  return static_cast<uint32_t>((d & kWriterMask) >> 32);
}
inline uint32_t Offset(uint64_t d) {
  return static_cast<uint32_t>(d & kOffsetMask);
}
inline uint64_t Make(bool active, uint32_t writers, uint32_t offset) {
  return (active ? kActiveBit : 0) |
         (static_cast<uint64_t>(writers) << 32) | offset;
}
}  // namespace descriptor

/// \brief The double incoming buffer of one AEU.
class IncomingBufferPair {
 public:
  /// `capacity_bytes` per buffer (rounded up to 8).
  explicit IncomingBufferPair(size_t capacity_bytes);
  ~IncomingBufferPair();

  IncomingBufferPair(const IncomingBufferPair&) = delete;
  IncomingBufferPair& operator=(const IncomingBufferPair&) = delete;

  /// Attempts to append `data` (one or more whole records, 8-byte padded)
  /// to the currently writable buffer. Returns false when the buffer has no
  /// room — the caller keeps the data buffered and retries after the owner
  /// swaps. Thread-safe, latch-free.
  bool TryWrite(std::span<const uint8_t> data);

  /// Gather variant: reserves the total size once and copies every piece
  /// back to back (used to deliver unicast bytes plus referenced multicast
  /// commands in one reservation).
  bool TryWriteGather(std::span<const std::span<const uint8_t>> pieces);

  /// Owner side: swaps buffers, waits for in-flight writers on the swapped-
  /// out buffer, and invokes fn(bytes) with the filled region (possibly
  /// empty). Single-threaded with respect to itself.
  template <typename Fn>
  size_t Drain(Fn&& fn) {
    uint32_t old_idx = writable_idx_.load(std::memory_order_relaxed);
    uint32_t new_idx = old_idx ^ 1;
    // Publish the index before reactivating the previously drained buffer:
    // a writer that finds the new buffer active then also reads the new
    // index, so its next record cannot land in the old buffer (which
    // drains first) and per-writer FIFO holds.
    writable_idx_.store(new_idx, std::memory_order_release);
    desc_[new_idx].store(descriptor::Make(true, 0, 0),
                         std::memory_order_release);
    // A writer that read the old index here still reserves on the old
    // buffer until the deactivation below lands — the window the
    // perturbation point stretches so stress runs actually exercise it.
    ERIS_INJECT_POINT(kIncomingSwap);
    // Deactivate the filled buffer; further CAS attempts on it fail.
    uint64_t prev =
        desc_[old_idx].fetch_and(~descriptor::kActiveBit,
                                 std::memory_order_acq_rel);
    // Wait until in-flight writers finished copying.
    while (descriptor::Writers(
               desc_[old_idx].load(std::memory_order_acquire)) != 0) {
      ERIS_INJECT_POINT(kIncomingDrainWait);
      CpuRelax();
    }
    size_t filled = std::min<size_t>(descriptor::Offset(prev), capacity_);
    std::span<const uint8_t> region(buffers_[old_idx], filled);
    fn(region);
    // Reset offset so the next swap starts clean (buffer stays inactive
    // until the next Drain re-activates it).
    desc_[old_idx].store(descriptor::Make(false, 0, 0),
                         std::memory_order_release);
    return filled;
  }

  size_t capacity() const { return capacity_; }

  /// Seals the mailbox: every TryWrite/TryWriteGather fails immediately, as
  /// if the buffer were permanently full. The watchdog seals the mailbox of
  /// a quarantined AEU so producers shed instead of queueing into it; Drain
  /// by the (possibly recovered) owner still works.
  void Seal() { sealed_.store(true, std::memory_order_release); }
  void Unseal() { sealed_.store(false, std::memory_order_release); }
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  /// Bytes currently queued in the writable buffer (approximate: a region
  /// being drained is not counted; use BytesWritten for exact progress).
  size_t PendingBytes() const {
    uint32_t idx = writable_idx_.load(std::memory_order_acquire);
    return std::min<size_t>(
        descriptor::Offset(desc_[idx].load(std::memory_order_acquire)),
        capacity_);
  }

  /// Monotone total of bytes ever delivered into this mailbox. A writer
  /// adds its delivery after the reservation succeeds and before it
  /// releases its writer slot, so any region the owner drains is already
  /// counted here. Compared against the owner's Aeu::BytesRetired by the
  /// engine's quiescence barrier (DESIGN.md §13).
  uint64_t BytesWritten() const {
    return written_.load(std::memory_order_acquire);
  }

 private:
  size_t capacity_;
  uint8_t* buffers_[2];
  std::atomic<uint64_t> desc_[2];
  std::atomic<uint32_t> writable_idx_{0};
  std::atomic<bool> sealed_{false};
  std::atomic<uint64_t> written_{0};
};

}  // namespace eris::routing
