// Sequence lock for small, frequently-read, single-writer values.
//
// The client's per-server load cache is written by one drain loop and read
// by every request path; a mutex there puts a lock acquisition on the hot
// path of every access, and the readers outnumber the writer by orders of
// magnitude. A seqlock makes reads wait-free in the uncontended case: the
// reader snapshots a sequence counter, copies the value, and retries only
// if a writer ran concurrently (odd counter or counter changed).
//
// TSan-cleanliness: the classic seqlock copies the payload with memcpy,
// which is a data race by the letter of the C++ memory model (the reader
// may read bytes mid-write and discard them, but the read itself is
// undefined behaviour and ThreadSanitizer rightly flags it). This
// implementation stores the payload in a small array of
// std::atomic<std::uint64_t> words instead, so every access is atomic.
// Ordering rides on the individual accesses — release word stores /
// acquire word loads bracketed by the sequence counter — rather than on
// std::atomic_thread_fence, which GCC's TSan does not model
// (-Werror=tsan). That restricts T to trivially-copyable types small
// enough to be worth word-copying — exactly the load-index records the
// prototype caches.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <type_traits>

namespace finelb {

template <class T>
class Seqlock {
  static_assert(std::is_trivially_copyable_v<T>,
                "Seqlock payloads are copied word-by-word");

 public:
  Seqlock() = default;

  /// Publishes a new value. Single writer only: concurrent store() calls
  /// must be serialised by the caller (the prototype's caches have exactly
  /// one writer thread, so no external lock is needed).
  void store(const T& value) {
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    const std::uint32_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);  // odd: write in progress
    for (std::size_t i = 0; i < kWords; ++i) {
      // Release keeps the odd-marker store above from sinking below any
      // word store (a release store orders all prior writes before it).
      data_[i].store(words[i], std::memory_order_release);
    }
    seq_.store(seq + 2, std::memory_order_release);  // even: write complete
  }

  /// Reads a consistent snapshot, retrying while a write is in flight.
  /// Wait-free when no writer is running; never blocks the writer.
  T load() const {
    std::uint64_t words[kWords];
    std::uint32_t seq0;
    do {
      seq0 = seq_.load(std::memory_order_acquire);
      if (seq0 & 1) continue;  // write in progress, retry
      for (std::size_t i = 0; i < kWords; ++i) {
        // Acquire keeps the recheck below from hoisting above any word
        // load (no later access may be reordered before an acquire load).
        words[i] = data_[i].load(std::memory_order_acquire);
      }
    } while (seq0 & 1 || seq_.load(std::memory_order_relaxed) != seq0);
    T value;
    std::memcpy(&value, words, sizeof(T));
    return value;
  }

 private:
  static constexpr std::size_t kWords =
      (sizeof(T) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint64_t> data_[kWords] = {};
};

/// Write side of a multi-writer seqlock ring slot (the telemetry trace and
/// decision rings): `seq` holds 2*claim+1 while ring claim `claim` writes
/// the slot and 2*claim+2 once sealed. Marks the slot in progress for
/// `claim`, first waiting out an older lap's writer still inside it — a
/// writer preempted for a whole lap would otherwise interleave its stores
/// with the next lap's, and a reader could find a seal over mixed fields.
/// Returns false, and the caller writes nothing, when a newer claim
/// already owns the slot.
inline bool begin_ring_slot_write(std::atomic<std::uint64_t>& seq,
                                  std::uint64_t claim) {
  std::uint64_t seen = seq.load(std::memory_order_relaxed);
  for (;;) {
    if (seen > 2 * claim) return false;
    if (seen % 2 == 1) {
      std::this_thread::yield();
      seen = seq.load(std::memory_order_relaxed);
    } else if (seq.compare_exchange_weak(seen, 2 * claim + 1,
                                         std::memory_order_relaxed)) {
      return true;
    }
  }
}

}  // namespace finelb
