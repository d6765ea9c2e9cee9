// Wake-up primitive for shutting down the runtime's event loops.
//
// Every runtime node blocks in ppoll (Poller) or in a timed sleep. A
// StopSignal is an eventfd that becomes readable on notify() and stays
// readable: a loop registers fd() with its Poller next to its sockets and
// blocks without a timeout of its own, and stop() wakes it at once instead
// of waiting out a poll slice. Periodic loops sleep with sleep_until(),
// which returns early when the signal fires.
#pragma once

#include "common/time.h"
#include "net/socket.h"

namespace finelb::net {

class StopSignal {
 public:
  StopSignal();

  StopSignal(const StopSignal&) = delete;
  StopSignal& operator=(const StopSignal&) = delete;

  /// Readable once notify() has been called, until reset().
  int fd() const { return fd_.get(); }

  /// Wakes every current and future waiter. Safe from any thread, and
  /// idempotent.
  void notify();

  /// Clears the signal so a restarted loop blocks again. Call only while
  /// no thread waits on it (before start()).
  void reset();

  /// Sleeps until the absolute CLOCK_MONOTONIC `deadline` or until
  /// notify(), whichever comes first. Returns true when woken by the
  /// signal (at once if it already fired), false at the deadline. Retries
  /// on EINTR.
  bool sleep_until(SimTime deadline) const;

 private:
  FdHandle fd_;
};

}  // namespace finelb::net
