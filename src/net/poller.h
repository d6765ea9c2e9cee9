// ppoll(2) wrapper used by the prototype's event-driven nodes.
//
// The paper's polling agent "asynchronously collects the responses using
// select system call"; ppoll(2) is the same mechanism without the FD_SETSIZE
// limit and with nanosecond timeout resolution — the discard optimization's
// 1 ms deadline and the client's sub-millisecond arrival pacing both need
// better than poll(2)'s millisecond granularity. Registration is by fd with
// an opaque user tag, so callers can route readiness back to their own
// structures without a map lookup.
#pragma once

#include <poll.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/time.h"

namespace finelb::net {

struct Ready {
  int fd = -1;
  std::uint64_t tag = 0;
  bool readable = false;
  bool error = false;
};

class Poller {
 public:
  /// Watches `fd` for readability; `tag` is returned with readiness events.
  void add(int fd, std::uint64_t tag);
  void remove(int fd);
  /// Forgets every registered fd (for pollers reused across rounds).
  void clear();
  std::size_t size() const { return fds_.size(); }

  /// Waits up to `timeout` nanoseconds (negative blocks indefinitely, 0
  /// polls). Returns ready fds; empty on timeout or signal. The span views
  /// an internal buffer reused across calls — consume it before the next
  /// wait() — so steady-state event loops never allocate here.
  std::span<const Ready> wait(SimDuration timeout);

  /// As wait(), up to the absolute CLOCK_MONOTONIC `deadline` (at once if
  /// it has passed); nullopt blocks until an fd is ready.
  std::span<const Ready> wait_until(std::optional<SimTime> deadline);

 private:
  std::vector<pollfd> fds_;
  std::vector<std::uint64_t> tags_;
  std::vector<Ready> ready_;  // reused result buffer
};

}  // namespace finelb::net
