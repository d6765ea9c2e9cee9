#include "net/stop_signal.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <ctime>

#include "common/check.h"
#include "net/clock.h"

namespace finelb::net {

StopSignal::StopSignal()
    : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!fd_.valid()) FINELB_THROW_ERRNO("eventfd");
}

void StopSignal::notify() {
  // Nothing ever reads the counter while the signal is armed, so one write
  // leaves the fd readable for good. EAGAIN means the counter is already
  // saturated, i.e. the signal has long since fired.
  const std::uint64_t one = 1;
  if (::write(fd(), &one, sizeof(one)) < 0 && errno != EAGAIN) {
    FINELB_THROW_ERRNO("write(eventfd)");
  }
}

void StopSignal::reset() {
  std::uint64_t count = 0;
  if (::read(fd(), &count, sizeof(count)) < 0 && errno != EAGAIN) {
    FINELB_THROW_ERRNO("read(eventfd)");
  }
}

bool StopSignal::sleep_until(SimTime deadline) const {
  pollfd pfd{fd(), POLLIN, 0};
  for (;;) {
    const SimDuration left = deadline - monotonic_now();
    timespec ts{};
    if (left > 0) {
      ts.tv_sec = left / kSecond;
      ts.tv_nsec = left % kSecond;
    }
    const int n = ::ppoll(&pfd, 1, &ts, nullptr);
    if (n > 0) return true;
    if (n < 0 && errno != EINTR) FINELB_THROW_ERRNO("ppoll(eventfd)");
    // Timed out, or interrupted by a signal (EINTR): only the clock
    // decides that the deadline has passed.
    if (left <= 0 || monotonic_now() >= deadline) return false;
  }
}

}  // namespace finelb::net
