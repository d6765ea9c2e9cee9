#include "net/poller.h"

#include <algorithm>
#include <cerrno>
#include <ctime>

#include "common/check.h"
#include "net/clock.h"

namespace finelb::net {

void Poller::add(int fd, std::uint64_t tag) {
  FINELB_CHECK(fd >= 0, "cannot poll an invalid fd");
  fds_.push_back(pollfd{fd, POLLIN, 0});
  tags_.push_back(tag);
}

void Poller::remove(int fd) {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (fds_[i].fd == fd) {
      fds_[i] = fds_.back();
      tags_[i] = tags_.back();
      fds_.pop_back();
      tags_.pop_back();
      return;
    }
  }
  FINELB_CHECK(false, "fd not registered with poller");
}

void Poller::clear() {
  fds_.clear();
  tags_.clear();
}

std::span<const Ready> Poller::wait(SimDuration timeout) {
  timespec ts{};
  timespec* ts_ptr = nullptr;
  if (timeout >= 0) {
    ts.tv_sec = timeout / kSecond;
    ts.tv_nsec = timeout % kSecond;
    ts_ptr = &ts;
  }
  const int n = ::ppoll(fds_.data(), fds_.size(), ts_ptr, nullptr);
  ready_.clear();
  if (n < 0) {
    if (errno == EINTR) return ready_;
    FINELB_THROW_ERRNO("ppoll");
  }
  if (n == 0) return ready_;
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (fds_[i].revents == 0) continue;
    Ready r;
    r.fd = fds_[i].fd;
    r.tag = tags_[i];
    r.readable = (fds_[i].revents & POLLIN) != 0;
    r.error = (fds_[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    ready_.push_back(r);
    fds_[i].revents = 0;
  }
  return ready_;
}

std::span<const Ready> Poller::wait_until(std::optional<SimTime> deadline) {
  if (!deadline) return wait(-1);
  return wait(std::max<SimDuration>(*deadline - monotonic_now(), 0));
}

}  // namespace finelb::net
