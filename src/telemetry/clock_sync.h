// Pairwise clock-offset estimation for trace merging.
//
// Every node stamps TraceRecords with its own monotonic clock, whose epoch
// is arbitrary (CLOCK_MONOTONIC starts at boot). To place records from two
// nodes on one timeline we estimate the offset between their clocks from
// request/reply round trips, NTP-style: if the remote clock read `remote`
// somewhere between our `send` and `recv`, then assuming symmetric paths the
// best point estimate is the midpoint,
//
//     offset = remote - (send + recv) / 2        (remote minus local)
//
// and the estimate cannot be off by more than RTT/2 in either direction —
// the remote stamp could have been taken at either edge of the round trip.
// Among many samples the minimum-RTT one carries the tightest bound, so
// ClockSync keeps exactly that one (the classic Cristian/NTP filter). After
// syncing, the bound grows with elapsed time at the configured drift rate:
// two crystal oscillators a few ppm apart drift microseconds per second.
//
// Sample sources: net::measure_udp_rtt's stamped echo rounds, and every
// trace or decision pull (the reply carries the answering node's
// clock), so pulling a node's trace ring synchronizes against it for free.
#pragma once

#include <cstdint>

namespace finelb::telemetry {

class ClockSync {
 public:
  /// `drift_ppm` bounds the relative frequency error of the two clocks
  /// (parts per million); it only widens error_bound_ns over time, never
  /// the offset itself. 200 ppm is conservative for commodity crystals.
  explicit ClockSync(double drift_ppm = 200.0) : drift_ppm_(drift_ppm) {}

  /// Ingests one round trip: the remote clock read `remote_ns` at some
  /// local-clock instant inside [local_send_ns, local_recv_ns]. Samples
  /// with a non-positive RTT are ignored (clock went backwards / reordered
  /// capture). Keeps the minimum-RTT sample seen so far.
  void add_sample(std::int64_t local_send_ns, std::int64_t remote_ns,
                  std::int64_t local_recv_ns);

  /// True once at least one valid sample was ingested.
  bool synced() const { return samples_ > 0; }

  /// Best estimate of (remote clock - local clock), in nanoseconds.
  std::int64_t offset_ns() const { return offset_ns_; }

  /// Maps a remote-clock timestamp onto the local clock.
  std::int64_t to_local(std::int64_t remote_ns) const {
    return remote_ns - offset_ns_;
  }

  /// Worst-case error of to_local() for an event observed around
  /// `local_now_ns`: half the best sample's RTT plus accumulated drift
  /// since that sample was taken.
  std::int64_t error_bound_ns(std::int64_t local_now_ns) const;

  /// RTT of the sample the estimate is based on (tightest bound seen).
  std::int64_t best_rtt_ns() const { return best_rtt_ns_; }

  int sample_count() const { return samples_; }

 private:
  double drift_ppm_;
  int samples_ = 0;
  std::int64_t offset_ns_ = 0;
  std::int64_t best_rtt_ns_ = 0;
  /// Local-clock midpoint of the best sample — drift accrues from here.
  std::int64_t synced_at_local_ns_ = 0;
};

}  // namespace finelb::telemetry
