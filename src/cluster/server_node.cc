#include "cluster/server_node.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/log.h"
#include "cluster/blocking_queue.h"
#include "net/clock.h"
#include "net/poller.h"

namespace finelb::cluster {

class ServerNode::Queue : public BlockingQueue<WorkItem> {};

ServerNode::ServerNode(ServerOptions options)
    : options_(options),
      trace_(options_.trace_capacity == 0 ? 1 : options_.trace_capacity,
             options_.trace_sample_period),
      pull_(options_.id, "server." + std::to_string(options_.id), metrics_,
            trace_),
      queue_(std::make_unique<Queue>()) {
  FINELB_CHECK(options_.worker_threads >= 1, "need at least one worker");
  service_socket_.set_buffer_sizes(1 << 21);
  load_socket_.set_buffer_sizes(1 << 21);
  service_socket_.attach_fault_injector(options_.fault);
  load_socket_.attach_fault_injector(options_.fault);
  m_served_ = metrics_.counter("requests_served");
  m_inquiries_ = metrics_.counter("inquiries_answered");
  m_send_failures_ = metrics_.counter("send_failures");
  m_service_time_ms_ = metrics_.histogram("service_time_ms");
  m_queue_wait_ms_ = metrics_.histogram("queue_wait_ms");
  metrics_.probe("queue_depth",
                 [this] { return qlen_.load(std::memory_order_relaxed); });
  metrics_.probe("max_queue_depth", [this] {
    return max_qlen_.load(std::memory_order_relaxed);
  });
}

ServerNode::~ServerNode() { stop(); }

net::Address ServerNode::service_address() const {
  return service_socket_.local_address();
}

net::Address ServerNode::load_address() const {
  return load_socket_.local_address();
}

void ServerNode::enable_publishing(std::vector<net::Address> directories,
                                   std::string service,
                                   std::vector<std::uint32_t> partitions,
                                   SimDuration interval, SimDuration ttl) {
  FINELB_CHECK(!running_.load(), "enable_publishing must precede start()");
  FINELB_CHECK(!directories.empty(), "need at least one directory target");
  FINELB_CHECK(!service.empty(), "published service needs a name");
  FINELB_CHECK(!partitions.empty(), "must publish at least one partition");
  FINELB_CHECK(interval > 0 && ttl > 0, "publish interval and ttl required");
  publish_enabled_ = true;
  directories_ = std::move(directories);
  publish_service_ = std::move(service);
  publish_partitions_ = std::move(partitions);
  publish_interval_ = interval;
  publish_ttl_ = ttl;
}

void ServerNode::enable_load_broadcast(const net::Address& channel,
                                       SimDuration mean_interval,
                                       bool jitter) {
  FINELB_CHECK(!started_, "enable_load_broadcast must precede start()");
  FINELB_CHECK(mean_interval > 0, "broadcast interval must be positive");
  broadcast_enabled_ = true;
  broadcast_channel_ = channel;
  broadcast_interval_ = mean_interval;
  broadcast_jitter_ = jitter;
}

void ServerNode::start() {
  FINELB_CHECK(!started_, "server nodes are single-shot: already started");
  started_ = true;
  running_.store(true);
  threads_.emplace_back([this] { service_recv_loop(); });
  threads_.emplace_back([this] { load_recv_loop(); });
  for (int i = 0; i < options_.worker_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
  if (publish_enabled_) {
    threads_.emplace_back([this] { publish_loop(); });
  }
  if (broadcast_enabled_) {
    threads_.emplace_back([this] { broadcast_loop(); });
  }
}

void ServerNode::stop() {
  if (!running_.exchange(false)) return;
  stop_.notify();
  queue_->close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ServerNode::service_recv_loop() {
  net::Poller poller;
  poller.add(service_socket_.fd(), 0);
  poller.add(stop_.fd(), 1);
  // Experiment requests are fixed-size; a custom handler's RPC args may
  // fill a whole datagram.
  net::DatagramBatch batch(32, options_.handler ? 64 * 1024 : 256);
  while (running_.load(std::memory_order_relaxed)) {
    // No timer of its own: block until a request arrives, a datagram the
    // fault injector held back falls due, or stop() fires.
    poller.wait_until(service_socket_.next_held_due());
    // Drain the burst with one recvmmsg per batch instead of one recvfrom
    // per request: under fine-grain load many arrivals pile up per wakeup.
    while (service_socket_.recv_batch(batch) > 0) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        WorkItem item;
        if (!net::ServiceRequest::try_decode(batch.payload(i), item.request)) {
          FINELB_LOG(kWarn, "server") << "dropping malformed service request";
          continue;
        }
        item.reply_to = batch.address(i);
        item.enqueued_at = net::monotonic_now();
        // Load index covers queued + in-service accesses: increment on
        // acceptance, decrement after the response is sent (worker_loop).
        item.queue_at_arrival = qlen_.fetch_add(1, std::memory_order_relaxed);
        std::int32_t expected = max_qlen_.load(std::memory_order_relaxed);
        const std::int32_t now_len = item.queue_at_arrival + 1;
        while (now_len > expected &&
               !max_qlen_.compare_exchange_weak(expected, now_len)) {
        }
        queue_->push(std::move(item));
      }
    }
  }
}

void ServerNode::load_recv_loop() {
  net::Poller poller;
  poller.add(load_socket_.fd(), 0);
  poller.add(stop_.fd(), 1);
  // Inquiry bursts arrive d-at-a-time (every polling client fans out d
  // inquiries per access): drain and answer them batched, one syscall per
  // burst in each direction.
  net::DatagramBatch inquiries(32, 64);
  net::DatagramBatch replies(32, 64);
  Rng rng(options_.seed * 2654435761u + 17);

  // Replies whose injected busy delay has not elapsed yet. Delays must not
  // be served by sleeping inline: concurrent inquiries would queue behind
  // one another and the delays would compound far beyond the modelled
  // distribution.
  struct DelayedReply {
    std::uint64_t seq;
    std::uint64_t trace_id;
    std::int64_t origin_ns;
    net::Address to;
    SimTime due;
  };
  std::vector<DelayedReply> delayed;

  // Queue length at *reply* time: the paper's slow replies carry stale
  // indexes precisely because the queue moved while they waited.
  const auto make_reply = [this](std::uint64_t seq, std::uint64_t trace_id,
                                 std::int64_t origin_ns, SimTime now) {
    net::LoadReply reply;
    reply.seq = seq;
    reply.queue_length = qlen_.load(std::memory_order_relaxed);
    reply.trace_id = trace_id;
    reply.origin_ns = origin_ns;
    reply.server_ns = now;
    if (trace_id != 0 && trace_.active()) {
      trace_.record(trace_id, telemetry::TracePoint::kLoadReplied,
                    options_.id, now, reply.queue_length);
    }
    return reply;
  };
  const auto send_reply = [this](const net::LoadReply& reply,
                                 const net::Address& to) {
    std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
    const std::size_t n = reply.encode_into(buf);
    if (!load_socket_.send_to({buf.data(), n}, to)) {
      send_failures_.fetch_add(1, std::memory_order_relaxed);
      m_send_failures_.inc();
    }
    inquiries_.fetch_add(1, std::memory_order_relaxed);
    m_inquiries_.inc();
  };

  while (running_.load(std::memory_order_relaxed)) {
    // The only timers are the busy-delayed replies and any datagram the
    // fault injector held back; otherwise block until an inquiry arrives
    // or stop() fires.
    std::optional<SimTime> wake_at = load_socket_.next_held_due();
    for (const DelayedReply& d : delayed) {
      if (!wake_at || d.due < *wake_at) wake_at = d.due;
    }
    poller.wait_until(wake_at);
    while (load_socket_.recv_batch(inquiries) > 0) {
      replies.clear();
      // One clock read per drained burst: every reply in the burst carries
      // the same server_ns. Bursts resolve within microseconds, well inside
      // ClockSync's RTT/2 error bound, and the fast path stays one vDSO
      // call per batch instead of one per inquiry.
      const SimTime burst_ns = net::monotonic_now();
      for (std::size_t i = 0; i < inquiries.size(); ++i) {
        net::LoadInquiry inquiry;
        if (!net::LoadInquiry::try_decode(inquiries.payload(i), inquiry)) {
          // Not a load inquiry: the observability pull channel shares this
          // socket (cold path — answering allocates, which is fine off the
          // polling fast path).
          net::PullInquiry pull;
          if (net::PullInquiry::try_decode(inquiries.payload(i), pull) &&
              !pull_.answer(pull, load_socket_, inquiries.address(i))) {
            send_failures_.fetch_add(1, std::memory_order_relaxed);
            m_send_failures_.inc();
          }
          continue;
        }
        const std::int32_t qlen = qlen_.load(std::memory_order_relaxed);
        if (options_.inject_busy_reply_delay && qlen > 0) {
          // Scheduler-contention stand-in (see header comment): rare long
          // stall or short heavy-tailed stack delay.
          SimDuration delay = 0;
          if (rng.bernoulli(options_.busy_slow_prob)) {
            delay = std::min<SimDuration>(
                options_.busy_slow_min +
                    static_cast<SimDuration>(rng.exponential(
                        static_cast<double>(options_.busy_slow_excess))),
                options_.busy_slow_cap);
          } else {
            const double u = std::max(1.0 - rng.uniform01(), 1e-12);
            const double delay_ns =
                static_cast<double>(options_.busy_reply_xm) *
                std::pow(u, -1.0 / options_.busy_reply_alpha);
            delay = std::min(static_cast<SimDuration>(delay_ns),
                             options_.busy_reply_cap);
          }
          delayed.push_back({inquiry.seq, inquiry.trace_id, inquiry.origin_ns,
                             inquiries.address(i),
                             net::monotonic_now() + delay});
        } else {
          const net::LoadReply reply = make_reply(
              inquiry.seq, inquiry.trace_id, inquiry.origin_ns, burst_ns);
          // Encode straight into the batch slot (no intermediate vector or
          // memcpy); fall back to an immediate send when the batch is full.
          const auto slot = replies.stage();
          if (const std::size_t n = reply.encode_into(slot); n > 0) {
            replies.commit(n, inquiries.address(i));
          } else {
            send_reply(reply, inquiries.address(i));
          }
        }
      }
      const std::size_t sent = load_socket_.send_batch(replies);
      send_failures_.fetch_add(
          static_cast<std::int64_t>(replies.size() - sent),
          std::memory_order_relaxed);
      m_send_failures_.add(static_cast<std::int64_t>(replies.size() - sent));
      inquiries_.fetch_add(static_cast<std::int64_t>(replies.size()),
                           std::memory_order_relaxed);
      m_inquiries_.add(static_cast<std::int64_t>(replies.size()));
    }
    if (!delayed.empty()) {
      const SimTime now = net::monotonic_now();
      for (std::size_t i = 0; i < delayed.size();) {
        if (delayed[i].due <= now) {
          send_reply(make_reply(delayed[i].seq, delayed[i].trace_id,
                                delayed[i].origin_ns, net::monotonic_now()),
                     delayed[i].to);
          delayed[i] = delayed.back();
          delayed.pop_back();
        } else {
          ++i;
        }
      }
    }
  }
}

void ServerNode::worker_loop() {
  WorkItem item;
  while (true) {
    // Fast path for bursts: grab a queued item without touching the
    // condition variable; only block when the queue is momentarily empty.
    // try_pop's tri-state result distinguishes "empty, fall back to the
    // blocking pop" from "closed and drained, exit" — the old optional
    // API conflated the two and relied on pop() to notice shutdown.
    switch (queue_->try_pop(item)) {
      case PopResult::kItem:
        break;
      case PopResult::kClosed:
        return;
      case PopResult::kEmpty: {
        auto blocked = queue_->pop();
        if (!blocked) return;  // queue closed and drained
        item = std::move(*blocked);
        break;
      }
    }
    const SimTime start = net::monotonic_now();
    const SimDuration queue_wait = start - item.enqueued_at;
    m_queue_wait_ms_.record(static_cast<double>(queue_wait) / 1e6);
    // A wire trace_id means the issuing client sampled this request: record
    // it whenever the ring is live. Requests without propagated context
    // fall back to this node's own sampling period.
    const bool traced =
        (item.request.trace_id != 0 && trace_.active()) ||
        trace_.sampled(item.request.request_id);
    if (traced) {
      trace_.record(item.request.request_id, telemetry::TracePoint::kServiceStart,
                    options_.id, start, queue_wait);
    }
    net::ServiceResponse response;
    if (options_.handler) {
      options_.handler(item.request, response);
    } else {
      net::sleep_until(start + static_cast<SimDuration>(
                                   item.request.service_us) * kMicrosecond);
    }
    response.request_id = item.request.request_id;
    response.server = options_.id;
    response.queue_at_arrival = item.queue_at_arrival;
    response.trace_id = item.request.trace_id;
    if (item.request.trace_id != 0) {
      response.server_ns = net::monotonic_now();
    }
    // Thread-local scratch: no per-response heap buffer, whatever the
    // result size.
    const std::span<std::uint8_t> out =
        net::thread_scratch(response.encoded_size());
    const std::size_t n = response.encode_into(out);
    if (n == 0 || !service_socket_.send_to(out.subspan(0, n), item.reply_to)) {
      send_failures_.fetch_add(1, std::memory_order_relaxed);
      m_send_failures_.inc();
    }
    const SimTime done = net::monotonic_now();
    m_service_time_ms_.record(static_cast<double>(done - start) / 1e6);
    if (traced) {
      trace_.record(item.request.request_id, telemetry::TracePoint::kResponse,
                    options_.id, done, item.queue_at_arrival);
    }
    qlen_.fetch_sub(1, std::memory_order_relaxed);
    // Telemetry first: anyone polling counters() for completion then
    // scraping the registry sees the served count already mirrored.
    m_served_.inc();
    served_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServerNode::publish_loop() {
  net::UdpSocket publish_socket;
  // One announcement per hosted partition, as the paper's nodes publish
  // "the service type, the data partitions it hosts, and the access
  // interface".
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const std::uint32_t partition : publish_partitions_) {
    net::Publish announcement;
    announcement.service = publish_service_;
    announcement.partition = partition;
    announcement.server = options_.id;
    announcement.service_port = service_address().port;
    announcement.load_port = load_address().port;
    announcement.ttl_ms = static_cast<std::uint32_t>(to_ms(publish_ttl_));
    payloads.push_back(announcement.encode());
  }
  for (;;) {
    for (const net::Address& directory : directories_) {
      for (const auto& payload : payloads) {
        publish_socket.send_to(payload, directory);
      }
    }
    if (stop_.sleep_until(net::monotonic_now() + publish_interval_)) return;
  }
}

void ServerNode::broadcast_loop() {
  net::UdpSocket broadcast_socket;
  Rng rng(options_.seed * 40503u + 271);
  const auto mean = static_cast<double>(broadcast_interval_);
  for (;;) {
    net::LoadAnnounce announcement;
    announcement.server = options_.id;
    announcement.queue_length = qlen_.load(std::memory_order_relaxed);
    std::array<std::uint8_t, net::kMaxFixedMsgSize> buf;
    const std::size_t n = announcement.encode_into(buf);
    broadcast_socket.send_to({buf.data(), n}, broadcast_channel_);
    const SimDuration interval =
        broadcast_jitter_
            ? static_cast<SimDuration>(rng.uniform(0.5 * mean, 1.5 * mean))
            : broadcast_interval_;
    if (stop_.sleep_until(net::monotonic_now() + interval)) return;
  }
}

ServerCounters ServerNode::counters() const {
  ServerCounters c;
  c.requests_served = served_.load();
  c.inquiries_answered = inquiries_.load();
  c.max_queue_length = max_qlen_.load();
  c.send_failures = send_failures_.load();
  return c;
}

}  // namespace finelb::cluster
