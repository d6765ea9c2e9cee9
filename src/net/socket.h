// RAII socket wrappers for the prototype runtime.
//
// The prototype mirrors the paper's implementation choices: load inquiries
// travel over *connected* UDP sockets and are collected asynchronously with
// poll(2) (the modern equivalent of the select(3) call the paper used);
// service requests/responses use unconnected UDP datagrams on a single
// per-node socket. Everything binds to 127.0.0.1 — the single-host stand-in
// for the paper's switched-Ethernet cluster (DESIGN.md §3).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"
#include "fault/fault.h"

namespace finelb::net {

/// Owns a file descriptor; closes on destruction. Move-only.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle();

  FdHandle(FdHandle&& other) noexcept;
  FdHandle& operator=(FdHandle&& other) noexcept;
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// IPv4 endpoint address.
struct Address {
  std::uint32_t host = 0;  // network byte order
  std::uint16_t port = 0;  // host byte order

  static Address loopback(std::uint16_t port);
  sockaddr_in to_sockaddr() const;
  static Address from_sockaddr(const sockaddr_in& sa);
  std::string to_string() const;

  bool operator==(const Address&) const = default;
};

/// Result of a recv_from: payload size and sender.
struct Datagram {
  std::size_t size = 0;
  Address from;
};

/// Preallocated buffer pool for batched datagram I/O (recvmmsg/sendmmsg).
/// One batch is reused across calls: receive loops drain bursts into it
/// without per-datagram syscalls or allocations, and reply paths stage
/// outgoing datagrams in it before a single send_batch. A batch serves one
/// direction at a time — clear() resets it between uses.
class DatagramBatch {
 public:
  explicit DatagramBatch(std::size_t capacity = 32,
                         std::size_t buffer_bytes = 512);
  ~DatagramBatch();
  DatagramBatch(DatagramBatch&&) noexcept;
  DatagramBatch& operator=(DatagramBatch&&) noexcept;

  std::size_t capacity() const;
  /// Datagrams held: received by the last recv_batch, or staged for send.
  std::size_t size() const;
  std::span<const std::uint8_t> payload(std::size_t i) const;
  const Address& address(std::size_t i) const;  // sender (recv) / dest (send)

  /// Stages a datagram for send_batch. Returns false when the batch is
  /// full or the payload exceeds the per-slot buffer.
  bool append(std::span<const std::uint8_t> payload, const Address& dest);

  /// Zero-copy staging: the writable buffer of the next free slot (empty
  /// when the batch is full). Encode directly into it (encode_into), then
  /// commit() the byte count — this skips the append() memcpy entirely.
  std::span<std::uint8_t> stage();
  /// Marks the slot returned by the last stage() as holding `payload_bytes`
  /// bytes destined for `dest`.
  void commit(std::size_t payload_bytes, const Address& dest);

  void clear();

 private:
  friend class UdpSocket;
  struct Impl;  // mmsghdr/iovec/sockaddr arrays (socket.cc)
  std::unique_ptr<Impl> impl_;
};

/// Per-thread reusable scratch buffer of at least `bytes` bytes, for recv
/// staging and in-place message encoding on hot paths. The buffer grows
/// geometrically and is then reused for the life of the thread, so
/// steady-state callers never allocate. Contents are undefined between
/// calls; each call may return the same storage, so a caller must finish
/// with one scratch span before requesting another on the same thread.
std::span<std::uint8_t> thread_scratch(std::size_t bytes);

/// A UDP socket bound to loopback. Non-blocking by default: all prototype
/// I/O goes through poll()-driven event loops and blocking would deadlock a
/// single-threaded client.
class UdpSocket {
 public:
  /// Binds to 127.0.0.1 on `port` (0 picks an ephemeral port).
  explicit UdpSocket(std::uint16_t port = 0);
  ~UdpSocket();  // out-of-line: FaultState is incomplete here

  UdpSocket(UdpSocket&&) noexcept;
  UdpSocket& operator=(UdpSocket&&) noexcept;

  int fd() const { return fd_.get(); }
  /// The locally bound address (with the kernel-assigned port resolved).
  Address local_address() const;

  /// Connects the socket to a fixed peer; send()/recv() then apply to that
  /// peer only. This is how the paper's polling agent holds one socket per
  /// server.
  void connect(const Address& peer);

  /// Sends to the connected peer. Returns false if the kernel buffer is
  /// full (EAGAIN/ENOBUFS — treated as a dropped datagram, like a switch
  /// drop would be). Throws SysError on real failures.
  bool send(std::span<const std::uint8_t> payload);

  /// Sends to an explicit destination (unconnected use).
  bool send_to(std::span<const std::uint8_t> payload, const Address& dest);

  /// Non-blocking receive on a connected socket. Returns the payload size,
  /// or nullopt when no datagram is pending.
  std::optional<std::size_t> recv(std::span<std::uint8_t> buffer);

  /// Non-blocking receive capturing the sender address.
  std::optional<Datagram> recv_from(std::span<std::uint8_t> buffer);

  /// Drains up to batch.capacity() pending datagrams in one recvmmsg call
  /// (one syscall per burst instead of one per datagram). Returns the count
  /// received, 0 when nothing is pending. With a fault injector attached
  /// the batch is filled through the per-datagram fault path instead, so
  /// drop/duplicate/delay decisions still apply to each datagram
  /// individually.
  std::size_t recv_batch(DatagramBatch& batch);

  /// Sends every datagram staged in the batch via one sendmmsg call.
  /// Returns the number the kernel accepted; the remainder were dropped
  /// (full buffer — same semantics as send_to returning false). With a
  /// fault injector attached each datagram goes through the per-datagram
  /// fault path instead.
  std::size_t send_batch(DatagramBatch& batch);

  /// Enlarges kernel buffers; the experiment harness drives thousands of
  /// datagrams per second through loopback and the 212 kB default is easy
  /// to overflow on a busy box. Returns the receive buffer the kernel
  /// granted (SO_RCVBUF read back; Linux reports twice the usable bytes).
  /// The kernel silently caps unprivileged requests at net.core.rmem_max,
  /// so a grant under half the request logs one warning per process.
  int set_buffer_sizes(int bytes);

  /// Earliest instant a datagram held back by the fault injector falls due
  /// (delayed ingress to surface, or delayed egress to flush); nullopt when
  /// none is pending or no injector is attached. Held datagrams move only
  /// when the socket is touched, so a loop that otherwise blocks without a
  /// timeout bounds its wait by this.
  std::optional<SimTime> next_held_due() const;

  /// Attaches a fault injector: every subsequent send*/recv* consults it and
  /// may drop, duplicate, or delay the datagram (fault/fault.h). Delayed
  /// egress datagrams are flushed on later calls to this socket; delayed
  /// ingress datagrams are surfaced by later recv* calls once due, so
  /// effective delay resolution is bounded by how often the owner's event
  /// loop touches the socket. Pass nullptr to detach. Without an injector
  /// the fast path pays a single null check.
  void attach_fault_injector(std::shared_ptr<fault::FaultInjector> injector);

  /// The injector attached to this socket, if any.
  const std::shared_ptr<fault::FaultInjector>& fault_injector() const {
    return injector_;
  }

 private:
  struct FaultState;  // pending delayed datagrams (socket.cc)

  bool raw_send(std::span<const std::uint8_t> payload);
  bool raw_send_to(std::span<const std::uint8_t> payload, const Address& dest);
  void flush_delayed_egress();
  bool faulty_send(std::span<const std::uint8_t> payload, const Address* dest);
  std::optional<Datagram> faulty_recv(std::span<std::uint8_t> buffer,
                                      bool want_sender);

  FdHandle fd_;
  std::shared_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<FaultState> fault_state_;
};

}  // namespace finelb::net
