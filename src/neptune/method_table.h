// Neptune service access interface (paper §3.1) as a ServerNode handler.
//
// "Neptune encapsulates an application-level network service through a
// service access interface which contains several RPC-like access methods.
// Each service access through one of these methods can be fulfilled
// exclusively on one data partition."
//
// A MethodTable holds that interface: the application's handler per method
// id and the data partitions served. Installed as a cluster::ServerNode's
// request handler (ServerOptions::handler = table.handler()), it turns the
// node into a Neptune service node; the node supplies the queue, workers,
// load-index server, publishing (of table.partitions()), tracing,
// busy-reply model and fault injection.
//
// Threading contract for methods: a method runs on a worker thread; with
// the default pool size of 1 methods never run concurrently on one node,
// matching the non-preemptive processing unit of the simulation model.
// With a larger pool, or one table shared by several nodes, the
// application must synchronize its own state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "cluster/server_node.h"
#include "net/message.h"

namespace finelb::neptune {

/// Application method: (partition, args) -> result bytes. Throwing any
/// exception answers RpcStatus::kAppError.
using MethodHandler = std::function<std::vector<std::uint8_t>(
    std::uint32_t partition, std::span<const std::uint8_t> args)>;

class MethodTable {
 public:
  /// `partitions`: the data partitions this node hosts (at least one).
  explicit MethodTable(std::vector<std::uint32_t> partitions);

  MethodTable(const MethodTable&) = delete;
  MethodTable& operator=(const MethodTable&) = delete;

  /// Registers a method; every add() must precede handler().
  void add(std::uint16_t method, MethodHandler handler);

  /// The ServerNode request handler for this table: answers
  /// kNoSuchPartition / kNoSuchMethod for requests it cannot serve,
  /// kAppError when the method throws or returns more than
  /// net::kMaxRpcPayload bytes, else kOk with the method's result. Seals
  /// the table (no further add()); the table must outlive every node it is
  /// installed on.
  cluster::RequestHandler handler();

  const std::vector<std::uint32_t>& partitions() const { return partitions_; }

  /// Requests answered kAppError so far.
  std::int64_t app_errors() const {
    return app_errors_.load(std::memory_order_relaxed);
  }

 private:
  void serve(const net::ServiceRequest& request,
             net::ServiceResponse& response);

  std::vector<std::uint32_t> partitions_;
  std::map<std::uint16_t, MethodHandler> methods_;
  bool sealed_ = false;
  std::atomic<std::int64_t> app_errors_{0};
};

}  // namespace finelb::neptune
