#include "neptune/method_table.h"

#include <algorithm>
#include <exception>

#include "common/check.h"
#include "common/log.h"

namespace finelb::neptune {

MethodTable::MethodTable(std::vector<std::uint32_t> partitions)
    : partitions_(std::move(partitions)) {
  FINELB_CHECK(!partitions_.empty(),
               "service node must host at least one partition");
}

void MethodTable::add(std::uint16_t method, MethodHandler handler) {
  FINELB_CHECK(!sealed_, "add() must precede handler()");
  FINELB_CHECK(handler != nullptr, "handler must be callable");
  FINELB_CHECK(methods_.emplace(method, std::move(handler)).second,
               "method already registered");
}

cluster::RequestHandler MethodTable::handler() {
  FINELB_CHECK(!methods_.empty(), "no methods registered");
  sealed_ = true;
  return [this](const net::ServiceRequest& request,
                net::ServiceResponse& response) { serve(request, response); };
}

void MethodTable::serve(const net::ServiceRequest& request,
                        net::ServiceResponse& response) {
  if (std::find(partitions_.begin(), partitions_.end(), request.partition) ==
      partitions_.end()) {
    response.status = net::RpcStatus::kNoSuchPartition;
    return;
  }
  const auto method = methods_.find(request.method);
  if (method == methods_.end()) {
    response.status = net::RpcStatus::kNoSuchMethod;
    return;
  }
  try {
    response.result = method->second(request.partition, request.args);
    FINELB_CHECK(response.result.size() <= net::kMaxRpcPayload,
                 "RPC result exceeds the datagram limit");
    response.status = net::RpcStatus::kOk;
  } catch (const std::exception& e) {
    FINELB_LOG(kWarn, "neptune")
        << "method " << request.method << " failed: " << e.what();
    response.status = net::RpcStatus::kAppError;
    response.result.clear();
    app_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace finelb::neptune
