// Photo-album scenario: the paper's Figure 1 service cluster.
//
// The cluster hosts an "image-store" service partitioned into two partition
// groups (photos 0-9 and 10-19), each replicated on two server nodes that
// serve a FETCH method from a neptune::MethodTable. All four nodes announce
// themselves on the availability channel as soft state. The album
// front-end is a neptune::ServiceClient, which resolves each photo access in
// the two Neptune steps:
//   1. service availability: look the partition up in the mapping table
//      refreshed from the directory;
//   2. load balancing: poll the partition's replicas and dispatch to the
//      lighter one (random polling, d = group size).
//
// It also demonstrates the soft-state failure story: one replica is stopped
// mid-run, its directory entry expires, and the front-end keeps serving
// from the survivor without reconfiguration.
//
// Run:  ./build/examples/photo_album
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/directory.h"
#include "cluster/server_node.h"
#include "common/flags.h"
#include "common/log.h"
#include "net/clock.h"
#include "neptune/method_table.h"
#include "neptune/service_client.h"

using namespace finelb;

namespace {

constexpr const char* kImageStore = "image-store";
constexpr std::uint16_t kFetch = 1;

std::uint32_t partition_of(int photo) { return photo < 10 ? 0u : 1u; }

/// The stored image bytes for a photo (a stand-in for a real JPEG).
std::vector<std::uint8_t> photo_bytes(int photo) {
  const std::string image = "photo-" + std::to_string(photo) + ".jpg";
  return {image.begin(), image.end()};
}

/// FETCH: args = photo id (u32); holds the worker for 3 ms of "decode and
/// resize" work, then returns the image.
std::vector<std::uint8_t> fetch_handler(std::uint32_t partition,
                                        std::span<const std::uint8_t> args) {
  net::Reader reader(args);
  const auto photo = static_cast<int>(reader.u32());
  if (partition_of(photo) != partition) {
    throw std::runtime_error("photo routed to the wrong partition");
  }
  net::sleep_for(3 * kMillisecond);
  return photo_bytes(photo);
}

/// One image-store replica: a server node running its partition's table.
std::unique_ptr<cluster::ServerNode> make_store_node(
    ServerId id, neptune::MethodTable& table, const net::Address& directory) {
  cluster::ServerOptions options;
  options.id = id;
  options.inject_busy_reply_delay = false;
  options.seed = 100 + static_cast<std::uint64_t>(id);
  options.handler = table.handler();
  auto node = std::make_unique<cluster::ServerNode>(options);
  node->enable_publishing({directory}, kImageStore, table.partitions(),
                          /*interval=*/100 * kMillisecond,
                          /*ttl=*/350 * kMillisecond);
  node->start();
  return node;
}

/// Fetches one photo; returns the serving node id, or -1 on failure or a
/// corrupt image.
int fetch_photo(neptune::ServiceClient& frontend, int photo) {
  net::Writer args;
  args.u32(static_cast<std::uint32_t>(photo));
  const neptune::CallResult result =
      frontend.call(kFetch, partition_of(photo), args.bytes());
  if (!result.transport_ok || result.status != net::RpcStatus::kOk ||
      result.data != photo_bytes(photo)) {
    return -1;
  }
  return result.server;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  init_log_level(flags);
  // --- assemble the Figure 1 cluster ---------------------------------------
  cluster::DirectoryServer directory;
  directory.start();

  // One method table per partition group, shared by its two replicas (and
  // declared before the nodes, so it outlives them).
  neptune::MethodTable photos_0_9({0});
  neptune::MethodTable photos_10_19({1});
  photos_0_9.add(kFetch, fetch_handler);
  photos_10_19.add(kFetch, fetch_handler);
  std::vector<std::unique_ptr<cluster::ServerNode>> nodes;
  nodes.push_back(make_store_node(0, photos_0_9, directory.address()));
  nodes.push_back(make_store_node(1, photos_0_9, directory.address()));
  nodes.push_back(make_store_node(2, photos_10_19, directory.address()));
  nodes.push_back(make_store_node(3, photos_10_19, directory.address()));
  std::printf("image-store: partitions 0-9 on nodes {0,1}, 10-19 on {2,3}\n");

  // Wait until all four replicas have published themselves.
  cluster::DirectoryClient waiter(directory.address());
  waiter.wait_for_servers(kImageStore, 4);
  neptune::ServiceClientOptions options;
  options.service_name = kImageStore;
  options.directory = directory.address();
  options.policy = PolicyConfig::polling(2);
  options.mapping_refresh = 100 * kMillisecond;
  options.seed = 7;
  neptune::ServiceClient frontend(options);

  // --- serve an album page --------------------------------------------------
  std::printf("\nfetching album page (photos 0..19):\n  served by node:");
  int failures = 0;
  std::map<int, int> served_by;
  for (int photo = 0; photo < 20; ++photo) {
    const int node = fetch_photo(frontend, photo);
    if (node < 0) {
      ++failures;
    } else {
      ++served_by[node];
    }
    std::printf(" %d", node);
  }
  std::printf("\n  per-node counts:");
  for (const auto& [node, count] : served_by) {
    std::printf(" node%d=%d", node, count);
  }
  std::printf("  failures=%d\n", failures);

  // --- soft-state failover ---------------------------------------------------
  std::printf("\nstopping node 1 (partition 0 replica)...\n");
  nodes[1]->stop();
  // Its soft state expires after the 350 ms ttl with no refresh; the
  // front-end's next mapping refresh no longer lists it.
  net::sleep_for(500 * kMillisecond);

  std::printf("fetching partition-0 photos after failover:\n  served by:");
  int misroutes = 0;
  for (int photo = 0; photo < 10; ++photo) {
    const int node = fetch_photo(frontend, photo);
    if (node != 0) ++misroutes;
    std::printf(" %d", node);
  }
  std::printf("\n  all requests land on the surviving replica (node 0); "
              "misroutes: %d\n", misroutes);

  for (auto& node : nodes) node->stop();
  directory.stop();
  std::printf(
      "\nThe availability channel's soft state removed the dead replica\n"
      "without any explicit deregistration (paper section 3.1).\n");
  return failures == 0 && misroutes == 0 ? 0 : 1;
}
