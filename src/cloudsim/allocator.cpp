#include "cloudsim/allocator.h"

#include <limits>

#include "common/check.h"
#include "obs/metrics.h"

namespace cloudlens {

Allocator::Allocator(const Topology& topology, AllocatorOptions opts)
    : topo_(topology),
      opts_(opts),
      use_(topology.nodes().size()),
      node_available_(topology.nodes().size(), true),
      scan_(topology.regions().size() * 2) {
  // Clusters in id order, each appending its nodes: per table this is the
  // clusters_in order, so scans (and tie-breaks) match a cluster-list walk.
  for (const Cluster& cluster : topology.clusters()) {
    auto& table = scan_[cluster.region.value() * 2 +
                        static_cast<std::size_t>(cluster.cloud)];
    for (const NodeId nid : cluster.nodes) {
      const Node& node = topology.node(nid);
      table.push_back(
          ScanEntry{nid, node.rack, node.total_cores, node.total_memory_gb});
    }
  }
}

std::span<const Allocator::ScanEntry> Allocator::scan_table(
    RegionId region, CloudType cloud) const {
  const std::size_t index = static_cast<std::size_t>(region.value()) * 2 +
                            static_cast<std::size_t>(cloud);
  if (!region.valid() || index >= scan_.size()) return {};
  return scan_[index];
}

void Allocator::set_node_available(NodeId id, bool available) {
  CL_CHECK(id.valid() && id.value() < node_available_.size());
  node_available_[id.value()] = available;
}

bool Allocator::node_available(NodeId id) const {
  return node_available_.at(id.value());
}

std::uint64_t Allocator::owner_key(const VmRequest& request) {
  if (request.service.valid())
    return (1ULL << 32) | request.service.value();
  return request.subscription.value();
}

std::optional<Placement> Allocator::allocate(const VmRequest& request,
                                             VmId vm) {
  ++stats_.requests;
  CL_CHECK(request.cores > 0 && request.memory_gb > 0);
  CL_CHECK_MSG(!leases_.contains(vm), "VM already allocated");
  obs::MetricsRegistry::global().add(obs::Counter::kAllocAttempts);
  std::uint64_t nodes_scanned = 0;

  const std::uint64_t owner = owner_key(request);

  // Rule chain: feasibility filter, then (fewest same-owner VMs in the
  // rack, best-fit on cores) as the preference order. The owner's count is
  // probed when the scan enters a new rack, at its first feasible node.
  const ScanEntry* best = nullptr;
  int best_owner_in_rack = std::numeric_limits<int>::max();
  double best_leftover = std::numeric_limits<double>::infinity();
  RackId probed_rack;
  int probed_count = 0;

  for (const ScanEntry& entry : scan_table(request.region, request.cloud)) {
    if (!node_available_[entry.node.value()]) continue;
    ++nodes_scanned;
    const NodeUse& u = use_[entry.node.value()];
    if (u.cores + request.cores > entry.total_cores ||
        u.memory_gb + request.memory_gb > entry.total_memory_gb)
      continue;

    int owner_in_rack = 0;
    if (opts_.spread_fault_domains) {
      if (entry.rack != probed_rack) {
        probed_rack = entry.rack;
        const auto it =
            rack_owner_count_.find(rack_owner_slot(entry.rack, owner));
        probed_count = it == rack_owner_count_.end() ? 0 : it->second;
      }
      owner_in_rack = probed_count;
    }
    const double leftover = entry.total_cores - u.cores - request.cores;
    if (owner_in_rack < best_owner_in_rack ||
        (owner_in_rack == best_owner_in_rack && leftover < best_leftover)) {
      best = &entry;
      best_owner_in_rack = owner_in_rack;
      best_leftover = leftover;
    }
  }

  obs::MetricsRegistry::global().add(obs::Counter::kAllocNodesScanned,
                                     nodes_scanned);
  if (best == nullptr) {
    ++stats_.failures;
    obs::MetricsRegistry::global().add(obs::Counter::kAllocFailures);
    return std::nullopt;
  }

  NodeUse& u = use_[best->node.value()];
  u.cores += request.cores;
  u.memory_gb += request.memory_gb;
  ++rack_owner_count_[rack_owner_slot(best->rack, owner)];
  leases_.emplace(vm, Lease{best->node, best->rack, request.cores,
                            request.memory_gb, owner});
  return Placement{topo_.node(best->node).cluster, best->rack, best->node};
}

void Allocator::release(VmId vm) {
  const auto it = leases_.find(vm);
  if (it == leases_.end()) return;
  obs::MetricsRegistry::global().add(obs::Counter::kAllocReleases);
  const Lease& lease = it->second;
  NodeUse& u = use_[lease.node.value()];
  u.cores -= lease.cores;
  u.memory_gb -= lease.memory_gb;
  auto slot = rack_owner_count_.find(rack_owner_slot(lease.rack, lease.owner));
  CL_CHECK(slot != rack_owner_count_.end() && slot->second > 0);
  if (--slot->second == 0) rack_owner_count_.erase(slot);
  leases_.erase(it);
}

double Allocator::node_used_cores(NodeId id) const {
  return use_.at(id.value()).cores;
}

double Allocator::node_used_memory_gb(NodeId id) const {
  return use_.at(id.value()).memory_gb;
}

double Allocator::node_free_cores(NodeId id) const {
  return topo_.node(id).total_cores - use_.at(id.value()).cores;
}

}  // namespace cloudlens
