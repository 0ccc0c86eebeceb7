// Allocation service: places VM requests onto nodes.
//
// A simplified Protean-style rule chain (the paper's ref [10]): filter nodes
// with sufficient capacity in the requested region + cloud, prefer racks
// (fault domains) hosting the fewest VMs of the same owner (service or
// subscription), then best-fit on cores. Tracks allocation failures, which
// the paper's Insight 1 links to large private-cloud deployment sizes.
//
// The scan walks a flat per-(region, cloud) table built once from the
// topology, in cluster-then-node order, and looks the owner's count up once
// per run of same-rack nodes rather than once per node.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "cloudsim/topology.h"
#include "cloudsim/types.h"

namespace cloudlens {

struct VmRequest {
  SubscriptionId subscription;
  ServiceId service;  ///< invalid for third-party workloads
  CloudType cloud = CloudType::kPublic;
  RegionId region;
  double cores = 1;
  double memory_gb = 4;
};

struct Placement {
  ClusterId cluster;
  RackId rack;
  NodeId node;
};

struct AllocatorOptions {
  /// Spread VMs of the same owner across fault domains (racks).
  bool spread_fault_domains = true;
};

class Allocator {
 public:
  explicit Allocator(const Topology& topology, AllocatorOptions opts = {});

  /// Try to place `vm`; returns nullopt (and counts a failure) when no node
  /// in the requested region + cloud has capacity.
  std::optional<Placement> allocate(const VmRequest& request, VmId vm);

  /// Free the resources held by `vm` (no-op if unknown).
  void release(VmId vm);

  /// Mark a node as (un)available for future placements. Existing leases
  /// on the node are unaffected (release them separately). Used by failure
  /// injection: a failed node takes no new VMs.
  void set_node_available(NodeId id, bool available);
  bool node_available(NodeId id) const;

  double node_used_cores(NodeId id) const;
  double node_used_memory_gb(NodeId id) const;
  double node_free_cores(NodeId id) const;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    double failure_rate() const {
      return requests ? double(failures) / double(requests) : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Owner key for fault-domain spreading: the service when the VM belongs
  /// to one, otherwise the subscription.
  static std::uint64_t owner_key(const VmRequest& request);

  /// What the rule chain reads about one node, copied out of the topology.
  struct ScanEntry {
    NodeId node;
    RackId rack;
    double total_cores = 0;
    double total_memory_gb = 0;
  };
  /// The nodes of `region` + `cloud`, in Topology::clusters_in ×
  /// Cluster::nodes order (empty for an unknown region).
  std::span<const ScanEntry> scan_table(RegionId region,
                                        CloudType cloud) const;

  struct NodeUse {
    double cores = 0;
    double memory_gb = 0;
  };
  struct Lease {
    NodeId node;
    RackId rack;
    double cores = 0;
    double memory_gb = 0;
    std::uint64_t owner = 0;
  };

  const Topology& topo_;
  AllocatorOptions opts_;
  std::vector<NodeUse> use_;          // indexed by NodeId value
  std::vector<bool> node_available_;  // indexed by NodeId value
  // region * 2 + cloud -> scan table.
  std::vector<std::vector<ScanEntry>> scan_;
  // rack -> owner -> live VM count (for spreading).
  std::unordered_map<std::uint64_t, int> rack_owner_count_;
  std::unordered_map<VmId, Lease> leases_;
  Stats stats_;

  static std::uint64_t rack_owner_slot(RackId rack, std::uint64_t owner) {
    return (static_cast<std::uint64_t>(rack.value()) << 33) ^ owner;
  }
};

}  // namespace cloudlens
