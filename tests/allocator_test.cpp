#include "cloudsim/allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "testutil.h"

namespace cloudlens {
namespace {

VmRequest request(SubscriptionId sub, CloudType cloud, double cores = 4,
                  RegionId region = RegionId(0)) {
  VmRequest req;
  req.subscription = sub;
  req.cloud = cloud;
  req.region = region;
  req.cores = cores;
  req.memory_gb = cores * 4;
  return req;
}

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest() : topo_(test::tiny_topology()) {}
  Topology topo_;
  SubscriptionId sub_{0};
};

TEST_F(AllocatorTest, PlacesInRequestedRegionAndCloud) {
  Allocator alloc(topo_);
  const auto placement =
      alloc.allocate(request(sub_, CloudType::kPrivate), VmId(0));
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(topo_.node(placement->node).cloud, CloudType::kPrivate);
  EXPECT_EQ(topo_.node(placement->node).region, RegionId(0));
  EXPECT_EQ(alloc.stats().requests, 1u);
  EXPECT_EQ(alloc.stats().failures, 0u);
}

TEST_F(AllocatorTest, TracksUsedCores) {
  Allocator alloc(topo_);
  const auto placement =
      alloc.allocate(request(sub_, CloudType::kPublic, 6), VmId(0));
  ASSERT_TRUE(placement.has_value());
  EXPECT_DOUBLE_EQ(alloc.node_used_cores(placement->node), 6);
  EXPECT_DOUBLE_EQ(alloc.node_free_cores(placement->node), 10);
  EXPECT_DOUBLE_EQ(alloc.node_used_memory_gb(placement->node), 24);
}

TEST_F(AllocatorTest, ReleaseFreesCapacity) {
  Allocator alloc(topo_);
  const auto placement =
      alloc.allocate(request(sub_, CloudType::kPublic, 6), VmId(0));
  ASSERT_TRUE(placement.has_value());
  alloc.release(VmId(0));
  EXPECT_DOUBLE_EQ(alloc.node_used_cores(placement->node), 0);
}

TEST_F(AllocatorTest, ReleaseUnknownVmIsNoop) {
  Allocator alloc(topo_);
  alloc.release(VmId(123));  // must not throw
}

TEST_F(AllocatorTest, DoubleAllocateSameVmThrows) {
  Allocator alloc(topo_);
  ASSERT_TRUE(alloc.allocate(request(sub_, CloudType::kPublic), VmId(0)));
  EXPECT_THROW(alloc.allocate(request(sub_, CloudType::kPublic), VmId(0)),
               CheckError);
}

TEST_F(AllocatorTest, FailsWhenRegionFull) {
  Allocator alloc(topo_);
  // Region 0 private capacity: 8 nodes x 16 cores = 128 cores.
  std::uint32_t id = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        alloc.allocate(request(sub_, CloudType::kPrivate, 16), VmId(id++)));
  }
  EXPECT_FALSE(
      alloc.allocate(request(sub_, CloudType::kPrivate, 16), VmId(id++)));
  EXPECT_EQ(alloc.stats().failures, 1u);
  EXPECT_NEAR(alloc.stats().failure_rate(), 1.0 / 9.0, 1e-12);
}

TEST_F(AllocatorTest, DoesNotSpillToOtherCloudOrRegion) {
  Allocator alloc(topo_);
  std::uint32_t id = 0;
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(
        alloc.allocate(request(sub_, CloudType::kPrivate, 16), VmId(id++)));
  // Private region 0 is full; public region 0 and private region 1 are
  // untouched, but a private region-0 request must still fail.
  EXPECT_FALSE(
      alloc.allocate(request(sub_, CloudType::kPrivate, 16), VmId(id++)));
  EXPECT_TRUE(alloc.allocate(request(sub_, CloudType::kPublic, 16), VmId(id++)));
  EXPECT_TRUE(alloc.allocate(
      request(sub_, CloudType::kPrivate, 16, RegionId(1)), VmId(id++)));
}

TEST_F(AllocatorTest, MemoryConstraintRespected) {
  Allocator alloc(topo_);
  VmRequest req = request(sub_, CloudType::kPublic, 1);
  req.memory_gb = 64;  // full node memory
  ASSERT_TRUE(alloc.allocate(req, VmId(0)));
  // 16 nodes of public capacity in region 0 (1 cluster x 2 racks x 4 nodes
  // = 8 nodes). Fill the rest.
  std::uint32_t id = 1;
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(alloc.allocate(req, VmId(id++)));
  EXPECT_FALSE(alloc.allocate(req, VmId(id++)));  // memory exhausted
  EXPECT_GT(alloc.node_free_cores(NodeId(0)), 0);  // cores were not
}

TEST_F(AllocatorTest, SpreadsOwnerAcrossRacks) {
  Allocator alloc(topo_);
  // Two same-owner VMs: the second must land on the other rack.
  const auto p1 = alloc.allocate(request(sub_, CloudType::kPrivate), VmId(0));
  const auto p2 = alloc.allocate(request(sub_, CloudType::kPrivate), VmId(1));
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(p1->rack, p2->rack);
}

TEST_F(AllocatorTest, SpreadingDisabledPacksBestFit) {
  AllocatorOptions opts;
  opts.spread_fault_domains = false;
  Allocator alloc(topo_, opts);
  const auto p1 =
      alloc.allocate(request(sub_, CloudType::kPrivate, 4), VmId(0));
  const auto p2 =
      alloc.allocate(request(sub_, CloudType::kPrivate, 4), VmId(1));
  ASSERT_TRUE(p1 && p2);
  // Best-fit packs onto the same node (it has the least leftover).
  EXPECT_EQ(p1->node, p2->node);
}

TEST_F(AllocatorTest, DifferentOwnersShareRacksFreely) {
  Allocator alloc(topo_);
  SubscriptionId other(1);
  const auto p1 = alloc.allocate(request(sub_, CloudType::kPrivate), VmId(0));
  const auto p2 = alloc.allocate(request(other, CloudType::kPrivate), VmId(1));
  ASSERT_TRUE(p1 && p2);
  // Different owners best-fit onto the same node: no spreading pressure.
  EXPECT_EQ(p1->node, p2->node);
}

TEST_F(AllocatorTest, ServiceIdentityUsedForSpreadingWhenPresent) {
  Allocator alloc(topo_);
  VmRequest a = request(sub_, CloudType::kPrivate);
  a.service = ServiceId(7);
  VmRequest b = request(SubscriptionId(1), CloudType::kPrivate);
  b.service = ServiceId(7);  // same service, different subscription
  const auto p1 = alloc.allocate(a, VmId(0));
  const auto p2 = alloc.allocate(b, VmId(1));
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(p1->rack, p2->rack);  // spread by service identity
}

TEST_F(AllocatorTest, ReleaseRestoresSpreadingCounts) {
  Allocator alloc(topo_);
  const auto p1 = alloc.allocate(request(sub_, CloudType::kPrivate), VmId(0));
  ASSERT_TRUE(p1);
  alloc.release(VmId(0));
  // After release the same rack is preferred again (best-fit tie-break).
  const auto p2 = alloc.allocate(request(sub_, CloudType::kPrivate), VmId(1));
  ASSERT_TRUE(p2);
  EXPECT_EQ(p1->node, p2->node);
}

TEST_F(AllocatorTest, InvalidRequestThrows) {
  Allocator alloc(topo_);
  VmRequest bad = request(sub_, CloudType::kPublic);
  bad.cores = 0;
  EXPECT_THROW(alloc.allocate(bad, VmId(0)), CheckError);
}

// ---------------------------------------------------------------------------
// Differential test: the rule chain as a plain reference implementation
// (walk clusters_in × cluster.nodes, probe the owner-in-rack count per
// feasible node) against Allocator, over seeded allocate / release /
// set_node_available streams. Placements, failures, per-node used cores and
// the nodes-scanned count must agree exactly.

class ReferenceAllocator {
 public:
  ReferenceAllocator(const Topology& topo, AllocatorOptions opts)
      : topo_(topo),
        opts_(opts),
        use_(topo.nodes().size()),
        available_(topo.nodes().size(), true) {}

  std::optional<Placement> allocate(const VmRequest& request, VmId vm,
                                    std::uint64_t& nodes_scanned) {
    const std::uint64_t owner =
        request.service.valid() ? (1ULL << 32) | request.service.value()
                                : request.subscription.value();
    const Node* best = nullptr;
    int best_owner_in_rack = std::numeric_limits<int>::max();
    double best_leftover = std::numeric_limits<double>::infinity();
    nodes_scanned = 0;
    for (const ClusterId cid :
         topo_.clusters_in(request.region, request.cloud)) {
      for (const NodeId nid : topo_.cluster(cid).nodes) {
        if (!available_[nid.value()]) continue;
        ++nodes_scanned;
        const Node& node = topo_.node(nid);
        const Use& u = use_[nid.value()];
        if (u.cores + request.cores > node.total_cores ||
            u.memory_gb + request.memory_gb > node.total_memory_gb)
          continue;
        int owner_in_rack = 0;
        if (opts_.spread_fault_domains) {
          const auto it = rack_owner_.find(slot(node.rack, owner));
          owner_in_rack = it == rack_owner_.end() ? 0 : it->second;
        }
        const double leftover = node.total_cores - u.cores - request.cores;
        if (owner_in_rack < best_owner_in_rack ||
            (owner_in_rack == best_owner_in_rack &&
             leftover < best_leftover)) {
          best = &node;
          best_owner_in_rack = owner_in_rack;
          best_leftover = leftover;
        }
      }
    }
    if (best == nullptr) return std::nullopt;
    Use& u = use_[best->id.value()];
    u.cores += request.cores;
    u.memory_gb += request.memory_gb;
    ++rack_owner_[slot(best->rack, owner)];
    leases_.emplace(vm, Lease{best->id, best->rack, request.cores,
                              request.memory_gb, owner});
    return Placement{best->cluster, best->rack, best->id};
  }

  void release(VmId vm) {
    const auto it = leases_.find(vm);
    if (it == leases_.end()) return;
    const Lease& lease = it->second;
    Use& u = use_[lease.node.value()];
    u.cores -= lease.cores;
    u.memory_gb -= lease.memory_gb;
    const auto count = rack_owner_.find(slot(lease.rack, lease.owner));
    if (--count->second == 0) rack_owner_.erase(count);
    leases_.erase(it);
  }

  void set_node_available(NodeId id, bool available) {
    available_[id.value()] = available;
  }
  double node_used_cores(NodeId id) const { return use_[id.value()].cores; }

 private:
  struct Use {
    double cores = 0;
    double memory_gb = 0;
  };
  struct Lease {
    NodeId node;
    RackId rack;
    double cores;
    double memory_gb;
    std::uint64_t owner;
  };
  static std::uint64_t slot(RackId rack, std::uint64_t owner) {
    return (static_cast<std::uint64_t>(rack.value()) << 33) ^ owner;
  }

  const Topology& topo_;
  AllocatorOptions opts_;
  std::vector<Use> use_;
  std::vector<bool> available_;
  std::unordered_map<std::uint64_t, int> rack_owner_;
  std::unordered_map<VmId, Lease> leases_;
};

struct DifferentialCase {
  std::uint64_t seed;
  bool spread;
};

void PrintTo(const DifferentialCase& c, std::ostream* os) {
  *os << "seed " << c.seed << (c.spread ? ", spreading" : ", packing");
}

class AllocatorDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(AllocatorDifferentialTest, MatchesReferenceRuleChain) {
  const Topology topo = build_topology(default_topology_spec());
  AllocatorOptions opts;
  opts.spread_fault_domains = GetParam().spread;
  Allocator alloc(topo, opts);
  ReferenceAllocator reference(topo, opts);
  Rng rng(GetParam().seed);

  // Three regions (including the last one) keep the stream dense enough to
  // fill clusters, fail requests and drain them again.
  const std::vector<RegionId> regions = {
      RegionId(0), RegionId(3),
      RegionId(static_cast<RegionId::underlying>(topo.regions().size() - 1))};
  std::vector<NodeId> region_nodes;
  for (const Node& node : topo.nodes()) {
    if (std::find(regions.begin(), regions.end(), node.region) !=
        regions.end())
      region_nodes.push_back(node.id);
  }
  // Shapes include non-dyadic core counts (rounding in the used-capacity
  // sums) and memory-bound requests (few cores, most of a node's memory).
  const double node_cores = topo.nodes()[0].total_cores;
  const double node_memory = topo.nodes()[0].total_memory_gb;
  const std::vector<std::pair<double, double>> shapes = {
      {1, 4},        {2, 8},           {4, 16},          {8, 32},
      {16, 64},      {32, 128},        {0.75, 3.5},      {1.3, 5.2},
      {2.6, 10.1},   {node_cores, 8},  {1, node_memory * 0.6},
      {2, node_memory * 0.45},         {0.5, node_memory * 0.9}};

  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);

  std::vector<VmId> live;
  std::uint32_t next_vm = 0;
  std::size_t placed = 0, failed = 0;
  // Two thirds of the stream mostly allocate (filling clusters until
  // requests fail), the last third mostly releases.
  constexpr int kOps = 24000;
  for (int op = 0; op < kOps; ++op) {
    const double release_share = op < kOps * 2 / 3 ? 0.2 : 0.7;
    const double roll = rng.uniform();
    if (roll < 0.02) {
      const NodeId node = region_nodes[rng.uniform_int(region_nodes.size())];
      const bool available = rng.uniform() < 0.5;
      alloc.set_node_available(node, available);
      reference.set_node_available(node, available);
    } else if (roll < 0.02 + release_share && !live.empty()) {
      const std::size_t pick = rng.uniform_int(live.size());
      alloc.release(live[pick]);
      reference.release(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      VmRequest req;
      req.subscription =
          SubscriptionId(static_cast<std::uint32_t>(rng.uniform_int(40)));
      if (rng.uniform() < 0.4)
        req.service = ServiceId(static_cast<std::uint32_t>(rng.uniform_int(8)));
      req.cloud = rng.uniform() < 0.5 ? CloudType::kPrivate
                                      : CloudType::kPublic;
      req.region = regions[rng.uniform_int(regions.size())];
      const auto& [cores, memory] = shapes[rng.uniform_int(shapes.size())];
      req.cores = cores;
      req.memory_gb = memory;
      const VmId vm(next_vm++);

      std::uint64_t want_scanned = 0;
      const auto want = reference.allocate(req, vm, want_scanned);
      const std::uint64_t before =
          metrics.snapshot().counter("alloc.nodes_scanned");
      const auto got = alloc.allocate(req, vm);
      const std::uint64_t scanned =
          metrics.snapshot().counter("alloc.nodes_scanned") - before;

      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      ASSERT_EQ(scanned, want_scanned) << "op " << op;
      if (want) {
        ASSERT_EQ(got->node, want->node) << "op " << op;
        ASSERT_EQ(got->rack, want->rack) << "op " << op;
        ASSERT_EQ(got->cluster, want->cluster) << "op " << op;
        live.push_back(vm);
        ++placed;
      } else {
        ++failed;
      }
    }
  }
  metrics.set_enabled(false);
  metrics.reset();

  for (const Node& node : topo.nodes())
    ASSERT_EQ(alloc.node_used_cores(node.id),
              reference.node_used_cores(node.id))
        << "node " << node.id.value();
  EXPECT_EQ(alloc.stats().failures, failed);
  // The stream exercised both outcomes.
  EXPECT_GT(placed, 5000u);
  EXPECT_GT(failed, 200u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, AllocatorDifferentialTest,
    ::testing::Values(DifferentialCase{11, true}, DifferentialCase{12, true},
                      DifferentialCase{13, false},
                      DifferentialCase{14, false}),
    [](const auto& info) {
      return "Seed" + std::to_string(info.param.seed) +
             (info.param.spread ? "Spread" : "Pack");
    });

}  // namespace
}  // namespace cloudlens
