#include "cloudsim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "testutil.h"
#include "workloads/generator.h"

namespace cloudlens {
namespace {

DeploymentRequest make_request(SubscriptionId sub, CloudType cloud,
                               SimTime create, SimTime remove,
                               double cores = 16) {
  DeploymentRequest req;
  req.request.subscription = sub;
  req.request.cloud = cloud;
  req.request.region = RegionId(0);
  req.request.cores = cores;
  req.request.memory_gb = cores * 4;
  req.create = create;
  req.remove = remove;
  return req;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : topo_(test::tiny_topology()), fx_(topo_) {}
  Topology topo_;
  test::TraceFixture fx_;
};

TEST_F(SimulatorTest, PlacesAllWhenCapacitySuffices) {
  std::vector<DeploymentRequest> reqs;
  for (int i = 0; i < 8; ++i)
    reqs.push_back(make_request(fx_.private_sub, CloudType::kPrivate,
                                i * kHour, kNoEnd));
  const auto stats = run_simulation(topo_, fx_.trace, reqs);
  EXPECT_EQ(stats.requested, 8u);
  EXPECT_EQ(stats.placed, 8u);
  EXPECT_EQ(stats.allocation_failures, 0u);
  EXPECT_EQ(fx_.trace.vms().size(), 8u);
}

TEST_F(SimulatorTest, RecordsMatchRequests) {
  std::vector<DeploymentRequest> reqs;
  auto req = make_request(fx_.public_sub, CloudType::kPublic, kHour,
                          5 * kHour, 4);
  req.party = PartyType::kThirdParty;
  req.utilization = std::make_shared<ConstantUtilization>(0.3);
  reqs.push_back(req);
  run_simulation(topo_, fx_.trace, reqs);

  ASSERT_EQ(fx_.trace.vms().size(), 1u);
  const VmRecord& vm = fx_.trace.vms()[0];
  EXPECT_EQ(vm.subscription, fx_.public_sub);
  EXPECT_EQ(vm.cloud, CloudType::kPublic);
  EXPECT_EQ(vm.party, PartyType::kThirdParty);
  EXPECT_EQ(vm.created, kHour);
  EXPECT_EQ(vm.deleted, 5 * kHour);
  EXPECT_DOUBLE_EQ(vm.cores, 4);
  EXPECT_TRUE(vm.placed());
  ASSERT_NE(vm.utilization, nullptr);
  EXPECT_DOUBLE_EQ(vm.utilization->at(0), 0.3);
}

TEST_F(SimulatorTest, CountsFailuresWhenFull) {
  // Private region 0 holds 8x16 cores; the 9th concurrent VM fails.
  std::vector<DeploymentRequest> reqs;
  for (int i = 0; i < 9; ++i)
    reqs.push_back(make_request(fx_.private_sub, CloudType::kPrivate, 0,
                                kNoEnd));
  const auto stats = run_simulation(topo_, fx_.trace, reqs);
  EXPECT_EQ(stats.placed, 8u);
  EXPECT_EQ(stats.allocation_failures, 1u);
  EXPECT_EQ(fx_.trace.vms().size(), 8u);  // failed request not recorded
}

TEST_F(SimulatorTest, CapacityFreedByRemovals) {
  std::vector<DeploymentRequest> reqs;
  // Fill the region for [0, 2h), then request again at 2h: removals at 2h
  // must be processed before the new create.
  for (int i = 0; i < 8; ++i)
    reqs.push_back(
        make_request(fx_.private_sub, CloudType::kPrivate, 0, 2 * kHour));
  reqs.push_back(
      make_request(fx_.private_sub, CloudType::kPrivate, 2 * kHour, kNoEnd));
  const auto stats = run_simulation(topo_, fx_.trace, reqs);
  EXPECT_EQ(stats.placed, 9u);
  EXPECT_EQ(stats.allocation_failures, 0u);
}

TEST_F(SimulatorTest, UnsortedRequestsAreOrdered) {
  std::vector<DeploymentRequest> reqs;
  reqs.push_back(
      make_request(fx_.private_sub, CloudType::kPrivate, 3 * kHour, kNoEnd, 4));
  reqs.push_back(
      make_request(fx_.private_sub, CloudType::kPrivate, kHour, kNoEnd, 4));
  run_simulation(topo_, fx_.trace, reqs);
  ASSERT_EQ(fx_.trace.vms().size(), 2u);
  EXPECT_LE(fx_.trace.vms()[0].created, fx_.trace.vms()[1].created);
}

TEST_F(SimulatorTest, NonPositiveLifetimeThrows) {
  std::vector<DeploymentRequest> reqs;
  reqs.push_back(make_request(fx_.private_sub, CloudType::kPrivate, kHour,
                              kHour));
  EXPECT_THROW(run_simulation(topo_, fx_.trace, reqs), CheckError);
}

TEST_F(SimulatorTest, SequentialShortVmsReuseCapacity) {
  // 100 sequential 1-hour VMs that each fill the region: all place.
  std::vector<DeploymentRequest> reqs;
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 8; ++j)
      reqs.push_back(make_request(fx_.private_sub, CloudType::kPrivate,
                                  i * kHour, (i + 1) * kHour));
  }
  const auto stats = run_simulation(topo_, fx_.trace, reqs);
  EXPECT_EQ(stats.placed, 800u);
  EXPECT_EQ(stats.allocation_failures, 0u);
}

TEST_F(SimulatorTest, StatsAcrossTwoRuns) {
  std::vector<DeploymentRequest> first = {
      make_request(fx_.private_sub, CloudType::kPrivate, 0, kNoEnd, 4)};
  std::vector<DeploymentRequest> second = {
      make_request(fx_.public_sub, CloudType::kPublic, 0, kNoEnd, 4)};
  run_simulation(topo_, fx_.trace, first);
  run_simulation(topo_, fx_.trace, second);
  EXPECT_EQ(fx_.trace.vms().size(), 2u);
  EXPECT_EQ(fx_.trace.vms()[0].cloud, CloudType::kPrivate);
  EXPECT_EQ(fx_.trace.vms()[1].cloud, CloudType::kPublic);
}

TEST_F(SimulatorTest, OutageResubmitsInAscendingVmIdOrder) {
  // 64 one-core VMs over 8 nodes, so some node hosts >= 8 of them. Each
  // VM's end time is unique and falls with its id, so every resubmission
  // names the VM it replaces by its `deleted` time.
  constexpr int kVms = 64;
  const auto end_of = [](int i) { return 10 * kHour - i * kMinute; };
  std::vector<DeploymentRequest> reqs;
  for (int i = 0; i < kVms; ++i)
    reqs.push_back(make_request(fx_.private_sub, CloudType::kPrivate,
                                i * kMinute, end_of(i), 1));

  test::TraceFixture probe(topo_);
  run_simulation(topo_, probe.trace, reqs);
  ASSERT_EQ(probe.trace.vm_count(), static_cast<std::size_t>(kVms));
  std::map<NodeId, int> hosted;
  for (const VmRecord& vm : probe.trace.vms()) ++hosted[vm.node];
  const auto busiest = std::max_element(
      hosted.begin(), hosted.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  ASSERT_GE(busiest->second, 8);

  const SimTime outage_at = 2 * kHour;
  FailurePolicy policy;
  policy.resubmit = true;
  const auto stats = run_simulation(topo_, fx_.trace, reqs, {},
                                    {NodeOutage{busiest->first, outage_at}},
                                    policy);
  ASSERT_EQ(stats.vms_failed, static_cast<std::size_t>(busiest->second));
  ASSERT_EQ(stats.vms_resubmitted, stats.vms_failed);

  std::vector<SimTime> killed_ends;  // ascending VM id
  for (int i = 0; i < kVms; ++i) {
    if (fx_.trace.vms()[i].deleted == outage_at)
      killed_ends.push_back(end_of(i));
  }
  std::vector<SimTime> resubmit_ends;  // trace order
  for (std::size_t i = kVms; i < fx_.trace.vm_count(); ++i)
    resubmit_ends.push_back(fx_.trace.vms()[i].deleted);
  EXPECT_EQ(resubmit_ends, killed_ends);
}

// ---------------------------------------------------------------------------
// Pinned placement digests: an FNV-1a 64 hash over every VM's (node, rack,
// cluster, created, deleted) in trace order. The pinned values are the
// placements of the straightforward rule chain (cluster list × node list,
// one owner-count probe per feasible node); a faster scan must reproduce
// them exactly.

class PlacementDigest {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(const TraceStore& trace) {
    add(trace.vm_count());
    for (const VmRecord& vm : trace.vms()) {
      add(vm.node.value());
      add(vm.rack.value());
      add(vm.cluster.value());
      add(static_cast<std::uint64_t>(vm.created));
      add(static_cast<std::uint64_t>(vm.deleted));
    }
  }
  void add(const SimulationStats& stats) {
    add(stats.requested);
    add(stats.placed);
    add(stats.allocation_failures);
    add(stats.vms_failed);
    add(stats.vms_resubmitted);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::string scenario_digest(std::uint64_t seed) {
  workloads::ScenarioOptions options;
  options.scale = 0.05;
  options.seed = seed;
  const auto scenario = workloads::make_scenario(options);
  PlacementDigest digest;
  digest.add(*scenario.trace);
  digest.add(scenario.private_stats);
  digest.add(scenario.public_stats);
  return digest.hex();
}

TEST(SimulatorPlacementDigest, MakeScenarioSeed7) {
  EXPECT_EQ(scenario_digest(7), "ab35888e66708f57");
}

TEST(SimulatorPlacementDigest, MakeScenarioSeed11) {
  EXPECT_EQ(scenario_digest(11), "d6108579125fdc08");
}

// A two-region, two-cloud stream on the default topology, dense enough to
// fail requests, with node outages and resubmission. The outages hit nodes
// that host VMs (found by an outage-free probe run of the same stream),
// inside those VMs' lives.
TEST(SimulatorPlacementDigest, OutageStreamWithResubmission) {
  const Topology topo = build_topology(default_topology_spec());
  Rng rng(2024);
  TraceStore probe_trace(&topo);
  TraceStore trace(&topo);
  std::vector<SubscriptionId> subs;
  for (int i = 0; i < 24; ++i) {
    SubscriptionInfo info;
    info.cloud = i % 2 == 0 ? CloudType::kPrivate : CloudType::kPublic;
    info.party = PartyType::kFirstParty;
    subs.push_back(probe_trace.add_subscription(info));
    trace.add_subscription(info);
  }
  const std::vector<std::pair<double, double>> shapes = {
      {1, 4}, {2, 8}, {4, 16}, {8, 32}, {16, 64}, {32, 256}, {2, 300}};
  std::vector<DeploymentRequest> requests;
  for (int i = 0; i < 12000; ++i) {
    DeploymentRequest req;
    const std::size_t sub = rng.uniform_int(subs.size());
    req.request.subscription = subs[sub];
    req.request.cloud = sub % 2 == 0 ? CloudType::kPrivate : CloudType::kPublic;
    req.request.region = RegionId(static_cast<RegionId::underlying>(
        rng.uniform_int(2) * 5));
    const auto& [cores, memory] = shapes[rng.uniform_int(shapes.size())];
    req.request.cores = cores;
    req.request.memory_gb = memory;
    req.create = static_cast<SimTime>(rng.uniform_int(6 * 24 * 60)) * kMinute;
    if (rng.uniform() < 0.6)
      req.remove = req.create + kHour +
                   static_cast<SimTime>(rng.uniform_int(3 * 24 * 60)) * kMinute;
    requests.push_back(req);
  }

  run_simulation(topo, probe_trace, requests);
  std::vector<NodeOutage> outages;
  for (int i = 0; i < 40; ++i) {
    const VmRecord& vm = probe_trace.vms()[rng.uniform_int(
        probe_trace.vm_count())];
    const SimTime end = std::min<SimTime>(vm.deleted, kWeek);
    outages.push_back(NodeOutage{
        vm.node, vm.created + (end - vm.created) / 2});
  }
  FailurePolicy policy;
  policy.resubmit = true;
  policy.recovery_delay = 20 * kMinute;
  const auto stats =
      run_simulation(topo, trace, requests, {}, outages, policy);
  EXPECT_GT(stats.vms_failed, 0u);
  EXPECT_GT(stats.vms_resubmitted, 0u);
  EXPECT_GT(stats.allocation_failures, 0u);

  PlacementDigest digest;
  digest.add(trace);
  digest.add(stats);
  // Outage victims are killed and resubmitted in ascending VmId order.
  EXPECT_EQ(digest.hex(), "2b0ec08a5bbafd0d");
}

}  // namespace
}  // namespace cloudlens
