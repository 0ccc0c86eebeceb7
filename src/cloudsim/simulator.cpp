#include "cloudsim/simulator.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"

namespace cloudlens {
namespace {

/// Event ordering at equal timestamps: removals free capacity first, then
/// outages kill, then creates (including recovery resubmissions) place.
enum class EventKind { kRemove = 0, kOutage = 1, kCreate = 2 };

struct Event {
  SimTime time;
  EventKind kind;
  std::uint64_t seq;          ///< insertion order for determinism
  std::size_t payload;        ///< request index (create) / outage index
  VmId vm;                    ///< remove target

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    return seq > other.seq;
  }
};

}  // namespace

SimulationStats run_simulation(const Topology& topology, TraceStore& trace,
                               std::vector<DeploymentRequest> requests,
                               AllocatorOptions options,
                               std::vector<NodeOutage> outages,
                               FailurePolicy failure_policy) {
  // Per-run accounting: events replayed, placement outcomes, outage
  // kills/resubmits — counted locally and published to the (write-only)
  // metrics registry at the end, plus one "sim.run" span for the trace.
  obs::PhaseTimer phase("sim.run", obs::Histogram::kSimRunSeconds,
                        obs::Counter::kSimRuns);
  // During a population spill the trace is append-only: records stream
  // into shard logs and cannot be read back or shortened, so outage
  // processing (which reads and rewrites records) is unavailable.
  CL_CHECK_MSG(!trace.population_spilling() || outages.empty(),
               "node outages require resident records (no population spill)");
  std::uint64_t events_replayed = 0;

  Allocator allocator(topology, options);
  SimulationStats stats;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    CL_CHECK_MSG(requests[i].create < requests[i].remove,
                 "non-positive VM lifetime");
    events.push({requests[i].create, EventKind::kCreate, seq++, i, VmId()});
  }
  for (std::size_t i = 0; i < outages.size(); ++i) {
    CL_CHECK(outages[i].node.valid() &&
             outages[i].node.value() < topology.nodes().size());
    events.push({outages[i].at, EventKind::kOutage, seq++, i, VmId()});
  }

  // Outage bookkeeping, kept only when outages are injected: live VMs per
  // node, each live VM's node (so removal never reads the trace), and the
  // set of VMs terminated early (their scheduled removal is a no-op).
  const bool track_outages = !outages.empty();
  std::unordered_map<NodeId, std::unordered_set<VmId>> live_on_node;
  std::unordered_map<VmId, NodeId> node_of_vm;
  std::unordered_set<VmId> killed;

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    ++events_replayed;
    switch (event.kind) {
      case EventKind::kRemove: {
        if (killed.contains(event.vm)) break;
        allocator.release(event.vm);
        if (!track_outages) break;
        const auto node_it = node_of_vm.find(event.vm);
        CL_CHECK(node_it != node_of_vm.end());
        live_on_node[node_it->second].erase(event.vm);
        node_of_vm.erase(node_it);
        break;
      }
      case EventKind::kOutage: {
        const NodeId node = outages[event.payload].node;
        const SimTime when = outages[event.payload].at;
        allocator.set_node_available(node, false);
        auto it = live_on_node.find(node);
        if (it == live_on_node.end()) break;
        // Terminate every VM alive on the node.
        for (const VmId vm_id : it->second) {
          const VmRecord& rec = trace.vm(vm_id);
          const SimTime original_end = rec.deleted;
          allocator.release(vm_id);
          trace.set_vm_deleted(vm_id, when);
          killed.insert(vm_id);
          node_of_vm.erase(vm_id);
          ++stats.vms_failed;
          if (failure_policy.resubmit &&
              original_end > when + failure_policy.recovery_delay) {
            DeploymentRequest resubmit;
            resubmit.request.subscription = rec.subscription;
            resubmit.request.service = rec.service;
            resubmit.request.cloud = rec.cloud;
            resubmit.request.region = rec.region;
            resubmit.request.cores = rec.cores;
            resubmit.request.memory_gb = rec.memory_gb;
            resubmit.party = rec.party;
            resubmit.create = when + failure_policy.recovery_delay;
            resubmit.remove = original_end;
            resubmit.utilization = rec.utilization;
            const std::size_t index = requests.size();
            requests.push_back(std::move(resubmit));
            events.push({requests[index].create, EventKind::kCreate, seq++,
                         index, VmId()});
            ++stats.vms_resubmitted;
          }
        }
        it->second.clear();
        break;
      }
      case EventKind::kCreate: {
        const DeploymentRequest& req = requests[event.payload];
        ++stats.requested;
        const VmId prospective_id(
            static_cast<VmId::underlying>(trace.vm_count()));
        const auto placement = allocator.allocate(req.request, prospective_id);
        if (!placement) {
          ++stats.allocation_failures;
          break;
        }
        VmRecord rec;
        rec.subscription = req.request.subscription;
        rec.service = req.request.service;
        rec.cloud = req.request.cloud;
        rec.party = req.party;
        rec.region = req.request.region;
        rec.cluster = placement->cluster;
        rec.rack = placement->rack;
        rec.node = placement->node;
        rec.cores = req.request.cores;
        rec.memory_gb = req.request.memory_gb;
        rec.created = req.create;
        rec.deleted = req.remove;
        rec.utilization = req.utilization;
        const VmId id = trace.add_vm(std::move(rec));
        CL_CHECK(id == prospective_id);
        ++stats.placed;
        if (track_outages) {
          live_on_node[placement->node].insert(id);
          node_of_vm.emplace(id, placement->node);
        }
        if (req.remove != kNoEnd)
          events.push({req.remove, EventKind::kRemove, seq++, 0, id});
        break;
      }
    }
  }

  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::Counter::kSimEvents, events_replayed);
  metrics.add(obs::Counter::kSimRequested, stats.requested);
  metrics.add(obs::Counter::kSimPlaced, stats.placed);
  metrics.add(obs::Counter::kSimAllocationFailures,
              stats.allocation_failures);
  metrics.add(obs::Counter::kSimOutageKills, stats.vms_failed);
  metrics.add(obs::Counter::kSimResubmits, stats.vms_resubmitted);
  return stats;
}

}  // namespace cloudlens
