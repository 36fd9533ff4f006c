#pragma once
// A traced replica of core::Simulator, rebuilt from the library's public
// constructors (FaultMap::random, FRingSet, make_algorithm, make_pattern,
// Network, Generator, FaultSchedule, FaultInjector) so that every call into
// a layer can be timed from outside the program.  It follows
// Simulator::Simulator, run(), drain() and snapshot() step for step; the
// benchmark checks on every traced run that its JSON report is
// byte-identical to the real Simulator's, so a drift between the two
// fails the benchmark instead of skewing the layer metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "ftmesh/core/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

/// Span names of the traced run, interned once per SpanLog.
struct SpanNames {
  explicit SpanNames(SpanLog& log);
  int run, setup, fault_build, routing_build, traffic_build, router_build,
      inject_build, stepping, inject_tick, inject_reconfig, traffic_tick,
      router_step, drain, reduce, report;
};

/// Per-layer quantities summed over one or more traced runs.
struct LayerTotals {
  std::uint64_t runs = 0;
  // host seconds
  double fault_build_s = 0, routing_build_s = 0, traffic_build_s = 0,
         router_build_s = 0, inject_build_s = 0;
  double router_step_s = 0, traffic_tick_s = 0, inject_tick_s = 0,
         inject_reconfig_s = 0, reduce_s = 0, report_s = 0, wall_s = 0;
  std::vector<double> step_us;  ///< every Network::step, microseconds
  // router
  std::uint64_t cycles = 0, flits_delivered = 0, message_slots_peak = 0;
  std::uint64_t gauge_samples = 0, route_nodes = 0, switch_nodes = 0,
                inject_nodes = 0, link_regs = 0;
  // traffic
  std::uint64_t messages_generated = 0;
  // routing
  std::uint64_t decisions = 0, cache_lookups = 0, cache_hits = 0,
                cache_invalidations = 0, offered = 0, free = 0;
  // inject
  std::uint64_t events_applied = 0, flushed = 0, retransmitted = 0,
                drain_cycles = 0;
};

struct MirrorOutput {
  ftmesh::core::SimResult result;
  std::string report;  ///< report::write_result_json
};

/// Builds, runs (and with `drain`, drains) one simulation of `cfg` through
/// the public API, recording spans into `log` and adding the layer
/// quantities into `totals`.  `sink`, when set, is attached as the
/// program's flit-event trace sink.  Throws what the Simulator would.
MirrorOutput run_mirror(const ftmesh::core::SimConfig& cfg, bool drain,
                        ftmesh::trace::TraceSink* sink, SpanLog& log,
                        const SpanNames& names, std::uint64_t run_id,
                        LayerTotals& totals);

}  // namespace perfbench
