#include "mirror.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ftmesh/fault/fring.hpp"
#include "ftmesh/inject/fault_injector.hpp"
#include "ftmesh/report/json.hpp"
#include "ftmesh/routing/registry.hpp"
#include "ftmesh/stats/kernel_stats.hpp"
#include "ftmesh/stats/latency_stats.hpp"
#include "ftmesh/stats/reliability_stats.hpp"
#include "ftmesh/stats/traffic_map.hpp"
#include "ftmesh/stats/vc_usage.hpp"
#include "ftmesh/traffic/generator.hpp"

namespace perfbench {

namespace fm = ftmesh;

namespace {

/// Runs `fn` inside a span and returns the span's duration.
template <class Fn>
double timed(SpanLog& log, int name, std::uint64_t id, bool fine, Fn&& fn) {
  const int token = log.open(name, id, fine);
  try {
    fn();
  } catch (...) {
    log.close(token);
    throw;
  }
  return log.close(token);
}

}  // namespace

SpanNames::SpanNames(SpanLog& log)
    : run(log.name_id("run")),
      setup(log.name_id("setup")),
      fault_build(log.name_id("fault.build")),
      routing_build(log.name_id("routing.build")),
      traffic_build(log.name_id("traffic.build")),
      router_build(log.name_id("router.build")),
      inject_build(log.name_id("inject.build")),
      stepping(log.name_id("stepping")),
      inject_tick(log.name_id("inject.tick")),
      inject_reconfig(log.name_id("inject.reconfig")),
      traffic_tick(log.name_id("traffic.tick")),
      router_step(log.name_id("router.step")),
      drain(log.name_id("drain")),
      reduce(log.name_id("stats.reduce")),
      report(log.name_id("report.json")) {}

MirrorOutput run_mirror(const fm::core::SimConfig& cfg, bool drain,
                        fm::trace::TraceSink* sink, SpanLog& log,
                        const SpanNames& names, std::uint64_t run_id,
                        LayerTotals& t) {
  if (cfg.metrics_interval != 0) {
    throw std::invalid_argument("the traced mirror does not record metrics");
  }
  MirrorOutput out;
  const int run_token = log.open(names.run, run_id, false);
  try {
    // ---- construction: Simulator::Simulator ------------------------------
    const int setup_token = log.open(names.setup, run_id, false);
    std::unique_ptr<fm::topology::Mesh> mesh;
    std::unique_ptr<fm::fault::FaultMap> faults;
    std::unique_ptr<fm::fault::FRingSet> rings;
    std::unique_ptr<fm::routing::RoutingAlgorithm> algorithm;
    std::unique_ptr<fm::traffic::TrafficPattern> pattern;
    std::unique_ptr<fm::router::Network> net;
    std::unique_ptr<fm::traffic::Generator> generator;
    std::unique_ptr<fm::inject::FaultInjector> injector;
    const fm::sim::Rng root(cfg.seed);
    t.fault_build_s += timed(log, names.fault_build, run_id, false, [&] {
      mesh = std::make_unique<fm::topology::Mesh>(cfg.width, cfg.height);
      cfg.validate();
      if (!cfg.fault_blocks.empty()) {
        faults = std::make_unique<fm::fault::FaultMap>(
            fm::fault::FaultMap::from_blocks(*mesh, cfg.fault_blocks));
      } else if (cfg.fault_count > 0 || cfg.link_fault_count > 0) {
        auto fault_rng = root.derive(0xFA);
        faults = std::make_unique<fm::fault::FaultMap>(fm::fault::FaultMap::random(
            *mesh, cfg.fault_count, cfg.link_fault_count, fault_rng));
      } else {
        faults = std::make_unique<fm::fault::FaultMap>(*mesh);
      }
      rings = std::make_unique<fm::fault::FRingSet>(*faults);
    });
    t.routing_build_s += timed(log, names.routing_build, run_id, false, [&] {
      fm::routing::RoutingOptions opts;
      opts.total_vcs = cfg.total_vcs;
      opts.misroute_limit = cfg.misroute_limit;
      opts.xy_escape = cfg.xy_escape;
      opts.selection = cfg.selection;
      algorithm = fm::routing::make_algorithm(cfg.algorithm, *mesh, *faults,
                                              *rings, opts);
    });
    t.traffic_build_s += timed(log, names.traffic_build, run_id, false, [&] {
      pattern = fm::traffic::make_pattern(cfg.traffic, *faults);
    });
    t.router_build_s += timed(log, names.router_build, run_id, false, [&] {
      fm::router::NetworkConfig ncfg;
      ncfg.buffer_depth = cfg.buffer_depth;
      ncfg.injection_vcs = cfg.injection_vcs;
      ncfg.selection = cfg.selection;
      ncfg.scan_mode = cfg.scan_mode == "full" ? fm::router::ScanMode::Full
                                               : fm::router::ScanMode::Active;
      ncfg.route_cache = cfg.route_cache;
      ncfg.tiles = cfg.tiles;
      ncfg.step_threads = cfg.step_threads;
      ncfg.recycle_messages = cfg.recycle_messages;
      ncfg.shard_alloc = cfg.shard_alloc;
      ncfg.collect_vc_usage = cfg.collect_vc_usage;
      ncfg.collect_traffic_map = cfg.collect_traffic_map;
      ncfg.collect_kernel_stats = cfg.collect_kernel_stats;
      ncfg.watchdog_patience = cfg.watchdog_patience;
      net = std::make_unique<fm::router::Network>(*mesh, *faults, *algorithm,
                                                  ncfg, root.derive(0x17));
    });
    t.traffic_build_s += timed(log, names.traffic_build, run_id, false, [&] {
      generator = std::make_unique<fm::traffic::Generator>(
          *faults, *pattern, cfg.injection_rate, cfg.message_length,
          root.derive(0x7A));
    });
    if (!cfg.fault_schedule.empty()) {
      t.inject_build_s += timed(log, names.inject_build, run_id, false, [&] {
        fm::inject::InjectConfig icfg;
        icfg.max_retries = cfg.fault_max_retries;
        icfg.retry_backoff = cfg.fault_retry_backoff;
        injector = std::make_unique<fm::inject::FaultInjector>(
            fm::inject::FaultSchedule::from_spec(cfg.fault_schedule, *mesh,
                                                 root.derive(0xD1)),
            *faults, *rings, icfg);
      });
    }
    log.close(setup_token);
    if (sink != nullptr) net->set_trace_sink(sink);

    // ---- Simulator::post_reconfigure -------------------------------------
    const auto post_reconfigure = [&] {
      net->revalidate_ring_state(*rings);
      net->reset_watchdog();
      net->on_fault_change();
      algorithm->on_fault_change();
      pattern->refresh();
      generator->refresh(static_cast<double>(net->cycle()));
    };
    const auto fault_tick = [&](std::uint64_t cycle) {
      bool changed = false;
      t.inject_tick_s += timed(log, names.inject_tick, cycle, true,
                               [&] { changed = injector->tick(*net); });
      if (changed) {
        t.inject_reconfig_s +=
            timed(log, names.inject_reconfig, cycle, true, post_reconfigure);
      }
    };
    bool measuring = false;
    const auto network_step = [&](std::uint64_t cycle) {
      const double secs =
          timed(log, names.router_step, cycle, true, [&] { net->step(); });
      t.router_step_s += secs;
      t.step_us.push_back(secs * 1e6);
      if (measuring) {  // the KernelSummary gauges, sampled per measured cycle
        ++t.gauge_samples;
        t.route_nodes += net->active_route_nodes();
        t.switch_nodes += net->active_switch_nodes();
        t.inject_nodes += net->active_inject_nodes();
        t.link_regs += net->full_link_registers();
      }
    };

    // ---- Simulator::run --------------------------------------------------
    const int stepping_token = log.open(names.stepping, run_id, false);
    while (net->cycle() < cfg.total_cycles) {
      const std::uint64_t cycle = net->cycle();
      if (cycle == cfg.warmup_cycles) {
        net->begin_measurement();
        measuring = true;
      }
      if (injector) fault_tick(cycle);
      t.traffic_tick_s += timed(log, names.traffic_tick, cycle, true,
                                [&] { generator->tick(*net); });
      network_step(cycle);
      if (net->watchdog().tripped()) break;
    }
    log.close(stepping_token);

    // ---- Simulator::drain ------------------------------------------------
    if (drain && !net->watchdog().tripped()) {
      const int drain_token = log.open(names.drain, run_id, false);
      std::uint64_t extra = 0;
      while (extra < 200000 && !net->watchdog().tripped()) {
        const bool engine_idle = !injector || injector->quiescent();
        if (net->drained() && engine_idle) break;
        const std::uint64_t cycle = net->cycle();
        if (injector) fault_tick(cycle);
        network_step(cycle);
        ++extra;
      }
      log.close(drain_token);
      t.drain_cycles += extra;
    }

    // ---- Simulator::snapshot ---------------------------------------------
    t.reduce_s += timed(log, names.reduce, run_id, false, [&] {
      auto& r = out.result;
      r.latency = fm::stats::summarize_latency(*net, cfg.warmup_cycles);
      r.throughput = fm::stats::summarize_throughput(*net);
      if (cfg.collect_vc_usage) r.vc_usage = fm::stats::summarize_vc_usage(*net);
      if (cfg.collect_traffic_map) {
        r.traffic_split = fm::stats::summarize_traffic_split(*net, *rings);
      }
      r.adaptivity.decisions = net->measured_route_decisions();
      if (r.adaptivity.decisions > 0) {
        const auto n = static_cast<double>(r.adaptivity.decisions);
        r.adaptivity.mean_offered =
            static_cast<double>(net->measured_candidates_offered()) / n;
        r.adaptivity.mean_free =
            static_cast<double>(net->measured_candidates_free()) / n;
      }
      if (injector) {
        r.reliability = fm::stats::summarize_reliability(*net, injector->log());
      }
      if (cfg.collect_kernel_stats) r.kernel = fm::stats::summarize_kernel(*net);
      r.deadlock = net->watchdog().tripped();
      r.cycles_run = net->cycle();
      r.fault_regions = static_cast<int>(faults->regions().size());
      r.faulty_nodes = faults->faulty_count();
      r.deactivated_nodes = faults->deactivated_count();
    });
    t.report_s += timed(log, names.report, run_id, false, [&] {
      std::ostringstream os;
      fm::report::write_result_json(os, cfg, out.result);
      out.report = os.str();
    });

    // ---- layer counters (read after the run, outside any span) -----------
    t.runs += 1;
    t.cycles += net->cycle();
    t.flits_delivered += net->total_flits_delivered();
    t.message_slots_peak = std::max<std::uint64_t>(t.message_slots_peak,
                                                   net->message_slots());
    t.messages_generated += generator->generated();
    t.decisions += net->measured_route_decisions();
    t.offered += net->measured_candidates_offered();
    t.free += net->measured_candidates_free();
    t.cache_lookups += net->total_cache_lookups();
    t.cache_hits += net->total_cache_hits();
    t.cache_invalidations += net->route_cache_invalidations();
    if (injector) {
      const auto& il = injector->log();
      t.events_applied += static_cast<std::uint64_t>(il.events_applied);
      t.flushed += il.messages_flushed;
      t.retransmitted += il.retransmissions;
    }
  } catch (...) {
    log.close(run_token);
    throw;
  }
  t.wall_s += log.close(run_token);
  return out;
}

}  // namespace perfbench
