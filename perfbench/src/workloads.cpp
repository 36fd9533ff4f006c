#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "ftmesh/core/experiment.hpp"
#include "ftmesh/routing/registry.hpp"

namespace perfbench {

namespace {

using ftmesh::core::SimConfig;

/// The paper's headline setup (10x10, 24 VCs, 100-flit worms); SimConfig's
/// defaults already are that configuration.
SimConfig paper_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  return cfg;
}

Workload paper_saturated(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "paper-saturated";
  w.cfg = paper_config(seed);
  w.cfg.algorithm = "Duato";
  w.cfg.injection_rate = -1.0;
  w.cfg.fault_count = 10;
  // Throughput at saturation depends strongly on where the faults fall, so
  // one repetition averages sixteen fault sets.  Each runs a sixth of the
  // paper's length, so that several repetitions fit in a run; a cycle costs
  // the same at 5k cycles as at 30k.
  w.patterns = smoke ? 2 : 16;
  w.cfg.warmup_cycles = smoke ? 500 : 1500;
  w.cfg.total_cycles = smoke ? 1500 : 5000;
  return w;
}

Workload paper_campaign(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "paper-campaign";
  w.campaign = true;
  w.campaign_threads = 2;
  auto& s = w.spec;
  s.base = paper_config(seed);
  s.base.warmup_cycles = smoke ? 100 : 500;
  s.base.total_cycles = smoke ? 300 : 2000;
  s.algorithms = ftmesh::routing::algorithm_names();
  s.rates = {0.0005, 0.001, 0.002};
  s.fault_counts = {0, 5, 10};
  s.patterns = smoke ? 2 : 4;
  s.threads = w.campaign_threads;
  return w;
}

Workload mesh64_tiled(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "mesh64-tiled";
  w.cfg.seed = seed;
  w.cfg.width = 64;
  w.cfg.height = 64;
  w.cfg.algorithm = "Duato";
  w.cfg.injection_rate = -1.0;
  w.cfg.message_length = 8;
  w.cfg.tiles = 16;
  // Two step threads on a 4-core host: with every core busy, any other
  // process stalls the per-phase barrier, and the run-to-run spread grows
  // several-fold (README.md, "Workloads").
  w.cfg.step_threads = 2;
  w.cfg.warmup_cycles = smoke ? 10 : 100;
  w.cfg.total_cycles = smoke ? 40 : 300;
  return w;
}

Workload faults_traced(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "faults-traced";
  w.cfg.seed = seed;
  w.cfg.width = 32;
  w.cfg.height = 32;
  w.cfg.algorithm = "Duato";
  w.cfg.message_length = 20;
  w.cfg.injection_rate = 0.002;
  w.cfg.fault_schedule =
      smoke ? "random:count=2,rate=0.002,start=300,repair_after=500; "
              "random-link:count=2,rate=0.002,start=300,repair_after=500"
            : "random:count=12,rate=0.001,start=1000,repair_after=2000; "
              "random-link:count=12,rate=0.001,start=1000,repair_after=2000";
  w.cfg.tiles = 4;
  w.cfg.step_threads = 2;
  w.cfg.warmup_cycles = smoke ? 200 : 1500;
  w.cfg.total_cycles = smoke ? 1500 : 5000;
  w.drain = true;
  w.program_trace = true;
  return w;
}

}  // namespace

int Workload::threads() const {
  if (campaign) return campaign_threads;
  return cfg.tiles > 1 ? std::max(1, cfg.step_threads) : 1;
}

std::vector<SimConfig> Workload::configs() const {
  std::vector<SimConfig> out;
  for (int p = 0; p < patterns; ++p) {
    SimConfig c = cfg;
    c.seed = ftmesh::core::pattern_seed(cfg.seed, cfg.fault_count, p);
    out.push_back(std::move(c));
  }
  return out;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "paper-saturated") return paper_saturated(seed, smoke);
  if (name == "paper-campaign") return paper_campaign(seed, smoke);
  if (name == "mesh64-tiled") return mesh64_tiled(seed, smoke);
  if (name == "faults-traced") return faults_traced(seed, smoke);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
