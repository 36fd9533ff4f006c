#pragma once
// The benchmark's named workloads.  Each is a pure function of
// (name, seed, size): the seed is the only input that varies between runs,
// and the program receives only the configuration built from it.
// README.md records why each workload was chosen and which layers it
// stresses.

#include <cstdint>
#include <string>
#include <vector>

#include "ftmesh/campaign/spec.hpp"
#include "ftmesh/core/config.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bool campaign = false;
  /// Single-run workloads: the simulation of fault pattern 0.  Campaigns:
  /// unused (the spec's base config is the template).
  ftmesh::core::SimConfig cfg;
  /// Random fault sets per repetition (the paper averages over several);
  /// pattern p runs `cfg` re-seeded with core::pattern_seed(seed, faults, p).
  int patterns = 1;
  ftmesh::campaign::CampaignSpec spec;
  int campaign_threads = 0;
  bool drain = false;          ///< drain after the schedule (accounting check)
  bool program_trace = false;  ///< attach the program's JsonlSink
  /// Threads the workload occupies at once: step threads, or campaign
  /// workers.
  [[nodiscard]] int threads() const;
  /// One config per fault pattern of a single-run workload.
  [[nodiscard]] std::vector<ftmesh::core::SimConfig> configs() const;
};

/// Throws std::invalid_argument for an unknown name.  `smoke` selects the
/// tiny size the smoke test runs.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

}  // namespace perfbench
