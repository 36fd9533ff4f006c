// perfbench: the repo benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--size full|smoke] [--corrupt-digest]
//
// --trace 0 measures the end-to-end metrics with tracing off: it repeats
// the workload until the time budget is spent and reports medians.
// --trace 1 is the separate traced run: it times every call into a layer's
// public API through the mirror (mirror.hpp), reports the per-layer
// metrics, and writes the spans as Chrome-trace JSON under DIR/traces.
// Both modes run the correctness checks.  The result is one JSON object on
// the last line of stdout; perfbench/run.py adds the host manifest and
// prints it in the benchmark's contract form.  --corrupt-digest alters one
// repetition's report digest, so the smoke test can see a digest mismatch
// counted as a failure.
//
// All times are host time (steady_clock); simulated statistics are
// printed next to them as checked outputs, never scored.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftmesh/campaign/csv.hpp"
#include "ftmesh/campaign/stream.hpp"
#include "ftmesh/core/experiment.hpp"
#include "ftmesh/report/json.hpp"
#include "ftmesh/trace/trace_sink.hpp"
#include "measure.hpp"
#include "mirror.hpp"
#include "workloads.hpp"

namespace fm = ftmesh;
namespace fs = std::filesystem;
using namespace perfbench;

namespace {

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt_digest = false;
  std::string work_dir;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(next());
    } else if (arg == "--trace") {
      o.trace = std::stoi(next()) != 0;
    } else if (arg == "--size") {
      const std::string s = next();
      if (s != "full" && s != "smoke") {
        throw std::invalid_argument("--size must be full or smoke");
      }
      o.smoke = s == "smoke";
    } else if (arg == "--work-dir") {
      o.work_dir = next();
      have_dir = true;
    } else if (arg == "--corrupt-digest") {
      o.corrupt_digest = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_dir) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---- result document -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;  ///< exactly BENCHMARK.json's list for the mode
  std::vector<std::pair<std::string, std::string>> simulated;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> failures;  ///< one line per failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts `runs` failed runs when there is at least one reason.
  void fail(std::uint64_t runs, const std::vector<std::string>& reasons) {
    if (reasons.empty()) return;
    failed += runs;
    failures.insert(failures.end(), reasons.begin(), reasons.end());
  }
  void fail(std::uint64_t runs, const std::string& why) {
    fail(runs, std::vector<std::string>{why});
  }
};

std::string json_string(const std::string& s) {
  return "\"" + fm::report::JsonWriter::escape(s) + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

template <class T>
std::string fmt(T v, int precision = 6) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

std::string join(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) {
    if (!s.empty()) s += ' ';
    s += fmt(x, 4);
  }
  return s;
}

void write_outcome(std::ostream& os, const Options& o, const Workload& w,
                   const Outcome& out) {
  const auto pairs = [&](const std::vector<std::pair<std::string, std::string>>& kv) {
    std::string s = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) s += ",";
      s += json_string(kv[i].first) + ":" + json_string(kv[i].second);
    }
    return s + "}";
  };
  const auto metrics = [&](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i > 0) s += ",";
      s += json_string(ms[i].name) + ":{\"value\":" + json_number(ms[i].value) +
           ",\"unit\":" + json_string(ms[i].unit) + "}";
    }
    return s + "}";
  };
  std::string failures = "[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += json_string(out.failures[i]);
  }
  failures += "]";
#ifdef __VERSION__
  const std::string compiler = std::string("gcc-compatible ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  os << "{\"workload\":" << json_string(w.name) << ",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"size\":" << json_string(o.smoke ? "smoke" : "full")
     << ",\"build\":{\"type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_string(compiler) << "}"
     << ",\"threads\":" << w.threads()
     << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
     << ",\"failures\":" << failures << ",\"metrics\":" << metrics(out.metrics)
     << ",\"simulated\":" << pairs(out.simulated)
     << ",\"notes\":" << pairs(out.notes) << "}\n";
}

/// Per-cycle spans kept for the trace file (about 15 MB of JSON).
constexpr std::size_t kFineSpanCap = 100000;

// ---- single-run workloads ----------------------------------------------------

/// One pass over a workload's fault patterns through core::Simulator, each
/// run as `ftmesh run` does it (with --drain when the workload drains).
struct Pass {
  std::vector<fm::core::SimResult> results;  ///< one per pattern
  std::vector<std::string> reports;          ///< write_result_json, per pattern
  double setup_s = 0, step_s = 0, wall_s = 0;
  std::uint64_t cycles = 0, flits = 0;
};

void simulate(const Workload& w, const fm::core::SimConfig& cfg, Pass& pass) {
  DiscardBuf buf;
  std::ostream trace_os(&buf);
  fm::trace::JsonlSink jsonl(trace_os);
  const auto t0 = Clock::now();
  fm::core::Simulator sim(cfg);
  pass.setup_s += seconds_since(t0);
  if (w.program_trace) sim.set_trace_sink(&jsonl);
  const auto t1 = Clock::now();
  fm::core::SimResult r = sim.run();
  if (w.drain && !r.deadlock) {
    sim.drain();
    r = sim.snapshot();
  }
  pass.step_s += seconds_since(t1);
  std::ostringstream report;
  fm::report::write_result_json(report, cfg, r);
  pass.wall_s += seconds_since(t0);
  pass.reports.push_back(report.str());
  pass.results.push_back(std::move(r));
  pass.cycles += sim.network().cycle();
  pass.flits += sim.network().total_flits_delivered();
}

Pass simulate(const Workload& w) {
  Pass pass;
  for (const auto& cfg : w.configs()) simulate(w, cfg, pass);
  return pass;
}

/// The per-run checks: no watchdog trip, and after a drain with dynamic
/// faults the accounting identity with nothing left in flight.
std::vector<std::string> run_checks(const Workload& w,
                                    const fm::core::SimResult& r) {
  std::vector<std::string> bad;
  if (r.deadlock) {
    bad.push_back("watchdog tripped at cycle " + std::to_string(r.cycles_run));
  }
  if (w.drain && r.reliability.enabled) {
    const auto& rel = r.reliability;
    if (rel.generated != rel.delivered + rel.aborted || rel.in_flight_end != 0) {
      bad.push_back("drain accounting: generated " + std::to_string(rel.generated) +
                    " != delivered " + std::to_string(rel.delivered) +
                    " + aborted " + std::to_string(rel.aborted) + " (in flight " +
                    std::to_string(rel.in_flight_end) + ")");
    }
  }
  return bad;
}

std::uint64_t pass_digest(const Pass& pass) {
  std::string all;
  for (const auto& r : pass.reports) all += r;
  return digest(all);
}

void add_simulated(Outcome& out, const Pass& pass) {
  const fm::core::SimResult mean = fm::core::aggregate(pass.results);
  int events = 0;
  for (const auto& r : pass.results) events += r.reliability.fault_events_applied;
  out.simulated = {
      {"patterns", fmt(pass.results.size())},
      {"accepted_flits_per_node_cycle", fmt(mean.throughput.accepted_flits_per_node_cycle)},
      {"mean_latency_cycles", fmt(mean.latency.mean)},
      {"delivered_messages", fmt(mean.latency.delivered)},
      {"static_faulty_nodes", fmt(mean.faulty_nodes)},
      {"fault_events_applied", fmt(events)},
      {"cycles_run", fmt(mean.cycles_run)},
      {"report_digest", hex(pass_digest(pass))}};
  if (pass.results.size() > 1) {
    out.notes.push_back({"simulated", "means over the fault patterns, except "
                                      "fault_events_applied (a sum)"});
  }
}

/// Repeats `sample` (one timed set-up) until `budget_s` is spent, at
/// least 3 and at most 200 times, so setup_s is a median over many samples
/// even when few repetitions fit in the run.
template <class Sample>
std::vector<double> setup_samples(double budget_s, Sample&& sample) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 200 &&
         (samples.size() < 3 || seconds_since(start) < budget_s)) {
    samples.push_back(sample());
  }
  return samples;
}

/// Constructs every pattern's Simulator once; returns the summed time.
double construct_all(const std::vector<fm::core::SimConfig>& configs) {
  double sum = 0;
  for (const auto& cfg : configs) {
    const auto t0 = Clock::now();
    try {
      fm::core::Simulator sim(cfg);
    } catch (const std::runtime_error&) {
      // undrawable fault pattern: the campaign engine skips such a run too
    }
    sum += seconds_since(t0);
  }
  return sum;
}

/// True while another repetition of `last_s` seconds fits in the budget.
bool another(std::size_t done, std::size_t min_reps, double elapsed,
             double last_s, double budget) {
  return done < min_reps || elapsed + last_s <= budget;
}

Outcome single_untraced(const Workload& w, const Options& o) {
  Outcome out;
  const auto start = Clock::now();
  const auto configs = w.configs();
  std::vector<double> setup =
      setup_samples(0.1 * o.seconds, [&] { return construct_all(configs); });
  std::vector<double> wall, cycles_rate, flits_rate, cells_rate;
  std::uint64_t first_digest = 0;
  Pass last;
  const auto patterns = static_cast<std::uint64_t>(w.patterns);
  do {
    const std::size_t rep = wall.size();
    out.attempted += patterns;
    try {
      last = simulate(w);
    } catch (const std::exception& e) {
      out.fail(patterns, "repetition " + std::to_string(rep) + " threw: " + e.what());
      break;
    }
    std::uint64_t d = pass_digest(last);
    if (o.corrupt_digest && rep == 1) d ^= 1;
    if (rep == 0) first_digest = d;
    std::vector<std::string> bad;
    for (const auto& r : last.results) {
      for (const auto& b : run_checks(w, r)) bad.push_back(b);
    }
    if (d != first_digest) {
      bad.push_back("report digest " + hex(d) + " differs from repetition 0 (" +
                    hex(first_digest) + ")");
    }
    for (auto& b : bad) b = "repetition " + std::to_string(rep) + ": " + b;
    out.fail(patterns, bad);
    setup.push_back(last.setup_s);
    wall.push_back(last.wall_s);
    cycles_rate.push_back(static_cast<double>(last.cycles) / last.step_s);
    flits_rate.push_back(static_cast<double>(last.flits) / last.step_s);
    cells_rate.push_back(1.0 / last.wall_s);
  } while (another(wall.size(), 2, seconds_since(start), wall.back(), o.seconds));

  out.metrics = {{"setup_s", median(setup), "s"},
                 {"wall_s", median(wall), "s"},
                 {"cycles_per_s", median(cycles_rate), "cycles/s"},
                 {"flits_per_s", median(flits_rate), "flits/s"},
                 {"cells_per_s", median(cells_rate), "cells/s"},
                 {"peak_rss_mb", peak_rss_mib(), "MiB"}};
  out.notes = {{"repetitions", fmt(wall.size()) + " (one cell of " +
                                   fmt(w.patterns) + " fault pattern(s) each)"},
               {"setup_samples", fmt(setup.size())},
               {"wall_s per repetition", join(wall)}};
  add_simulated(out, last);
  return out;
}

std::vector<Metric> layer_metrics(const LayerTotals& t, double reps) {
  const auto per = [&](double v) { return v / reps; };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto gauge = [&](std::uint64_t sum) {
    return ratio(static_cast<double>(sum), static_cast<double>(t.gauge_samples));
  };
  std::vector<double> steps = t.step_us;
  const double p50 = steps.empty() ? 0.0 : median(steps);
  const double tail_us = steps.empty() ? 0.0 : tail(steps).second;
  return {
      {"router.step_s", per(t.router_step_s), "s"},
      {"router.step_p50_us", p50, "us"},
      {"router.step_tail_us", tail_us, "us"},
      {"router.ns_per_flit",
       ratio(t.router_step_s * 1e9, static_cast<double>(t.flits_delivered)), "ns"},
      {"router.active_switch_nodes", gauge(t.switch_nodes), "count"},
      {"router.active_route_nodes", gauge(t.route_nodes), "count"},
      {"router.active_inject_nodes", gauge(t.inject_nodes), "count"},
      {"router.active_link_regs", gauge(t.link_regs), "count"},
      {"router.message_slots", static_cast<double>(t.message_slots_peak), "count"},
      {"traffic.tick_s", per(t.traffic_tick_s), "s"},
      {"traffic.messages_created", per(static_cast<double>(t.messages_generated)), "count"},
      {"routing.decisions", per(static_cast<double>(t.decisions)), "count"},
      {"routing.cache_hit_rate",
       ratio(static_cast<double>(t.cache_hits), static_cast<double>(t.cache_lookups)),
       "ratio"},
      {"routing.cache_invalidations", per(static_cast<double>(t.cache_invalidations)),
       "count"},
      {"routing.free_per_offered",
       ratio(static_cast<double>(t.free), static_cast<double>(t.offered)), "ratio"},
      {"fault.build_s", per(t.fault_build_s), "s"},
      {"routing.build_s", per(t.routing_build_s), "s"},
      {"traffic.build_s", per(t.traffic_build_s), "s"},
      {"router.build_s", per(t.router_build_s), "s"},
      {"inject.build_s", per(t.inject_build_s), "s"},
      {"inject.tick_s", per(t.inject_tick_s), "s"},
      {"inject.reconfig_s", per(t.inject_reconfig_s), "s"},
      {"inject.events_applied", per(static_cast<double>(t.events_applied)), "count"},
      {"inject.flushed", per(static_cast<double>(t.flushed)), "count"},
      {"inject.retransmitted", per(static_cast<double>(t.retransmitted)), "count"},
      {"inject.drain_cycles", per(static_cast<double>(t.drain_cycles)), "cycles"},
      {"stats.reduce_s", per(t.reduce_s), "s"},
      {"report.json_s", per(t.report_s), "s"},
  };
}

void layer_notes(Outcome& out, const LayerTotals& t) {
  if (!t.step_us.empty()) {
    const auto [p, v] = tail(t.step_us);
    (void)v;
    out.notes.push_back({"router.step_tail_us",
                         "p" + fmt(p * 100.0) + " of " + fmt(t.step_us.size()) +
                             " Network::step calls"});
  }
  out.notes.push_back({"routing.cache_hit_rate",
                       fmt(t.cache_hits) + " hits / " + fmt(t.cache_lookups) +
                           " lookups (whole run)"});
  out.notes.push_back({"routing.free_per_offered",
                       fmt(t.free) + " free / " + fmt(t.offered) +
                           " offered candidates (measurement window)"});
}

std::string write_spans(const SpanLog& log, const Options& o, const Workload& w) {
  const fs::path dir = fs::path(o.work_dir) / "traces";
  fs::create_directories(dir);
  // One file per workload (the latest traced run), so repeated runs do not
  // pile up trace files in the checkout.
  const fs::path file = dir / (w.name + ".json");
  std::ofstream os(file);
  log.write_chrome(os);
  if (!os) throw std::runtime_error("cannot write " + file.string());
  return file.string();
}

Outcome single_traced(const Workload& w, const Options& o) {
  Outcome out;
  SpanLog log(kFineSpanCap);
  const SpanNames names(log);
  LayerTotals totals;
  const auto configs = w.configs();
  std::vector<double> ref_wall, mirror_wall;
  std::uint64_t trace_events = 0, trace_bytes = 0;
  double trace_sink_s = 0;
  std::uint64_t first_digest = 0;
  Pass ref;
  const auto patterns = static_cast<std::uint64_t>(w.patterns);
  const auto start = Clock::now();
  do {
    const std::size_t rep = ref_wall.size();
    out.attempted += 2 * patterns;
    ref = Pass{};
    double mirror_s = 0;
    std::vector<std::string> bad;
    try {
      for (std::size_t p = 0; p < configs.size(); ++p) {
        simulate(w, configs[p], ref);
        DiscardBuf buf;
        std::ostream trace_os(&buf);
        fm::trace::JsonlSink jsonl(trace_os);
        TimedSink timed_sink(jsonl);
        const auto t0 = Clock::now();
        const MirrorOutput m =
            run_mirror(configs[p], w.drain, w.program_trace ? &timed_sink : nullptr,
                       log, names, rep * configs.size() + p, totals);
        mirror_s += seconds_since(t0);
        trace_events += timed_sink.events();
        trace_bytes += buf.bytes();
        trace_sink_s += timed_sink.seconds();
        std::uint64_t d = digest(m.report);
        if (o.corrupt_digest && rep == 0 && p == 0) d ^= 1;
        if (d != digest(ref.reports[p])) {
          bad.push_back("pattern " + fmt(p) + ": traced mirror report (" + hex(d) +
                        ") differs from Simulator::run (" +
                        hex(digest(ref.reports[p])) + ")");
        }
        for (const auto& b : run_checks(w, ref.results[p])) {
          bad.push_back("pattern " + fmt(p) + ": " + b);
        }
      }
    } catch (const std::exception& e) {
      out.fail(2 * patterns, "repetition " + std::to_string(rep) + " threw: " + e.what());
      break;
    }
    if (rep == 0) first_digest = pass_digest(ref);
    if (pass_digest(ref) != first_digest) {
      bad.push_back("report digest differs from repetition 0");
    }
    for (auto& b : bad) b = "repetition " + std::to_string(rep) + ": " + b;
    out.fail(2 * patterns, bad);
    ref_wall.push_back(ref.wall_s);
    mirror_wall.push_back(mirror_s);
  } while (another(ref_wall.size(), 1, seconds_since(start),
                   ref_wall.back() + mirror_wall.back(), o.seconds));

  const double reps = static_cast<double>(std::max<std::size_t>(1, mirror_wall.size()));
  out.metrics = layer_metrics(totals, reps);
  out.metrics.push_back({"trace.events", static_cast<double>(trace_events) / reps, "count"});
  out.metrics.push_back({"trace.bytes", static_cast<double>(trace_bytes) / reps, "bytes"});
  out.metrics.push_back({"trace.sink_s", trace_sink_s / reps, "s"});
  out.metrics.push_back({"campaign.run_p50_s", 0.0, "s"});
  out.metrics.push_back({"campaign.run_tail_s", 0.0, "s"});
  out.metrics.push_back({"campaign.sink_s", 0.0, "s"});
  out.metrics.push_back({"campaign.peak_retained", 0.0, "count"});
  out.metrics.push_back({"campaign.runs", 0.0, "count"});
  const double overhead = ref_wall.empty() ? 0.0
                                           : median(mirror_wall) / median(ref_wall) - 1.0;
  out.metrics.push_back({"bench.trace_overhead_frac", overhead, "ratio"});
  out.notes.push_back({"repetitions", fmt(mirror_wall.size()) + " traced + " +
                                          fmt(ref_wall.size()) + " untraced, " +
                                          fmt(w.patterns) + " fault pattern(s) each"});
  out.notes.push_back({"per-layer scope", "per repetition (mean over the traced ones)"});
  layer_notes(out, totals);
  out.notes.push_back({"bench.trace_overhead_frac",
                       "median traced wall " + fmt(median(mirror_wall)) +
                           " s vs untraced " + fmt(median(ref_wall)) + " s"});
  out.notes.push_back({"spans", fmt(log.stored()) + " stored, " + fmt(log.dropped()) +
                                    " per-cycle spans beyond the cap counted but not stored"});
  out.notes.push_back({"trace_file", write_spans(log, o, w)});
  add_simulated(out, ref);
  return out;
}

// ---- the campaign workload -------------------------------------------------

/// The configuration run_streamed builds for one (cell, pattern).
fm::core::SimConfig run_config(const fm::campaign::CampaignSpec& spec,
                               const fm::campaign::CellPlan& plan, int pattern) {
  fm::core::SimConfig cfg = spec.base;
  cfg.algorithm = plan.algorithm;
  cfg.injection_rate = plan.rate;
  cfg.fault_count = plan.fault_count;
  cfg.seed = fm::core::pattern_seed(spec.base.seed, plan.fault_count, pattern);
  return cfg;
}

/// Collects the streamed rows and per-run facts; times its own callbacks.
class CollectSink final : public fm::campaign::CellSink {
 public:
  void on_cell(const fm::campaign::CellRecord& rec) override {
    const auto t0 = Clock::now();
    rows.push_back(rec.row);
    for (const auto& r : rec.runs) {
      ++runs;
      if (r.deadlock) {
        deadlocks.push_back(rec.plan.algorithm + " rate " + fmt(rec.plan.rate) +
                            " faults " + fmt(rec.plan.fault_count) +
                            ": watchdog tripped at cycle " + fmt(r.cycles_run));
      }
      cycles += r.cycles_run;
      delivered += r.latency.delivered;
      fault_nodes += static_cast<std::uint64_t>(r.faulty_nodes);
      // Flits delivered in the measurement window, recovered exactly from
      // the accepted rate (flits / (cycles x active nodes)).
      const int active = w_h - r.faulty_nodes - r.deactivated_nodes;
      const double window = static_cast<double>(r.cycles_run) - static_cast<double>(warmup);
      if (window > 0) {
        flits += static_cast<std::uint64_t>(std::llround(
            r.throughput.accepted_flits_per_node_cycle * window * active));
      }
    }
    latency_sum += rec.mean.latency.mean;
    accepted_sum += rec.mean.throughput.accepted_flits_per_node_cycle;
    sink_s += seconds_since(t0);
  }

  int w_h = 0;
  std::uint64_t warmup = 0;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> deadlocks;
  std::uint64_t runs = 0, cycles = 0, delivered = 0, fault_nodes = 0, flits = 0;
  double latency_sum = 0, accepted_sum = 0, sink_s = 0;
};

std::string csv_text(const std::vector<std::vector<std::string>>& rows) {
  std::string s;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) s += (i ? "," : "") + row[i];
    s += "\n";
  }
  return s;
}

struct Streamed {
  CollectSink sink;
  fm::campaign::StreamStats stats;
  double wall_s = 0;
  std::size_t checkpoint_lines = 0;
};

Streamed stream_campaign(const Workload& w, const Options& o) {
  const fs::path dir = fs::path(o.work_dir) / "checkpoint" / w.name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  Streamed s;
  s.sink.w_h = w.spec.base.width * w.spec.base.height;
  s.sink.warmup = w.spec.base.warmup_cycles;
  fm::campaign::StreamOptions opts;
  opts.threads = w.campaign_threads;
  opts.checkpoint_dir = dir.string();
  const auto t0 = Clock::now();
  s.stats = fm::campaign::run_streamed(w.spec, opts, &s.sink);
  s.wall_s = seconds_since(t0);
  std::ifstream results(dir / "results.jsonl");
  std::string line;
  while (std::getline(results, line)) s.checkpoint_lines += line.empty() ? 0 : 1;
  return s;
}

void campaign_simulated(Outcome& out, const CollectSink& s) {
  const double cells = static_cast<double>(std::max<std::size_t>(1, s.rows.size()));
  out.simulated = {
      {"cells", fmt(s.rows.size())},
      {"runs", fmt(s.runs)},
      {"accepted_flits_per_node_cycle_mean_over_cells", fmt(s.accepted_sum / cells)},
      {"mean_latency_cycles_mean_over_cells", fmt(s.latency_sum / cells)},
      {"delivered_messages", fmt(s.delivered)},
      {"static_faulty_nodes_over_runs", fmt(s.fault_nodes)},
      {"csv_digest", hex(digest(csv_text(s.rows)))}};
}

Outcome campaign_untraced(const Workload& w, const Options& o) {
  Outcome out;
  const auto start = Clock::now();
  const auto cells = fm::campaign::enumerate_cells(w.spec);
  // Setup: every (cell, pattern) Simulator constructed on its own, summed.
  std::vector<fm::core::SimConfig> configs;
  for (const auto& plan : cells) {
    for (int p = 0; p < plan.patterns; ++p) configs.push_back(run_config(w.spec, plan, p));
  }
  const std::vector<double> setup =
      setup_samples(0.15 * o.seconds, [&] { return construct_all(configs); });
  std::vector<double> wall, cycles_rate, flits_rate, cells_rate;
  std::uint64_t first_digest = 0;
  Streamed last;
  const std::size_t planned_runs = configs.size();
  do {
    const std::size_t rep = wall.size();
    out.attempted += planned_runs;
    try {
      last = stream_campaign(w, o);
    } catch (const std::exception& e) {
      out.fail(planned_runs, "repetition " + std::to_string(rep) + " threw: " + e.what());
      break;
    }
    std::uint64_t d = digest(csv_text(last.sink.rows));
    if (o.corrupt_digest && rep == 1) d ^= 1;
    if (rep == 0) first_digest = d;
    out.fail(last.sink.deadlocks.size(), last.sink.deadlocks);
    if (d != first_digest) {
      out.fail(planned_runs - last.sink.deadlocks.size(),
               "repetition " + std::to_string(rep) + ": CSV digest " + hex(d) +
                   " differs from repetition 0 (" + hex(first_digest) + ")");
    } else if (last.checkpoint_lines != cells.size() ||
               last.sink.rows.size() != cells.size()) {
      out.fail(planned_runs - last.sink.deadlocks.size(),
               "repetition " + std::to_string(rep) + ": " + fmt(last.sink.rows.size()) +
                   " rows streamed, " + fmt(last.checkpoint_lines) +
                   " checkpointed, of " + fmt(cells.size()) + " cells");
    }
    wall.push_back(last.wall_s);
    cycles_rate.push_back(static_cast<double>(last.sink.cycles) / last.wall_s);
    flits_rate.push_back(static_cast<double>(last.sink.flits) / last.wall_s);
    cells_rate.push_back(static_cast<double>(last.sink.rows.size()) / last.wall_s);
  } while (another(wall.size(), 2, seconds_since(start), wall.back(), o.seconds));

  out.metrics = {{"setup_s", median(setup), "s"},
                 {"wall_s", median(wall), "s"},
                 {"cycles_per_s", median(cycles_rate), "cycles/s"},
                 {"flits_per_s", median(flits_rate), "flits/s"},
                 {"cells_per_s", median(cells_rate), "cells/s"},
                 {"peak_rss_mb", peak_rss_mib(), "MiB"}};
  campaign_simulated(out, last.sink);
  out.notes = {{"repetitions", fmt(wall.size())},
               {"setup_samples", fmt(setup.size()) + " (each sums every run's construction)"},
               {"flits_per_s", "flits delivered in the runs' measurement windows"},
               {"campaign.peak_retained", fmt(last.stats.peak_retained_results)},
               {"wall_s per repetition", join(wall)}};
  return out;
}

Outcome campaign_traced(const Workload& w, const Options& o) {
  Outcome out;
  SpanLog log(kFineSpanCap);
  const SpanNames names(log);
  const int span_replay = log.name_id("campaign.replay");
  const int span_run = log.name_id("campaign.run");
  const int span_ctor = log.name_id("simulator.construct");
  const int span_sim_run = log.name_id("simulator.run");
  const int span_snapshot = log.name_id("simulator.snapshot");
  LayerTotals totals;

  const auto cells = fm::campaign::enumerate_cells(w.spec);
  std::size_t planned_runs = 0;
  for (const auto& c : cells) planned_runs += static_cast<std::size_t>(c.patterns);
  out.attempted = 2 * planned_runs;  // every run replayed twice

  Streamed streamed;
  try {
    const int token = log.open(log.name_id("campaign.run_streamed"), 0, false);
    streamed = stream_campaign(w, o);
    log.close(token);
  } catch (const std::exception& e) {
    out.fail(out.attempted, std::string("run_streamed threw: ") + e.what());
    return out;
  }

  // Serial replay of every (cell, pattern): Simulator (constructor, run and
  // snapshot timed) and then the traced mirror of the same config.
  std::vector<double> run_wall;
  double sim_total = 0, mirror_total = 0;
  std::uint64_t run_id = 0;
  const int replay_token = log.open(span_replay, 0, false);
  for (const auto& plan : cells) {
    std::vector<fm::core::SimResult> mirrored;
    for (int p = 0; p < plan.patterns; ++p, ++run_id) {
      const fm::core::SimConfig cfg = run_config(w.spec, plan, p);
      std::string ref_report, mirror_report;
      fm::core::SimResult ref;
      const auto t0 = Clock::now();
      const int run_token = log.open(span_run, run_id, false);
      try {
        int t = log.open(span_ctor, run_id, false);
        fm::core::Simulator sim(cfg);
        log.close(t);
        t = log.open(span_sim_run, run_id, false);
        (void)sim.run();
        log.close(t);
        t = log.open(span_snapshot, run_id, false);
        ref = sim.snapshot();
        log.close(t);
      } catch (const std::runtime_error&) {
        ref = fm::core::SimResult{};  // undrawable pattern, as the engine does
      }
      log.close(run_token);
      const double wall = seconds_since(t0);
      run_wall.push_back(wall);
      sim_total += wall;
      std::ostringstream ref_os;
      fm::report::write_result_json(ref_os, cfg, ref);
      ref_report = ref_os.str();

      fm::core::SimResult mine;
      const auto t1 = Clock::now();
      try {
        const MirrorOutput m = run_mirror(cfg, false, nullptr, log, names, run_id, totals);
        mine = m.result;
        mirror_report = m.report;
      } catch (const std::runtime_error&) {
        mine = fm::core::SimResult{};
        std::ostringstream os;
        fm::report::write_result_json(os, cfg, mine);
        mirror_report = os.str();
      }
      mirror_total += seconds_since(t1);
      std::uint64_t d = digest(mirror_report);
      if (o.corrupt_digest && run_id == 0) d ^= 1;
      if (d != digest(ref_report)) {
        out.fail(2, plan.algorithm + " rate " + fmt(plan.rate) + " faults " +
                        fmt(plan.fault_count) + " pattern " + fmt(p) +
                        ": traced mirror report differs from Simulator::run");
      }
      if (ref.deadlock) {
        out.fail(2, plan.algorithm + " rate " + fmt(plan.rate) + " faults " +
                        fmt(plan.fault_count) + " pattern " + fmt(p) +
                        ": watchdog tripped at cycle " + fmt(ref.cycles_run));
      }
      mirrored.push_back(std::move(mine));
    }
    const auto row = fm::campaign::csv_row(plan.algorithm, plan.rate, plan.fault_count,
                                           static_cast<std::size_t>(plan.patterns),
                                           fm::core::aggregate(mirrored));
    if (plan.index >= streamed.sink.rows.size() || streamed.sink.rows[plan.index] != row) {
      out.fail(static_cast<std::uint64_t>(plan.patterns),
               "cell " + fmt(plan.index) + " (" + plan.algorithm +
                   "): replayed row differs from the streamed CSV row");
    }
  }
  log.close(replay_token);

  out.metrics = layer_metrics(totals, 1.0);
  out.metrics.push_back({"trace.events", 0.0, "count"});
  out.metrics.push_back({"trace.bytes", 0.0, "bytes"});
  out.metrics.push_back({"trace.sink_s", 0.0, "s"});
  const double p50 = run_wall.empty() ? 0 : median(run_wall);
  const auto [tail_p, tail_s] = run_wall.empty() ? std::pair{0.0, 0.0} : tail(run_wall);
  out.metrics.push_back({"campaign.run_p50_s", p50, "s"});
  out.metrics.push_back({"campaign.run_tail_s", tail_s, "s"});
  out.metrics.push_back({"campaign.sink_s", streamed.sink.sink_s, "s"});
  out.metrics.push_back({"campaign.peak_retained",
                         static_cast<double>(streamed.stats.peak_retained_results), "count"});
  out.metrics.push_back({"campaign.runs", static_cast<double>(streamed.stats.runs_executed),
                         "count"});
  out.metrics.push_back({"bench.trace_overhead_frac",
                         sim_total > 0 ? mirror_total / sim_total - 1.0 : 0.0, "ratio"});
  campaign_simulated(out, streamed.sink);
  out.notes.push_back({"replay", fmt(run_wall.size()) +
                                     " runs replayed serially through Simulator and the mirror"});
  out.notes.push_back({"campaign.run_tail_s", "p" + fmt(tail_p * 100.0) + " of " +
                                                  fmt(run_wall.size()) + " runs"});
  layer_notes(out, totals);
  out.notes.push_back({"bench.trace_overhead_frac",
                       "serial mirror replay " + fmt(mirror_total) +
                           " s vs serial Simulator replay " + fmt(sim_total) + " s"});
  out.notes.push_back({"per-layer scope", "sums over every replayed run of the campaign"});
  out.notes.push_back({"spans", fmt(log.stored()) + " stored, " + fmt(log.dropped()) +
                                    " per-cycle spans beyond the cap counted but not stored"});
  out.notes.push_back({"trace_file", write_spans(log, o, w)});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
#if !defined(NDEBUG) || defined(FTMESH_AUDIT)
  std::cerr << "perfbench: refusing to measure a build with assertions or the "
               "runtime audit compiled in\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with CMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  try {
    const Workload w = make_workload(o.workload, o.seed, o.smoke);
    fs::create_directories(o.work_dir);
    const Outcome out = w.campaign ? (o.trace ? campaign_traced(w, o)
                                              : campaign_untraced(w, o))
                                   : (o.trace ? single_traced(w, o)
                                              : single_untraced(w, o));
    write_outcome(std::cout, o, w, out);
    std::cout.flush();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
