#pragma once
// Span recorder for the traced run.  A span covers one call into a layer's
// public API: name, start, end, the span that was open when it began
// (its parent), and an id (the simulated cycle for per-cycle calls, the
// run index otherwise).  Spans stay in memory and are written once, at
// exit, as Chrome-trace JSON (load it in Perfetto or chrome://tracing).
//
// Only the first `fine_cap` per-cycle ("fine") spans are stored for the
// trace file, so long traced runs keep a bounded footprint; close() still
// returns every span's duration for the layer totals.  Single-threaded by
// design: the traced run drives every layer from one thread.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  explicit SpanLog(std::size_t fine_cap) : fine_cap_(fine_cap) {}

  /// Interns a span name; call once per name, outside the hot loop.
  int name_id(const std::string& name);

  /// Opens a span; returns a token for close().
  int open(int name, std::uint64_t id, bool fine);
  /// Closes the span opened as `token`; returns its duration in seconds.
  double close(int token);

  [[nodiscard]] std::size_t stored() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// {"traceEvents":[...]} with one complete ("X") event per stored span.
  void write_chrome(std::ostream& os) const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;  ///< index into spans_, -1 for a root
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  struct Open {
    int stored = -1;  ///< index into spans_, -1 when not stored
    Clock::time_point start;
  };

  std::size_t fine_cap_;
  std::size_t fine_stored_ = 0;
  std::uint64_t dropped_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

}  // namespace perfbench
