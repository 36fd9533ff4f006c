#pragma once
// Small measurement helpers shared by the runners: order statistics, the
// report digest, a byte-counting discard stream, a timing wrapper around a
// trace sink, and the process's peak resident memory.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "ftmesh/stats/latency_stats.hpp"
#include "ftmesh/trace/trace_event.hpp"
#include "spans.hpp"

namespace perfbench {

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return ftmesh::stats::percentile_sorted(v, 0.5);
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it (the p50 when there are fewer than 20 samples).
/// Returns {percentile, value}.
inline std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  double p = 0.5;
  for (const double q : {0.9999, 0.999, 0.99, 0.95, 0.9}) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      p = q;
      break;
    }
  }
  return {p, ftmesh::stats::percentile_sorted(v, p)};
}

/// FNV-1a over the report bytes.
inline std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] = digits[v & 0xF];
  return s;
}

/// Discards what is written through it, counting the bytes.
class DiscardBuf final : public std::streambuf {
 public:
  DiscardBuf() { setp(buf_, buf_ + sizeof buf_); }
  [[nodiscard]] std::uint64_t bytes() const {
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type c) override {
    flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(buf_, buf_ + sizeof buf_);
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  char buf_[4096];
  std::uint64_t flushed_ = 0;
};

/// Forwards every event to `inner`, timing the call.
class TimedSink final : public ftmesh::trace::TraceSink {
 public:
  explicit TimedSink(ftmesh::trace::TraceSink& inner) : inner_(&inner) {}
  void record(const ftmesh::trace::Event& e) override {
    const auto t0 = Clock::now();
    inner_->record(e);
    seconds_ += seconds_since(t0);
    ++events_;
  }
  void flush() override { inner_->flush(); }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  ftmesh::trace::TraceSink* inner_;
  double seconds_ = 0.0;
  std::uint64_t events_ = 0;
};

/// Peak resident set of this process so far, MiB.
inline double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
