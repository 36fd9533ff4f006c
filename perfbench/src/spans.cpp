#include "spans.hpp"

#include <cstdio>
#include <ostream>

namespace perfbench {

int SpanLog::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int SpanLog::open(int name, std::uint64_t id, bool fine) {
  const auto now = Clock::now();
  int stored = -1;
  if (!fine || fine_stored_ < fine_cap_) {
    if (fine) ++fine_stored_;
    Span s;
    s.name = name;
    s.id = id;
    s.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count();
    // The parent is the innermost open span that was stored.
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->stored >= 0) {
        s.parent = it->stored;
        break;
      }
    }
    stored = static_cast<int>(spans_.size());
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{stored, now});
  return static_cast<int>(stack_.size() - 1);
}

double SpanLog::close(int token) {
  const auto now = Clock::now();
  // Spans nest strictly (they are scoped), so `token` is the top.
  const Open o = stack_[static_cast<std::size_t>(token)];
  stack_.resize(static_cast<std::size_t>(token));
  if (o.stored >= 0) {
    spans_[o.stored].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count();
  }
  return std::chrono::duration<double>(now - o.start).count();
}

void SpanLog::write_chrome(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_fine_spans\":"
     << dropped_ << "},\"traceEvents\":[";
  char buf[96];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;  // never closed
    if (!first) os << ",\n";
    first = false;
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << "{\"name\":\"" << names_[s.name] << "\",\"cat\":\"perfbench\","
       << "\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf << ",\"args\":{\"id\":"
       << s.id << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
