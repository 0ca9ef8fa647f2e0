// Benchmark-side span recorder. Spans are kept in memory, one vector per
// track, and written out once as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it). Each track is written by exactly one thread —
// a rank's worker thread or the driver's main thread — so recording takes
// no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: no parent
  int job = -1;              ///< -1: outside the job loop
};

class Tracer {
 public:
  /// Track t is shown as thread `tids[t]` labelled `names[t]`. Rank
  /// processes that write separate files use disjoint tids, which also keeps
  /// span ids unique across the merged trace.
  Tracer(std::vector<int> tids, std::vector<std::string> names);

  [[nodiscard]] std::uint64_t next_id(int track) {
    const auto t = static_cast<std::size_t>(track);
    return (static_cast<std::uint64_t>(tids_[t] + 1) << 32) | ++counters_[t];
  }
  void add(int track, const Span& s) {
    tracks_[static_cast<std::size_t>(track)].push_back(s);
  }
  [[nodiscard]] const std::vector<Span>& track(int t) const {
    return tracks_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] int num_tracks() const {
    return static_cast<int>(tracks_.size());
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span
  /// and a thread_name metadata event per track. Timestamps are steady-clock
  /// microseconds, comparable across processes on one host.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<int> tids_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> counters_;
  std::vector<std::vector<Span>> tracks_;
};

/// Records one span on destruction. A null tracer makes it a no-op, so the
/// untraced path pays one branch.
class Scope {
 public:
  Scope(Tracer* t, int track, const char* name, std::uint64_t parent,
        int job)
      : t_(t),
        track_(track),
        span_{name, t ? now_ns() : 0, 0, t ? t->next_id(track) : 0, parent,
              job} {}
  ~Scope() {
    if (t_ != nullptr) {
      span_.end_ns = now_ns();
      t_->add(track_, span_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer* t_;
  int track_;
  Span span_;
};

}  // namespace perfbench
