// Shared pieces of the steady-state benchmark: clock, span tracer, sample
// statistics, resident-memory sampling, per-process temp directories and the
// host fingerprint. Nothing here touches the library under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t t0_ns) noexcept {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// -- span tracer ------------------------------------------------------------
//
// One Lane per thread, created before the thread starts, so recording never
// locks. A span's parent is the innermost span still open on its lane. With
// tracing off every lane pointer is null and a SpanScope is one branch.

struct Span {
  const char* name;
  int parent;  ///< index of the enclosing span on the same lane, -1 for a root
  std::int64_t t0;
  std::int64_t t1;
};

struct Lane {
  std::string name;
  std::vector<Span> spans;
  std::vector<int> open;
  std::int64_t begin_ns = 0;  ///< traced interval on this lane
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A new lane, or nullptr with tracing off. Lanes live as long as the
  /// tracer (deque: creating one never moves another).
  Lane* lane(std::string name) {
    if (!on_) return nullptr;
    lanes_.push_back(Lane{std::move(name), {}, {}, 0, 0});
    return &lanes_.back();
  }
  [[nodiscard]] const std::deque<Lane>& lanes() const noexcept { return lanes_; }

  struct NameTotals {
    double self_ns = 0;
    std::uint64_t count = 0;
  };
  /// Self time (duration minus the time its child spans cover) summed by
  /// span name over every lane whose name starts with `lane_prefix`.
  [[nodiscard]] std::map<std::string, NameTotals> totals(
      const std::string& lane_prefix) const;
  /// Largest |1 - (sum of self times) / (lane wall time)| over the lanes
  /// starting with `lane_prefix`: how far the spans are from accounting for
  /// every nanosecond of each thread's traced interval.
  [[nodiscard]] double reconcile_error(const std::string& lane_prefix) const;
  /// Writes every span as one JSON document.
  void write_json(const std::string& path) const;

 private:
  bool on_;
  std::deque<Lane> lanes_;
};

class SpanScope {
 public:
  SpanScope(Lane* lane, const char* name) noexcept : lane_(lane) {
    if (lane_ == nullptr) return;
    idx_ = static_cast<int>(lane_->spans.size());
    const int parent = lane_->open.empty() ? -1 : lane_->open.back();
    lane_->spans.push_back(Span{name, parent, now_ns(), 0});
    lane_->open.push_back(idx_);
  }
  ~SpanScope() {
    if (lane_ == nullptr) return;
    lane_->spans[static_cast<std::size_t>(idx_)].t1 = now_ns();
    lane_->open.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Lane* lane_;
  int idx_ = -1;
};

// -- sample statistics --------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The tail the benchmark reports: the highest percentile that still has at
/// least ten samples beyond it (the maximum when there are fewer than 11).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> v);

// -- process and host ------------------------------------------------------------

/// Current resident set size in MiB (/proc/self/statm).
[[nodiscard]] double rss_mb();

/// Tracks the peak of sampled resident memory above a baseline.
class RssPeak {
 public:
  void set_baseline() { base_ = rss_mb(); peak_ = base_; }
  void sample() { observe(rss_mb()); }
  void observe(double r) {
    if (r > peak_) peak_ = r;
  }
  [[nodiscard]] double added_mb() const noexcept { return peak_ - base_; }

 private:
  double base_ = 0;
  double peak_ = 0;
};

/// A directory made with mkdtemp under `root` (created if missing) and
/// removed with everything in it when this object is destroyed.
class TempDir {
 public:
  explicit TempDir(const std::string& root);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Aggregate CPU time counters from /proc/stat plus this process's own CPU
/// time, to tell how much of the machine other tenants used during a run.
struct CpuSample {
  std::uint64_t total = 0;  ///< jiffies, all states
  std::uint64_t idle = 0;   ///< idle + iowait
  std::uint64_t steal = 0;
  double self_s = 0;        ///< this process's user + system seconds
};
[[nodiscard]] CpuSample cpu_sample();

struct HostLoad {
  double steal_share = 0;    ///< stolen jiffies / all jiffies
  double foreign_share = 0;  ///< busy jiffies not spent by this process / all
};
[[nodiscard]] HostLoad host_load(const CpuSample& a, const CpuSample& b);

/// CPU model, nproc, ISA flags, compiler, build type, source revision, the
/// run's host load and the time of a fixed integer loop, as one JSON object.
[[nodiscard]] std::string host_fingerprint_json(const std::string& commit,
                                                const HostLoad& load);

}  // namespace perfbench
