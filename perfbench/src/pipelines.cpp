#include "pipelines.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "engine/engine.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "store/archive.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"
#include "vswitch/datapath.hpp"

namespace perfbench {

using rhhh::Key128;

namespace {

/// Producer keys per traced span, and frames per parse/process chunk: large
/// enough that two clock reads per chunk stay well under 1% of its cost.
constexpr std::size_t kIngestChunk = 1 << 16;
constexpr std::size_t kFrameChunk = 512;
/// Top exact HHHs every sealed window must report.
constexpr std::size_t kTopExact = 3;
/// Store history queries: windows merged, and the repetitions timed.
constexpr std::size_t kHistoryWindows = 4;
constexpr int kHistoryReps = 7;
/// Dataplane: wall time between inline output() queries.
constexpr std::int64_t kDataplaneThinkMs = 100;
/// Fig. 2-4 scoring: a coverage miss means a prefix whose conditioned
/// frequency reached theta N was left out, which the sampling correction
/// rules out with probability 1 - delta per prefix at any N.
constexpr double kMaxCoverageErrorRatio = 0.0;

double ms_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) * 1e-6; }

/// True once a window is past the point where its sampling correction
/// reaches theta N. Before that every counter qualifies as an HHH, the
/// answer is meaningless, and output() takes seconds to minutes (one
/// windowed run spent over three minutes in one live-window output), so a
/// client asks only windows past it. Skips are counted and reported.
bool answerable(const rhhh::RhhhSpaceSaving& w) {
  return w.correction() < kTheta * static_cast<double>(w.stream_length());
}

rhhh::MonitorConfig monitor_config(rhhh::AlgorithmKind a, std::uint64_t seed) {
  rhhh::MonitorConfig mc;
  mc.hierarchy = rhhh::HierarchyKind::kIpv4TwoDimBytes;
  mc.algorithm = a;
  mc.eps = kEps;
  mc.delta = 1e-3;
  mc.seed = seed;
  return mc;
}

std::unique_ptr<rhhh::RhhhSpaceSaving> make_lattice(const rhhh::Hierarchy& h,
                                                    rhhh::AlgorithmKind a,
                                                    std::uint64_t seed) {
  const auto [mode, params] = rhhh::lattice_config_of(h, monitor_config(a, seed));
  return std::make_unique<rhhh::RhhhSpaceSaving>(h, mode, params);
}

rhhh::TraceConfig trace_config(const std::string& preset, std::uint64_t seed) {
  rhhh::TraceConfig cfg = rhhh::trace_preset(preset);
  cfg.seed ^= rhhh::mix64(seed + 0x9E3779B97F4A7C15ULL);
  return cfg;
}

/// Restricts the calling thread, and every thread it creates from now on,
/// to the given CPUs. The workloads place each role on its own CPU (bench
/// thread 0, engine threads 1..W, query client 3) so that run-to-run
/// differences in where the scheduler puts them do not show up as noise.
/// A no-op on hosts with fewer than four CPUs.
void pin(std::initializer_list<int> cpus) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void wait_consumed(const rhhh::HhhEngine& eng, std::uint64_t target) {
  while (eng.stats().consumed < target) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Lap times of a timed interval. With RunOpts::alternate, even laps run
/// with their fine spans off (one covering span keeps the lane reconciled)
/// and odd laps traced; adjacent laps see the same host conditions, so the
/// tracing overhead is taken from them in pairs.
struct LapLog {
  std::vector<double> seconds;
  std::vector<bool> traced;
  std::size_t traced_laps = 0;

  [[nodiscard]] bool next_traced(const RunOpts& o) const {
    return o.tracer != nullptr && (!o.alternate || seconds.size() % 2 == 1);
  }
  void add(double s, bool t) {
    seconds.push_back(s);
    traced.push_back(t);
    traced_laps += t ? 1 : 0;
  }
  /// 1 - median over (untraced, traced) pairs of the rate ratio.
  [[nodiscard]] double overhead() const {
    std::vector<double> r;
    for (std::size_t i = 0; i + 1 < seconds.size(); i += 2) {
      if (!traced[i] && traced[i + 1]) r.push_back(seconds[i] / seconds[i + 1]);
    }
    return r.empty() ? 0.0 : 1.0 - median(r);
  }
};

struct Quality {
  double accuracy = 0;
  double coverage = 0;
  double false_positive = 0;
};

/// Scores `alg`'s answer against the exact HHHs of `laps` passes over keys.
Quality score(const rhhh::HhhAlgorithm& alg, const std::vector<Key128>& keys,
              std::uint64_t laps) {
  rhhh::ExactHhh exact(alg.hierarchy());
  for (const Key128& k : keys) exact.add(k, laps);
  const rhhh::HhhSet got = alg.output(kTheta);
  const rhhh::HhhSet truth = exact.compute(kTheta);
  return Quality{rhhh::accuracy_errors(exact, got, kEps).ratio(),
                 rhhh::coverage_errors(exact, got, kTheta).ratio(),
                 rhhh::false_positives(truth, got).ratio()};
}

void record_quality(Outcome& out, const Quality& q) {
  out.m["hhh.accuracy_error_ratio"] = q.accuracy;
  out.m["hhh.coverage_error_ratio"] = q.coverage;
  out.m["hhh.false_positive_ratio"] = q.false_positive;
  out.check("coverage_error_ratio", q.coverage <= kMaxCoverageErrorRatio,
            std::to_string(q.coverage) + " <= " + std::to_string(kMaxCoverageErrorRatio));
}

/// The certified bound of Theorems 6.11 / 6.15, sound at any N: every
/// reported prefix's exact frequency lies within eps N plus the sampling
/// correction 2 Z sqrt(N V) of its estimate. Cheap (one pass over the
/// distinct keys), so it runs on every measurement.
void check_certified(Outcome& out, const rhhh::RhhhSpaceSaving& alg,
                     const std::vector<Key128>& keys, std::uint64_t laps) {
  rhhh::ExactHhh exact(alg.hierarchy());
  for (const Key128& k : keys) exact.add(k, laps);
  const rhhh::HhhSet got = alg.output(kTheta);
  std::vector<rhhh::Prefix> ps;
  for (const rhhh::HhhCandidate& c : got) ps.push_back(c.prefix);
  const std::vector<std::uint64_t> f = exact.frequencies(ps);
  const double n = static_cast<double>(alg.stream_length());
  const double slack = kEps * n + alg.correction();
  std::size_t violations = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (std::abs(static_cast<double>(f[i]) - got[i].f_est) > slack) ++violations;
  }
  out.check("estimates within eps N + correction",
            !got.empty() && violations == 0,
            std::to_string(violations) + " of " + std::to_string(got.size()) +
                " candidates outside +-" + std::to_string(slack));
}

void record_queries(Outcome& out, const std::vector<double>& query_ms) {
  const Tail t = tail_of(query_ms);
  out.m["query_p50_ms"] = median(query_ms);
  out.m["query_tail_ms"] = t.value;
  out.m["query_tail_pct"] = t.percentile;
  out.m["query_samples"] = static_cast<double>(t.samples);
}

double self_ns(const Tracer& tr, const std::string& lane, const char* name) {
  const auto totals = tr.totals(lane);
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_ns;
}

rhhh::EngineConfig engine_config(const EngineSpec& s, rhhh::obs::MetricsRegistry* reg,
                                 const std::string& store_dir, std::uint64_t seed) {
  rhhh::EngineConfig c;
  c.monitor = monitor_config(s.algorithm, seed);
  c.workers = s.workers;
  c.producers = 1;
  // The transport settings of the repository's engine-scaling ablation, so
  // the figures line up with the engine-transport gap measured there.
  c.ring_capacity = std::size_t{1} << 16;
  c.batch = 256;
  c.overflow = rhhh::OverflowPolicy::kBlock;
  c.epoch_packets = s.epoch_packets;
  c.history_depth = s.history_depth;
  c.archive.dir = store_dir;
  c.archive.metrics = reg;
  c.metrics = reg;
  return c;
}

/// Closed-loop query client: ask for the current answer, pause think_ms,
/// repeat until stopped. Records each query's latency from the call into
/// the engine until the HhhSets are returned.
class QueryClient {
 public:
  QueryClient(rhhh::HhhEngine& eng, bool windowed, int think_ms, Lane* lane)
      : eng_(eng), windowed_(windowed), think_(think_ms), lane_(lane) {
    thread_ = std::thread([this] { loop(); });
  }
  ~QueryClient() { stop(); }
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read only after stop().
  std::vector<double> query_ms, snapshot_ms, output_ms;
  std::uint64_t failures = 0;
  std::uint64_t skipped = 0;  ///< outputs not asked: window not answerable yet
  double peak_rss_mb = 0;

 private:
  void loop() {
    if (lane_ != nullptr) lane_->begin_ns = now_ns();
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      lk.unlock();
      query_once();
      lk.lock();
      SpanScope think(lane_, "client.think");
      cv_.wait_for(lk, think_, [this] { return stop_; });
    }
    if (lane_ != nullptr) lane_->end_ns = now_ns();
  }

  void query_once() {
    SpanScope q(lane_, "query");
    const std::int64_t a = now_ns();
    try {
      std::int64_t b = 0;
      if (windowed_) {
        std::optional<rhhh::TrendSnapshot> ts;
        {
          SpanScope s(lane_, "engine.trend_snapshot");
          ts.emplace(eng_.trend_snapshot());
        }
        b = now_ns();
        if (answerable(ts->current_algorithm())) {
          SpanScope s(lane_, "hhh.output");
          (void)ts->current(kTheta);
          output_ms.push_back(ms_between(b, now_ns()));
        } else {
          ++skipped;
        }
        if (ts->sealed_windows() > 0 && answerable(ts->window_algorithm(0))) {
          const std::int64_t c = now_ns();
          SpanScope s(lane_, "hhh.output");
          (void)ts->window(0, kTheta);
          output_ms.push_back(ms_between(c, now_ns()));
        }
      } else {
        std::optional<rhhh::EngineSnapshot> snap;
        {
          SpanScope s(lane_, "engine.snapshot");
          snap.emplace(eng_.snapshot());
        }
        b = now_ns();
        if (answerable(snap->algorithm())) {
          SpanScope s(lane_, "hhh.output");
          (void)snap->output(kTheta);
          output_ms.push_back(ms_between(b, now_ns()));
        } else {
          ++skipped;
        }
      }
      const std::int64_t done = now_ns();
      snapshot_ms.push_back(ms_between(a, b));
      query_ms.push_back(ms_between(a, done));
    } catch (const std::exception&) {
      ++failures;
    }
    peak_rss_mb = std::max(peak_rss_mb, rss_mb());
  }

  rhhh::HhhEngine& eng_;
  bool windowed_;
  std::chrono::milliseconds think_;
  Lane* lane_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it uses exists
};

/// Every sealed window must report the lap's strongest exact HHHs.
void check_top_exact(Outcome& out, const rhhh::Hierarchy& h, const rhhh::TrendSnapshot& ts,
                     const std::vector<Key128>& keys) {
  rhhh::ExactHhh exact(h);
  for (const Key128& k : keys) exact.add(k);
  std::vector<rhhh::HhhCandidate> top(exact.compute(kTheta).items());
  std::sort(top.begin(), top.end(),
            [](const auto& x, const auto& y) { return x.c_hat > y.c_hat; });
  top.resize(std::min(top.size(), kTopExact));
  std::size_t missing = 0;
  for (std::size_t age = 0; age < ts.sealed_windows(); ++age) {
    const rhhh::HhhSet got = ts.window(age, kTheta);
    for (const rhhh::HhhCandidate& c : top) missing += got.contains(c.prefix) ? 0 : 1;
  }
  out.check("sealed windows contain the top exact HHHs",
            missing == 0 && ts.sealed_windows() > 0 && !top.empty(),
            std::to_string(missing) + " missing over " +
                std::to_string(ts.sealed_windows()) + " windows");
}

/// Post-run checks and history queries of the windowed, archived engine.
void finish_windowed(Outcome& out, rhhh::HhhEngine& eng, const std::string& store_dir,
                     const std::vector<Key128>& keys, bool exact_checks, Lane* lane) {
  const rhhh::EngineStats st = eng.stats();
  const rhhh::TrendSnapshot ts = eng.trend_snapshot();
  out.check("archived_windows == window_epochs", st.archived_windows == st.window_epochs,
            std::to_string(st.archived_windows) + " vs " + std::to_string(st.window_epochs));

  const rhhh::store::WindowArchive arch = rhhh::store::WindowArchive::open_read(store_dir);
  std::uint64_t n_sum = ts.current_length();
  for (const rhhh::store::WindowMeta& w : arch.list()) n_sum += w.stream_length;
  out.check("sum(window N) + live N == consumed", n_sum == st.consumed,
            std::to_string(n_sum) + " vs " + std::to_string(st.consumed));
  out.m["store.bytes_per_window"] =
      arch.windows() == 0 ? 0.0
                          : static_cast<double>(arch.total_bytes()) /
                                static_cast<double>(arch.windows());

  if (exact_checks) check_top_exact(out, eng.hierarchy(), ts, keys);

  // History query: a cold reader opens the store and merges the last K.
  const std::size_t k = std::min(kHistoryWindows, ts.sealed_windows());
  std::uint64_t expect_n = 0;
  for (std::size_t age = 0; age < k; ++age) expect_n += ts.window_length(age);
  std::vector<double> open_ms, merge_ms, total_ms;
  bool n_ok = true;
  if (lane != nullptr) lane->begin_ns = now_ns();
  for (int r = 0; r < kHistoryReps; ++r) {
    SpanScope query(lane, "store.history_query");
    const std::int64_t a = now_ns();
    std::optional<rhhh::store::WindowArchive> cold;
    {
      SpanScope span(lane, "store.open");
      cold.emplace(rhhh::store::WindowArchive::open_read(store_dir));
    }
    const std::int64_t b = now_ns();
    std::unique_ptr<rhhh::RhhhSpaceSaving> merged;
    {
      SpanScope span(lane, "store.merge");
      merged = cold->merged_last(kHistoryWindows);
    }
    const std::int64_t c = now_ns();
    n_ok = n_ok && merged != nullptr && merged->stream_length() == expect_n;
    open_ms.push_back(ms_between(a, b));
    merge_ms.push_back(ms_between(b, c));
    total_ms.push_back(ms_between(a, c));
  }
  if (lane != nullptr) lane->end_ns = now_ns();
  out.check("merged_last(4) N == sum of trend window N", n_ok,
            "expected " + std::to_string(expect_n));
  out.m["store.open_ms"] = median(open_ms);
  out.m["store.merge_ms"] = median(merge_ms);
  out.m["store.history_query_ms"] = median(total_ms);
  out.attempted += kHistoryReps;
}

}  // namespace

std::vector<Key128> make_keys(const std::string& preset, std::uint64_t seed, std::size_t n) {
  rhhh::TraceGenerator gen(trace_config(preset, seed));
  std::vector<Key128> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(gen.next().pair_key());
  return keys;
}

Frames make_frames(const std::string& preset, std::uint64_t seed, std::size_t n,
                   const std::string& tmp_root) {
  const TempDir dir(tmp_root);
  const std::string path = dir.path() + "/capture.pcap";
  {
    rhhh::TraceGenerator gen(trace_config(preset, seed));
    rhhh::PcapWriter w(path);
    for (std::size_t i = 0; i < n; ++i) {
      rhhh::PacketRecord p = gen.next();
      p.length = 64;  // minimum-size frames, as in the paper's Fig. 6 line-rate test
      w.write(p);
    }
  }
  Frames f;
  f.bytes.reserve(n * 64);
  f.offsets.reserve(n + 1);
  rhhh::PcapReader r(path);
  while (auto frame = r.next_frame()) {
    if (f.bytes.size() + frame->size() > UINT32_MAX) {
      throw std::length_error("capture larger than 4 GiB");
    }
    f.bytes.insert(f.bytes.end(), frame->begin(), frame->end());
    f.offsets.push_back(static_cast<std::uint32_t>(f.bytes.size()));
  }
  return f;
}

Outcome run_engine(const EngineSpec& spec, const std::vector<Key128>& keys,
                   const RunOpts& o) {
  Outcome out;
  const bool windowed = spec.epoch_packets > 0;
  const std::size_t n = keys.size();
  // Warm up for one lap, or for as many whole laps as fill the history.
  std::uint64_t warm_laps = 1;
  if (windowed) {
    const std::uint64_t need = spec.epoch_packets * spec.history_depth;
    warm_laps = std::max<std::uint64_t>(1, (need + n - 1) / n);
  }

  RssPeak rss;
  rss.set_baseline();
  std::vector<double> setup_s;
  std::unique_ptr<rhhh::obs::MetricsRegistry> reg;
  std::unique_ptr<TempDir> store;
  std::unique_ptr<rhhh::HhhEngine> eng;
  for (int s = 0; s < std::max(1, o.setups); ++s) {
    eng.reset();
    store.reset();
    reg = std::make_unique<rhhh::obs::MetricsRegistry>();
    if (windowed) store = std::make_unique<TempDir>(o.tmp_root);
    const rhhh::EngineConfig cfg =
        engine_config(spec, reg.get(), store ? store->path() : "", o.seed);
    const std::int64_t t0 = now_ns();
    eng = rhhh::make_engine(cfg);
    if (spec.workers == 1) pin({1}); else pin({1, 2});
    eng->start();
    pin({0});
    rhhh::HhhEngine::Producer& prod = eng->producer(0);
    for (std::uint64_t lap = 0; lap < warm_laps; ++lap) {
      for (const Key128& k : keys) prod.ingest(k);
    }
    prod.flush();
    wait_consumed(*eng, prod.offered());
    setup_s.push_back(seconds_since(t0));
    rss.sample();
  }

  rhhh::HhhEngine& e = *eng;
  rhhh::HhhEngine::Producer& prod = e.producer(0);
  Tracer* tr = o.tracer;
  Lane* plane = tr != nullptr ? tr->lane(o.lane_prefix + ".producer") : nullptr;
  Lane* qlane = tr != nullptr ? tr->lane(o.lane_prefix + ".query") : nullptr;
  const rhhh::EngineStats s0 = e.stats();
  std::uint64_t laps = warm_laps;
  LapLog log;
  pin({3});
  QueryClient client(e, windowed, spec.think_ms, qlane);
  pin({0});
  const std::int64_t t0 = now_ns();
  if (plane != nullptr) plane->begin_ns = t0;
  do {
    const bool traced = log.next_traced(o);
    Lane* lane = traced ? plane : nullptr;
    SpanScope whole(traced ? nullptr : plane, "bench.untraced_lap");
    const std::int64_t lap0 = now_ns();
    for (std::size_t i = 0; i < n; i += kIngestChunk) {
      SpanScope span(lane, "engine.ingest");
      const std::size_t end = std::min(n, i + kIngestChunk);
      for (std::size_t j = i; j < end; ++j) prod.ingest(keys[j]);
    }
    log.add(seconds_since(lap0), traced);
    ++laps;
    rss.sample();
  } while (seconds_since(t0) < o.seconds);
  {
    SpanScope span(plane, "engine.drain");
    prod.flush();
    wait_consumed(e, prod.offered());
  }
  const std::int64_t t1 = now_ns();
  if (plane != nullptr) plane->end_ns = t1;
  client.stop();
  const rhhh::EngineStats s1 = e.stats();

  const double dt = static_cast<double>(t1 - t0) * 1e-9;
  const auto offered = static_cast<double>(s1.offered - s0.offered);
  out.m["ingest_mpps"] = static_cast<double>(s1.consumed - s0.consumed) / dt / 1e6;
  if (o.alternate) out.m["trace.overhead_share"] = log.overhead();
  out.m["setup_s"] = median(setup_s);
  rss.observe(client.peak_rss_mb);
  out.m["rss_mb"] = rss.added_mb();
  record_queries(out, client.query_ms);
  out.m["query_skipped"] = static_cast<double>(client.skipped);
  out.m["hhh.output_ms"] = median(client.output_ms);
  out.m["engine.backpressure_per_kpkt"] =
      static_cast<double>(s1.backpressure_waits - s0.backpressure_waits) * 1e3 / offered;
  if (tr != nullptr) {
    out.m["engine.producer_ns_per_pkt"] =
        self_ns(*tr, o.lane_prefix + ".producer", "engine.ingest") /
        static_cast<double>(log.traced_laps * n);
  }
  const auto hist_ms = [&](const char* name) {
    return reg->histogram(name).snapshot().mean() * 1e-6;
  };
  out.m["engine.quiesce_ms"] = hist_ms("rhhh_engine_quiesce_ns");
  double max_w = 0;
  double sum_w = 0;
  for (std::size_t w = 0; w < s1.per_worker_consumed.size(); ++w) {
    const auto c = static_cast<double>(s1.per_worker_consumed[w] - s0.per_worker_consumed[w]);
    max_w = std::max(max_w, c);
    sum_w += c;
  }
  out.m["engine.worker_skew"] =
      max_w / (sum_w / static_cast<double>(s1.per_worker_consumed.size()));
  if (windowed) {
    const auto rotations = static_cast<double>(s1.budget_rotations - s0.budget_rotations);
    out.m["engine.trend_snapshot_ms"] = median(client.snapshot_ms);
    out.m["engine.trend_cache_hit_ratio"] =
        static_cast<double>(s1.trend_cache_hits - s0.trend_cache_hits) /
        static_cast<double>(std::max<std::size_t>(1, client.snapshot_ms.size()));
    out.m["engine.rotation_ms"] = hist_ms("rhhh_engine_rotation_ns");
    out.m["engine.rotation_drift_us"] =
        rotations == 0 ? 0.0
                       : static_cast<double>(s1.rotation_drift_ns_total -
                                             s0.rotation_drift_ns_total) *
                             1e-3 / rotations;
    out.m["engine.late_rotations"] = static_cast<double>(s1.late_rotations - s0.late_rotations);
    out.m["store.append_ms"] = hist_ms("rhhh_store_append_ns");
  }

  {
    Lane* clane = tr != nullptr ? tr->lane(o.lane_prefix + ".control") : nullptr;
    if (clane != nullptr) clane->begin_ns = now_ns();
    {
      SpanScope span(clane, "engine.stop");
      e.stop();
    }
    if (clane != nullptr) clane->end_ns = now_ns();
  }
  const rhhh::EngineStats fin = e.stats();
  out.attempted += fin.offered + client.query_ms.size() + client.failures + fin.window_epochs;
  out.failed += fin.dropped + fin.archive_queue_drops + fin.archive_errors + client.failures;
  out.check("zero ring drops", fin.dropped == 0, std::to_string(fin.dropped));
  out.check("all offered packets consumed", fin.consumed == fin.offered &&
                                                fin.offered == laps * n,
            std::to_string(fin.consumed) + " of " + std::to_string(laps * n));
  out.check("no failed queries", client.failures == 0, std::to_string(client.failures));
  if (windowed) {
    out.check("archive queue never dropped", fin.archive_queue_drops == 0 && fin.archive_errors == 0,
              std::to_string(fin.archive_queue_drops) + " drops, " +
                  std::to_string(fin.archive_errors) + " errors");
    finish_windowed(out, e, store->path(), keys, o.exact,
                    tr != nullptr ? tr->lane(o.lane_prefix + ".history") : nullptr);
  } else {
    const rhhh::EngineSnapshot snap = e.snapshot();
    out.check("snapshot N == packets offered", snap.stream_length() == fin.offered,
              std::to_string(snap.stream_length()) + " vs " + std::to_string(fin.offered));
    check_certified(out, snap.algorithm(), keys, laps);
    if (o.exact) record_quality(out, score(snap.algorithm(), keys, laps));
  }
  return out;
}

Outcome run_dataplane(bool hooked, const Frames& frames, const RunOpts& o) {
  Outcome out;
  const rhhh::Hierarchy h = rhhh::make_hierarchy(rhhh::HierarchyKind::kIpv4TwoDimBytes);
  const std::size_t nf = frames.size();
  std::vector<rhhh::PacketRecord> recs(kFrameChunk);
  std::uint64_t parse_errors = 0;
  std::vector<double> query_ms;
  std::uint64_t query_failures = 0;
  std::uint64_t query_skipped = 0;
  std::unique_ptr<rhhh::obs::MetricsRegistry> reg;
  std::unique_ptr<rhhh::RhhhSpaceSaving> alg;
  std::unique_ptr<rhhh::HhhHook> hook;
  std::unique_ptr<rhhh::Datapath> dp;

  const auto query = [&](Lane* lane) {
    SpanScope q(lane, "query");
    const std::int64_t a = now_ns();
    if (!answerable(*alg)) {
      ++query_skipped;
      return;
    }
    try {
      SpanScope s(lane, "hhh.output");
      (void)alg->output(kTheta);
      query_ms.push_back(ms_between(a, now_ns()));
    } catch (const std::exception&) {
      ++query_failures;
    }
  };
  std::int64_t next_query = 0;
  const std::int64_t think_ns = kDataplaneThinkMs * 1'000'000;
  const auto lap = [&](Lane* lane, bool queries) {
    for (std::size_t i = 0; i < nf; i += kFrameChunk) {
      const std::size_t end = std::min(nf, i + kFrameChunk);
      std::size_t m = 0;
      {
        SpanScope s(lane, "net.parse");
        for (std::size_t j = i; j < end; ++j) {
          if (auto r = rhhh::parse_frame(frames.frame(j))) {
            recs[m++] = r->record;
          } else {
            ++parse_errors;
          }
        }
      }
      {
        SpanScope s(lane, "vswitch.process");
        for (std::size_t j = 0; j < m; ++j) (void)dp->process(recs[j]);
      }
      if (queries && now_ns() >= next_query) {
        query(lane);
        next_query = now_ns() + think_ns;
      }
    }
  };

  RssPeak rss;
  rss.set_baseline();
  std::vector<double> setup_s;
  pin({0});
  for (int s = 0; s < std::max(1, o.setups); ++s) {
    dp.reset();
    hook.reset();
    alg.reset();
    reg = std::make_unique<rhhh::obs::MetricsRegistry>();
    const std::int64_t t0 = now_ns();
    rhhh::DatapathConfig dc;
    dc.metrics = reg.get();
    dp = std::make_unique<rhhh::Datapath>(dc);
    if (hooked) {
      alg = make_lattice(h, rhhh::AlgorithmKind::kTenRhhh, o.seed);
      hook = std::make_unique<rhhh::HhhHook>(*alg);
      dp->set_hook(hook.get());
    }
    lap(nullptr, false);
    setup_s.push_back(seconds_since(t0));
    rss.sample();
  }

  Tracer* tr = o.tracer;
  Lane* lane = tr != nullptr ? tr->lane(o.lane_prefix + ".dataplane") : nullptr;
  const rhhh::Datapath::Stats d0 = dp->stats();
  std::uint64_t laps = 1;
  const std::int64_t t0 = now_ns();
  if (lane != nullptr) lane->begin_ns = t0;
  next_query = t0 + think_ns;
  LapLog log;
  do {
    const bool traced = log.next_traced(o);
    SpanScope whole(traced ? nullptr : lane, "bench.untraced_lap");
    const std::int64_t lap0 = now_ns();
    lap(traced ? lane : nullptr, hooked);
    log.add(seconds_since(lap0), traced);
    ++laps;
    rss.sample();
  } while (seconds_since(t0) < o.seconds);
  const std::int64_t t1 = now_ns();
  if (lane != nullptr) lane->end_ns = t1;
  const rhhh::Datapath::Stats d1 = dp->stats();

  const auto pkts = static_cast<double>(d1.received - d0.received);
  out.m["ingest_mpps"] = pkts / (static_cast<double>(t1 - t0) * 1e-9) / 1e6;
  if (o.alternate) out.m["trace.overhead_share"] = log.overhead();
  out.m["setup_s"] = median(setup_s);
  out.m["rss_mb"] = rss.added_mb();
  record_queries(out, query_ms);
  out.m["query_skipped"] = static_cast<double>(query_skipped);
  out.m["hhh.output_ms"] = median(query_ms);
  out.m["net.parse_errors"] = static_cast<double>(parse_errors);
  if (tr != nullptr) {
    const auto traced_pkts = static_cast<double>(log.traced_laps * nf);
    out.m["net.parse_ns_per_pkt"] =
        self_ns(*tr, o.lane_prefix + ".dataplane", "net.parse") / traced_pkts;
    out.m["vswitch.process_ns_per_pkt"] =
        self_ns(*tr, o.lane_prefix + ".dataplane", "vswitch.process") / traced_pkts;
  }
  out.m["vswitch.emc_hit_ratio"] = static_cast<double>(d1.emc_hits - d0.emc_hits) / pkts;

  const rhhh::Datapath::Stats& fin = dp->stats();
  out.attempted += fin.received + parse_errors + query_ms.size() + query_failures;
  out.failed += parse_errors + fin.dropped + query_failures;
  out.check("forwarded == received", fin.forwarded == fin.received,
            std::to_string(fin.forwarded) + " vs " + std::to_string(fin.received));
  out.check("zero parse errors", parse_errors == 0, std::to_string(parse_errors));
  out.check("no failed queries", query_failures == 0, std::to_string(query_failures));
  if (hooked) {
    out.check("lattice N == packets processed", alg->stream_length() == laps * nf,
              std::to_string(alg->stream_length()) + " vs " + std::to_string(laps * nf));
    std::vector<Key128> keys;
    keys.reserve(nf);
    for (std::size_t i = 0; i < nf; ++i) {
      if (auto r = rhhh::parse_frame(frames.frame(i))) keys.push_back(h.key_of(r->record));
    }
    check_certified(out, *alg, keys, laps);
    if (o.exact) record_quality(out, score(*alg, keys, laps));
  }
  return out;
}

Outcome probe_lattice(rhhh::AlgorithmKind algorithm, const std::vector<Key128>& keys,
                      const RunOpts& o) {
  Outcome out;
  const rhhh::Hierarchy h = rhhh::make_hierarchy(rhhh::HierarchyKind::kIpv4TwoDimBytes);
  const std::size_t n = keys.size();
  const double budget = o.seconds / 2;

  // Per-packet update(): what the dataplane hook calls.
  {
    const auto alg = make_lattice(h, algorithm, o.seed);
    std::uint64_t laps = 0;
    const std::int64_t t0 = now_ns();
    do {
      for (const Key128& k : keys) alg->update(k);
      ++laps;
    } while (seconds_since(t0) < budget);
    out.m["hhh.update_ns_per_pkt"] =
        static_cast<double>(now_ns() - t0) / static_cast<double>(laps * n);
  }
  // update_batch() in the engine workloads' batch size: what a worker calls.
  const std::size_t batch = 256;
  const auto alg = make_lattice(h, algorithm, o.seed);
  std::uint64_t laps = 0;
  const std::int64_t t0 = now_ns();
  do {
    for (std::size_t i = 0; i < n; i += batch) {
      alg->update_batch(keys.data() + i, std::min(batch, n - i));
    }
    ++laps;
  } while (seconds_since(t0) < budget);
  const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(laps * n);
  out.m["hhh.update_batch_ns_per_pkt"] = ns;
  out.m["hhh.bare_mpps"] = 1e3 / ns;
  out.check("bare lattice N == packets", alg->stream_length() == laps * n,
            std::to_string(alg->stream_length()));
  check_certified(out, *alg, keys, laps);
  if (o.exact) record_quality(out, score(*alg, keys, laps));
  return out;
}

}  // namespace perfbench
