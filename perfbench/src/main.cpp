// perfbench: the repository's steady-state benchmark.
//
//   perfbench --workload <ingest-10rhhh|windowed-query|dataplane-ovs>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--tmp-root <dir>] [--out-dir <dir>] [--commit <id>]
//
// --trace 0 measures the workload untraced and prints the end-to-end
// metrics; --trace 1 measures it with spans recorded and prints the
// per-layer metrics. Either way the workload's correctness checks run and
// any failure makes the exit code nonzero. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "pipelines.hpp"

namespace pb = perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string tmp_root = ".bench_build/tmp";
  std::string out_dir = ".bench_build/results";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--scale") a.scale = std::stod(v);
    else if (k == "--tmp-root") a.tmp_root = v;
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--commit") a.commit = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.seconds <= 0 || a.scale <= 0 || a.scale > 1) {
    throw std::invalid_argument("--seconds must be > 0 and --scale in (0, 1]");
  }
  return a;
}

// Workload parameters. Inputs are whole laps over a fixed buffer: the
// engine workloads replay 8Mi keys (128 MiB, more than the per-core caches),
// the dataplane replays a 2Mi-frame capture of 64-byte frames.
constexpr std::size_t kEngineKeys = std::size_t{1} << 23;
constexpr std::size_t kDataplaneFrames = std::size_t{1} << 21;
/// One window per lap: long enough that, even on a fast host, few of the
/// windowed client's queries are the first after a rotation. Half-lap
/// windows rotated every 200 ms at 21 Mpps, and the client's median then
/// flipped between the cached and the re-merge path (25 vs 55-70 ms) with
/// the host's speed.
constexpr std::uint64_t kEpochPackets = std::uint64_t{1} << 23;
/// --scale shrinks inputs, but windows stay at least this long: at tens of
/// rotations per second the archiver's bounded queue drops windows by
/// design, which is not the regime the windowed workload measures.
constexpr std::uint64_t kMinEpochPackets = std::uint64_t{1} << 19;
constexpr std::size_t kHistoryDepth = 4;
/// Engine query client think times. The ingest client asks rarely: every
/// snapshot() parks the worker for a merge, and that workload measures the
/// transport. The windowed client asks often enough that at most about one
/// query in five is the first after a rotation (which re-merges every sealed
/// window): its median then stays on the cached path and its tail on the
/// re-merge path.
constexpr int kIngestThinkMs = 250;
constexpr int kWindowedThinkMs = 50;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Largest |1 - traced self time / wall| accepted on any traced thread.
constexpr double kReconcileTolerance = 0.05;

pb::EngineSpec ingest_spec() {
  pb::EngineSpec s;
  s.algorithm = rhhh::AlgorithmKind::kTenRhhh;
  s.workers = 1;
  s.think_ms = kIngestThinkMs;
  return s;
}

pb::EngineSpec windowed_spec(double scale) {
  pb::EngineSpec s;
  s.algorithm = rhhh::AlgorithmKind::kRhhh;
  s.workers = 2;
  s.epoch_packets = std::max(
      kMinEpochPackets,
      static_cast<std::uint64_t>(static_cast<double>(kEpochPackets) * scale));
  s.history_depth = kHistoryDepth;
  s.think_ms = kWindowedThinkMs;
  return s;
}

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> m = {
      {"ingest_mpps", "Mpps"}, {"query_p50_ms", "ms"}, {"query_tail_ms", "ms"},
      {"setup_s", "s"},        {"rss_mb", "MiB"}};
  return m;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m = {
      {"net.parse_ns_per_pkt", "ns"},
      {"net.parse_errors", "count"},
      {"vswitch.process_self_ns_per_pkt", "ns"},
      {"vswitch.emc_hit_ratio", "ratio"},
      {"vswitch.unhooked_mpps", "Mpps"},
      {"hhh.update_ns_per_pkt", "ns"},
      {"hhh.update_batch_ns_per_pkt", "ns"},
      {"hhh.output_ms", "ms"},
      {"hhh.accuracy_error_ratio", "ratio"},
      {"hhh.coverage_error_ratio", "ratio"},
      {"hhh.false_positive_ratio", "ratio"},
      {"engine.producer_ns_per_pkt", "ns"},
      {"engine.backpressure_per_kpkt", "1/kpkt"},
      {"engine.transport_efficiency", "ratio"},
      {"engine.trend_snapshot_ms", "ms"},
      {"engine.trend_cache_hit_ratio", "ratio"},
      {"engine.quiesce_ms", "ms"},
      {"engine.rotation_ms", "ms"},
      {"engine.rotation_drift_us", "us"},
      {"engine.late_rotations", "count"},
      {"engine.worker_skew", "ratio"},
      {"store.append_ms", "ms"},
      {"store.bytes_per_window", "bytes"},
      {"store.open_ms", "ms"},
      {"store.merge_ms", "ms"},
      {"store.history_query_ms", "ms"},
      {"trace.overhead_share", "ratio"},
      {"trace.reconcile_error", "ratio"}};
  return m;
}

std::string preset_of(const std::string& workload) {
  return workload == "windowed-query" ? "sanjose14" : "chicago16";
}

/// The untraced measurement: the end-to-end metrics of one workload.
pb::Outcome measure(const Args& a) {
  pb::Outcome r;
  pb::RunOpts o;
  o.seconds = a.seconds;
  o.setups = kSetups;
  o.seed = a.seed;
  o.tmp_root = a.tmp_root;
  const std::string preset = preset_of(a.workload);
  // Figs. 2-4 scoring takes longer than the timed interval on chicago16, so
  // the untraced runs check answers against the certified bound only; the
  // windowed top-HHH check is cheap on sanjose14 and always runs.
  o.exact = a.workload == "windowed-query";
  if (a.workload == "dataplane-ovs") {
    const pb::Frames frames = pb::make_frames(
        preset, a.seed, static_cast<std::size_t>(kDataplaneFrames * a.scale), a.tmp_root);
    r.absorb(pb::run_dataplane(true, frames, o), "dataplane");
  } else {
    const auto keys =
        pb::make_keys(preset, a.seed, static_cast<std::size_t>(kEngineKeys * a.scale));
    const bool windowed = a.workload == "windowed-query";
    r.absorb(pb::run_engine(windowed ? windowed_spec(a.scale) : ingest_spec(), keys, o),
             windowed ? "windowed" : "ingest");
  }
  return r;
}

/// The traced measurement. The workload's own path runs with every other
/// lap traced (adjacent lap pairs give the tracing overhead); every layer
/// the path does not exercise is then measured by a short run of the path
/// that does, over this workload's own input, so each traced run reports
/// every per-layer metric.
pb::Outcome measure_traced(const Args& a, pb::Tracer& tracer) {
  pb::Outcome r;
  const std::string preset = preset_of(a.workload);
  const double s = a.seconds;
  pb::RunOpts o;
  o.seed = a.seed;
  o.tmp_root = a.tmp_root;
  o.setups = 1;

  const bool dataplane = a.workload == "dataplane-ovs";
  const bool windowed = a.workload == "windowed-query";
  const bool ingest = !dataplane && !windowed;
  const std::size_t n = dataplane ? static_cast<std::size_t>(kDataplaneFrames * a.scale)
                                  : static_cast<std::size_t>(kEngineKeys * a.scale);
  // The dataplane capture replays the first packets of the same stream the
  // keys come from, so every path below sees one input.
  const std::size_t nframes = std::min(n, static_cast<std::size_t>(kDataplaneFrames * a.scale));
  const auto keys = pb::make_keys(preset, a.seed, n);
  const pb::Frames frames = pb::make_frames(preset, a.seed, nframes, a.tmp_root);

  // The workload's own path, every other lap traced.
  pb::RunOpts oo = o;
  oo.seconds = 0.6 * s;
  oo.tracer = &tracer;
  oo.alternate = true;
  oo.lane_prefix = "own";
  oo.exact = true;
  const pb::Outcome traced =
      dataplane ? pb::run_dataplane(true, frames, oo)
                : pb::run_engine(windowed ? windowed_spec(a.scale) : ingest_spec(), keys, oo);
  r.absorb(traced, "traced");

  // Bare lattices on the bench thread: 10-RHHH (the dataplane hook's
  // per-packet update(), and the ingest engine's update_batch()) and, where
  // an RHHH engine runs, RHHH. The windowed workload scores its bare lattice;
  // the other two score their end-to-end answer above.
  pb::RunOpts lo = o;
  lo.seconds = 0.1 * s;
  const pb::Outcome ten = pb::probe_lattice(rhhh::AlgorithmKind::kTenRhhh, keys, lo);
  r.absorb(ten, "10-RHHH lattice");
  pb::Outcome one;
  if (!ingest) {
    lo.exact = windowed;
    one = pb::probe_lattice(rhhh::AlgorithmKind::kRhhh, keys, lo);
    r.absorb(one, "RHHH lattice");
  }
  r.m["hhh.update_ns_per_pkt"] = ten.m.at("hhh.update_ns_per_pkt");
  r.m["hhh.update_batch_ns_per_pkt"] =
      (windowed ? one : ten).m.at("hhh.update_batch_ns_per_pkt");
  double engine_mpps = dataplane ? 0.0 : traced.m.at("ingest_mpps");
  const double engine_bare = (ingest ? ten : one).m.at("hhh.bare_mpps");
  pb::RunOpts po = o;
  po.seconds = 0.15 * s;
  po.tracer = &tracer;
  if (!windowed) {
    po.lane_prefix = "probe.windowed";
    const pb::Outcome w = pb::run_engine(windowed_spec(a.scale), keys, po);
    r.absorb(w, "windowed probe");
    if (dataplane) engine_mpps = w.m.at("ingest_mpps");
  }
  if (!dataplane) {
    po.lane_prefix = "probe.dataplane";
    r.absorb(pb::run_dataplane(true, frames, po),
             "dataplane probe");
  }
  po.lane_prefix = "probe.unhooked";
  po.seconds = 0.1 * s;
  const pb::Outcome unhooked = pb::run_dataplane(false, frames, po);
  r.absorb(unhooked, "unhooked probe");

  r.m["vswitch.unhooked_mpps"] = unhooked.m.at("ingest_mpps");
  r.m["vswitch.process_self_ns_per_pkt"] =
      r.m.at("vswitch.process_ns_per_pkt") - r.m.at("hhh.update_ns_per_pkt");
  r.m["engine.transport_efficiency"] = engine_mpps / engine_bare;
  r.m["trace.reconcile_error"] = tracer.reconcile_error("");
  r.checks.push_back(pb::Check{
      "trace: self times reconcile with wall time",
      r.m["trace.reconcile_error"] <= kReconcileTolerance,
      std::to_string(r.m["trace.reconcile_error"]) + " <= " +
          std::to_string(kReconcileTolerance)});
  return r;
}

void print_layer_table(const pb::Tracer& tracer) {
  std::printf("# traced self time by thread (lane) and span:\n");
  for (const pb::Lane& l : tracer.lanes()) {
    if (l.end_ns <= l.begin_ns) continue;
    const double wall = static_cast<double>(l.end_ns - l.begin_ns);
    std::printf("#   %-22s wall %9.1f ms\n", l.name.c_str(), wall * 1e-6);
    for (const auto& [name, t] : tracer.totals(l.name)) {
      std::printf("#     %-28s self %9.1f ms  %5.1f%%  (%llu spans)\n", name.c_str(),
                  t.self_ns * 1e-6, 100.0 * t.self_ns / wall,
                  static_cast<unsigned long long>(t.count));
    }
  }
}

std::string json_number(const char* name, double v) {
  if (!std::isfinite(v)) throw std::logic_error(std::string("non-finite metric ") + name);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.workload != "ingest-10rhhh" && a.workload != "windowed-query" &&
        a.workload != "dataplane-ovs") {
      throw std::invalid_argument("unknown --workload '" + a.workload + "'");
    }
    std::filesystem::create_directories(a.out_dir);
    pb::Tracer tracer(a.trace);
    const pb::CpuSample c0 = pb::cpu_sample();
    pb::Outcome r = a.trace ? measure_traced(a, tracer) : measure(a);
    const pb::HostLoad load = pb::host_load(c0, pb::cpu_sample());

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0, a.scale);
    bool correct = true;
    for (const pb::Check& c : r.checks) {
      std::printf("# check %-4s %s (%s)\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                  c.detail.c_str());
      correct = correct && c.ok;
    }
    const std::vector<Metric>& names = a.trace ? per_layer_metrics() : end_to_end_metrics();
    std::printf("# %s metrics:\n", a.trace ? "per-layer" : "end-to-end");
    for (const Metric& m : names) {
      const auto it = r.m.find(m.name);
      if (it == r.m.end()) throw std::logic_error(std::string("metric not measured: ") + m.name);
      std::printf("#   %-34s %14.6f %s\n", m.name, it->second, m.unit);
    }
    if (!a.trace) {
      // The rest of the user-visible figures, printed for the reader.
      const auto show = [&](const char* name, const char* unit) {
        const auto it = r.m.find(name);
        if (it != r.m.end()) std::printf("#   %-34s %14.6f %s\n", name, it->second, unit);
      };
      std::printf("#   query tail is p%.1f of %.0f samples\n", r.m["query_tail_pct"],
                  r.m["query_samples"]);
      std::printf("#   %-34s %14.6f ratio (%llu of %llu)\n", "failed_share",
                  static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                  static_cast<unsigned long long>(r.failed),
                  static_cast<unsigned long long>(r.attempted));
      show("store.history_query_ms", "ms");
      show("hhh.accuracy_error_ratio", "ratio");
      show("hhh.coverage_error_ratio", "ratio");
      show("hhh.false_positive_ratio", "ratio");
    } else {
      print_layer_table(tracer);
      std::printf("# tracing overhead on ingest_mpps: %.2f%%\n",
                  100.0 * r.m["trace.overhead_share"]);
      const std::string path = a.out_dir + "/trace-" + a.workload + "-" +
                               std::to_string(a.seed) + ".json";
      tracer.write_json(path);
      std::printf("# spans written to %s\n", path.c_str());
    }
    std::printf("# host %s\n", pb::host_fingerprint_json(a.commit, load).c_str());

    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < names.size(); ++i) {
      const Metric& m = names[i];
      json += std::string(i ? ", " : "") + "\"" + m.name + "\": {\"value\": " +
              json_number(m.name, r.m.at(m.name)) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
