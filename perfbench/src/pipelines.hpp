// The three measured paths, driven through the library's public API only:
//
//   run_engine()    producer -> SPSC ring -> worker lattices, with a
//                   closed-loop query client beside ingest; optionally
//                   windowed (rotation + K-deep history) and archived to a
//                   segment store.
//   run_dataplane() parse_frame -> Datapath::process (EMC -> megaflow) with
//                   an HhhHook, or without one as the unmodified reference.
//   probe_lattice() the bare lattice on the calling thread: per-packet
//                   update() and update_batch() cost over the same keys.
//
// Each returns what it measured as named values plus the correctness checks
// it ran; main.cpp composes them into workloads.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/monitor.hpp"

namespace perfbench {

/// Accuracy parameter and HHH threshold shared by every workload. The
/// threshold is chosen so every answer the workloads ask for is past the
/// point where RHHH's sampling correction, 2 Z sqrt(N V), exceeds theta N
/// (about 1.3M packets for 10-RHHH): below it every counter qualifies and
/// output() returns tens of thousands of candidates in seconds.
inline constexpr double kEps = 1e-3;
inline constexpr double kTheta = 0.1;

/// A capture held in memory: frames back to back, offsets[i]..offsets[i+1].
struct Frames {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offsets{0};
  [[nodiscard]] std::size_t size() const noexcept { return offsets.size() - 1; }
  [[nodiscard]] std::span<const std::uint8_t> frame(std::size_t i) const noexcept {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// `n` 2D (src, dst) keys of a trace preset; `seed` perturbs the preset.
[[nodiscard]] std::vector<rhhh::Key128> make_keys(const std::string& preset,
                                                  std::uint64_t seed, std::size_t n);
/// The first `n` packets of the same stream as 64-byte frames, written as a
/// pcap capture under a fresh temp directory and read back.
[[nodiscard]] Frames make_frames(const std::string& preset, std::uint64_t seed,
                                 std::size_t n, const std::string& tmp_root);

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// What one pipeline run measured: named values (end-to-end and per-layer
/// names alike), operation counts, and the checks it ran.
struct Outcome {
  std::map<std::string, double> m;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
  /// Adds `o`'s counts and checks (names prefixed with `tag`), and those of
  /// its values not already set here.
  void absorb(const Outcome& o, const std::string& tag) {
    for (const auto& [k, v] : o.m) m.try_emplace(k, v);
    attempted += o.attempted;
    failed += o.failed;
    for (const Check& c : o.checks) checks.push_back(Check{tag + ": " + c.name, c.ok, c.detail});
  }
};

struct RunOpts {
  double seconds = 10;      ///< timed steady-state interval
  int setups = 3;           ///< set-ups measured (the last one is kept)
  std::uint64_t seed = 1;   ///< lattice RNG seed
  Tracer* tracer = nullptr; ///< non-null: record spans
  /// With a tracer: trace every other lap only, and report the tracing
  /// overhead from adjacent lap pairs as trace.overhead_share.
  bool alternate = false;
  std::string lane_prefix;  ///< lane names start with this
  std::string tmp_root;     ///< where per-process temp directories go
  /// Run the checks that need the exact HHH set (ExactHhh::compute, seconds
  /// per run): the error ratios of the paper's Figs. 2-4 and, on a windowed
  /// engine, the top exact HHHs in every sealed window.
  bool exact = false;
};

struct EngineSpec {
  rhhh::AlgorithmKind algorithm = rhhh::AlgorithmKind::kTenRhhh;
  std::uint32_t workers = 1;
  /// 0: no windows, and queries use snapshot(). Otherwise windows rotate
  /// every epoch_packets and every sealed window is archived.
  std::uint64_t epoch_packets = 0;
  std::size_t history_depth = 1;
  int think_ms = 100;               ///< query client pause between queries
};

[[nodiscard]] Outcome run_engine(const EngineSpec& spec,
                                 const std::vector<rhhh::Key128>& keys,
                                 const RunOpts& o);

/// `hooked` false: the unmodified switch (no hook, so no queries either).
/// With the hook, output() is asked every 100 ms between frame chunks.
[[nodiscard]] Outcome run_dataplane(bool hooked, const Frames& frames, const RunOpts& o);

/// Bare lattice of `algorithm` on this thread over whole laps of `keys`
/// for about `seconds`: hhh.update_ns_per_pkt, hhh.update_batch_ns_per_pkt,
/// hhh.bare_mpps, and (with o.exact) the error ratios of the batched
/// lattice's answer.
[[nodiscard]] Outcome probe_lattice(rhhh::AlgorithmKind algorithm,
                                    const std::vector<rhhh::Key128>& keys,
                                    const RunOpts& o);

}  // namespace perfbench
