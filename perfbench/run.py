#!/usr/bin/env python3
"""Build and run the steady-state benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench (and the library it links,
from ../src) into .bench_build/ (or $CARGO_TARGET_DIR); later calls rebuild
only what changed. The benchmark's own output is passed through: its last
stdout line is the JSON result, its exit code is nonzero when a correctness
check fails. --self-check runs every workload at a tiny scale, traced and
untraced, and checks that each prints exactly the metrics BENCHMARK.json
names, with their units. dataplane-ovs runs like the others but is not
in BENCHMARK.json: its figures follow the shared host's cache and memory
contention too closely to hold a bound (see README.md).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["ingest-10rhhh", "windowed-query", "dataplane-ovs"]
# The benchmark process must finish well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = build_dir() / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed; see " + str(log))
    return out / "perfbench"


def source_revision() -> str:
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def remove_stale_temp_dirs() -> None:
    """Remove temp dirs (named perfbench-<pid>-*) of processes that are gone."""
    for d in (build_dir() / "tmp").glob("perfbench-*-*"):
        try:
            os.kill(int(d.name.split("-")[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def run(binary: Path, workload: str, seed: int, seconds: float, trace: int,
        scale: float = 1.0, capture: bool = False) -> subprocess.CompletedProcess:
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", str(scale),
           "--tmp-root", str(build_dir() / "tmp"),
           "--out-dir", str(build_dir() / "results"),
           "--commit", source_revision()]
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                          capture_output=capture)


def self_check(binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        fail("BENCHMARK.json names a workload outside " + ", ".join(WORKLOADS))
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run(binary, workload, seed=7, seconds=1, trace=trace, scale=0.02,
                    capture=True)
            problems = []
            try:
                res = json.loads(r.stdout.strip().splitlines()[-1])
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(res)}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"metrics {got} != {wanted[trace]}")
                if res["correct"] is not True or res["attempted"] < 1:
                    problems.append("correct/attempted")
            except (ValueError, IndexError, KeyError, TypeError) as e:
                problems.append(f"no parsable result ({e})")
            if r.returncode != 0:
                problems.append(f"exit code {r.returncode}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-check {workload} trace={trace}: {status}")
            if problems:
                bad += 1
                sys.stderr.write(r.stdout[-3000:] + r.stderr[-3000:])
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and a.workload is None:
        ap.error("--workload is required")
    binary = build()
    remove_stale_temp_dirs()
    if a.self_check:
        return self_check(binary)
    sys.stdout.flush()
    return run(binary, a.workload, a.seed, a.seconds, a.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
