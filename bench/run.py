#!/usr/bin/env python3
"""Benchmark harness for the `revival` CLI.

    python3 bench/run.py --workload series|fields|billiards --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout (the harness puts its `src/` on the
children's PYTHONPATH). Closed loop, one client: every op of the
workload (workloads.py) runs as its own cold process, one after another,
in an order shuffled by the seed; a pass is one run of every op plus the
workload's untimed probes. Passes repeat while another one fits in
`--seconds`. Each op's output is checked (checks.py) and must be
byte-identical to every earlier run of the same source tree (digests
kept under `.bench_run/`).

--trace 0 prints the end-to-end metrics (medians over passes):
    wall_s       wall time of the pass's timed ops
    cpu_s        user + system CPU time of those op processes (wait4)
    peak_rss_mb  largest max-RSS of one op process
    setup_s      median of cold `import revival.cli` + build_scenario of
                 the workload's first scenario, without running it
    pass_ratio   passed / attempted over timed ops and probes (1 - error ratio)
--trace 1 alternates an untraced pass with a traced one, where each op
runs in-process under bench/tracer.py, and prints the per-layer metrics.

The last line of stdout is the result object; the line before it holds
the details (machine context, per-op times, failures, known defects).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import LAYERS, PROBES, WORKLOADS, Op, overrides, setup_op  # noqa: E402

SETUP_REPEATS = 7
OP_TIMEOUT_S = 120.0
THREADS = "2"  # the load model: never more than 2 worker threads (BLAS included)
RUN_DIR = ".bench_run"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "specfun.zero_calls": "count",
    "packets.kept_ratio": "ratio",
    "dynamics.phase_products": "count",
    "dynamics.big_phase_products": "count",
    "dynamics.ns_per_product": "ns",
    "wavefields.grid_points": "count",
    "wavefields.ns_per_point": "ns",
    "billiards.root_s": "s",
    "serialize.bytes": "B",
    "serialize.mb_per_s": "MB/s",
    "trace_overhead_s": "s",
}


# ----------------------------------------------------------------------
# running one op
# ----------------------------------------------------------------------

class Runner:
    """Runs ops as child processes and keeps the per-run state: output
    digests, cached check results, failures."""

    def __init__(self, root: Path, work: Path, reference: dict, checker: "Checker"):
        self.checker = checker
        self.root = root
        self.work = work
        self.reference = reference  # op name -> digest for this source tree
        self.verdicts: dict[tuple[str, str], tuple[list, list]] = {}
        self.env = child_env(root)
        self.count = 0

    def _spawn(self, cmd: list[str], log_dir: Path) -> dict:
        """Run to completion; wall time and the child's own rusage."""
        with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
            steal0 = _steal_s()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            steal = _steal_s() - steal0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "steal_s": steal,
            "rc": proc.returncode,
        }

    def run(self, op: Op, traced: bool) -> dict:
        self.count += 1
        log_dir = self.work / f"{self.count:04d}-{op.name}"
        out_dir = log_dir / "out"
        out_dir.mkdir(parents=True)
        child = [sys.executable, str(BENCH_DIR / "child.py")]
        trace_path = log_dir / "trace.json"
        if traced:
            cmd = child + ["trace", str(out_dir), str(trace_path), *op.argv]
        elif op.lib:
            cmd = child + ["lib", str(out_dir), *op.argv]
        else:
            cmd = [sys.executable, "-m", "revival.cli", *op.argv, "--out", str(out_dir)]
        res = self._spawn(cmd, log_dir)
        res["op"] = op.name
        res["failures"], res["known_defects"] = self._verify(op, out_dir, log_dir, res["rc"])
        if traced and trace_path.exists():
            res["trace"] = json.loads(trace_path.read_text())
        shutil.rmtree(out_dir)
        return res

    def _verify(self, op: Op, out_dir: Path, log_dir: Path, rc: int) -> tuple[list, list]:
        if rc != 0:
            tail = (log_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            return [f"exit {rc}: {' '.join(tail)}"], []
        digest = _digest(out_dir)
        key = (op.name, digest)
        if key not in self.verdicts:
            self.verdicts[key] = self.checker.check(op.name, out_dir)
        failures, known = self.verdicts[key]
        failures = list(failures)
        first = self.reference.setdefault(op.name, digest)
        if first != digest:
            failures.append(f"output differs from an earlier run of this source tree "
                            f"({digest[:12]} != {first[:12]})")
        return failures, known

    def setup_time(self, op: Op) -> tuple[float, int]:
        """One cold import of revival.cli plus build_scenario of `op`."""
        self.count += 1
        log_dir = self.work / f"{self.count:04d}-setup"
        log_dir.mkdir(parents=True)
        code = ("import json, sys\nimport revival.cli as cli\n"
                "cli.build_scenario(sys.argv[1], json.loads(sys.argv[2]), sys.argv[3])\n")
        cmd = [sys.executable, "-c", code, op.argv[0], json.dumps(overrides(op)),
               str(log_dir / "out")]
        res = self._spawn(cmd, log_dir)
        return res["wall_s"], res["rc"]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + prior if prior else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


class Checker:
    """checks.py in a process of its own (it imports numpy, scipy and
    mpmath). The harness itself imports none of them: a child's max-RSS
    starts from the RSS of the process that forked it, so a large
    harness would leak into every op's peak_rss_mb."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "checks.py")], cwd=root, env=child_env(root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the output checker exited")
        return json.loads(line)

    def check(self, name: str, out_dir: Path) -> tuple[list, list]:
        reply = self._ask({"op": name, "dir": str(out_dir)})
        return reply["failures"], reply["known"]

    def environment(self) -> dict:
        return self._ask({"environment": True})

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _steal_s() -> float:
    """CPU time the hypervisor took from this machine (all CPUs), from
    /proc/stat; 0 where that is not available."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        return 0.0


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# passes and metrics
# ----------------------------------------------------------------------

def run_pass(runner: Runner, ops, probes, rng: random.Random, traced: bool) -> dict:
    order = list(ops)
    rng.shuffle(order)
    timed = [runner.run(op, traced) for op in order]
    untimed = [runner.run(op, False) for op in probes]
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in timed),
        "cpu_s": sum(r["cpu_s"] for r in timed),
        "peak_rss_mb": max(r["rss_mb"] for r in timed),
        "steal_s": sum(r["steal_s"] for r in timed),
        "ops": timed,
        "probes": untimed,
    }


def layer_metrics(traced_passes: list[dict]) -> dict:
    """Per-layer metrics of each traced pass (summed over its ops); the
    median over passes."""
    per_pass = []
    for p in traced_passes:
        tot: dict[str, float] = {}
        for r in p["ops"]:
            for key, val in r.get("trace", {}).items():
                tot[key] = tot.get(key, 0) + val
        m = {key: tot.get(key, 0) for key in PER_LAYER if key in tot}
        products = tot.get("dynamics.phase_products", 0)
        points = tot.get("wavefields.grid_points", 0)
        computed = tot.get("packets.modes_computed", 0)
        write_s = tot.get("serialize.write_s", 0.0)
        m["packets.kept_ratio"] = tot.get("packets.modes_kept", 0) / computed if computed else 0.0
        m["dynamics.ns_per_product"] = (
            1e9 * tot.get("dynamics.self_s", 0.0) / products if products else 0.0)
        m["wavefields.ns_per_point"] = (
            1e9 * tot.get("wavefields.self_s", 0.0) / points if points else 0.0)
        m["serialize.mb_per_s"] = tot.get("serialize.bytes", 0) / 1e6 / write_s if write_s else 0.0
        per_pass.append(m)
    out = {}
    for key in PER_LAYER:
        vals = [m[key] for m in per_pass if key in m]
        out[key] = statistics.median(vals) if vals else 0
    return out


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def context(root: Path, checker: Checker) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **checker.environment(),
        "blas_threads": int(THREADS),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": _source_digest(root),
        "src_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            ops=None, probes=None, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run the workload; returns (result, details). `ops` and `probes`
    default to the workload's own (the self-test passes shrunken ones)."""
    ops = WORKLOADS[workload] if ops is None else ops
    probes = PROBES[workload] if probes is None else probes
    store_dir = root / RUN_DIR
    store_dir.mkdir(exist_ok=True)
    store = store_dir / "digests.json"
    src_sha = _source_digest(root)
    digests = json.loads(store.read_text()) if store.exists() else {}
    reference = digests.setdefault(src_sha, {})
    work = store_dir / f"run-{os.getpid()}"
    work.mkdir()
    checker = Checker(root)
    try:
        env = context(root, checker)  # also waits until the checker has its imports
        runner = Runner(root, work, reference, checker)
        rng = random.Random(seed)
        setup, setup_failures = [], []
        if not trace:
            first = setup_op(workload)
            for _ in range(setup_repeats):
                wall, rc = runner.setup_time(first)
                setup.append(wall)
                if rc != 0:
                    setup_failures.append(f"setup exit {rc}")
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(runner, ops, probes, rng, traced=False))
            if trace:
                passes.append(run_pass(runner, ops, probes, rng, traced=True))
            elapsed = time.perf_counter() - start
            iterations = len(passes) // (2 if trace else 1)
            if elapsed + elapsed / iterations > seconds:
                break
    finally:
        checker.close()
        shutil.rmtree(work, ignore_errors=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
        os.replace(tmp, store)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    timed = [r for p in passes for r in p["ops"]]
    probe_runs = [r for p in passes for r in p["probes"]]
    timed_failed = sum(1 for r in timed if r["failures"])
    probe_failed = sum(1 for r in probe_runs if r["failures"])
    runs = len(timed) + len(probe_runs)
    if trace:
        metrics = layer_metrics(traced)
        metrics["trace_overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "setup_s": statistics.median(setup),
            "pass_ratio": (runs - timed_failed - probe_failed) / runs,
        }
        units = END_TO_END
    result = {
        "correct": timed_failed == 0 and not setup_failures,
        "attempted": len(timed) + len(setup),
        "failed": timed_failed + len(setup_failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    per_op: dict[str, dict] = {}
    for r in (r for p in plain for r in p["ops"]):
        entry = per_op.setdefault(r["op"], {"wall_s": [], "cpu_s": [], "rss_mb": [], "steal_s": []})
        for key in ("wall_s", "cpu_s", "rss_mb", "steal_s"):
            entry[key].append(round(r[key], 4))
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "context": env,
        "passes": len(plain),
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "traced_pass_wall_s": [round(p["wall_s"], 4) for p in traced],
        "pass_cpu_s": [round(p["cpu_s"], 4) for p in plain],
        "pass_steal_s": [round(p["steal_s"], 4) for p in plain],
        "setup_s": [round(s, 4) for s in setup],
        "ops": per_op,
        "error_ratio": (timed_failed + probe_failed) / runs,
        "failures": sorted({f"{r['op']}: {f}" for r in timed for f in r["failures"]}
                           | set(setup_failures)),
        "probes": sorted({f"{r['op']}: {'; '.join(r['failures']) or 'passed'}" for r in probe_runs}),
        "known_defects": sorted({f"{r['op']}: {f}" for r in timed for f in r["known_defects"]}),
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "revival" / "cli.py").is_file():
        print(f"no revival source tree under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
