"""Benchmark of the mcwc CLI: one workload per invocation, every output checked.

    python3 bench/run.py --workload grid_search --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout; it imports ``mcwc`` from ``src/``.  Each
iteration is a fresh interpreter (``child.py``) that imports ``mcwc.cli`` and
makes the workload's CLI calls through ``mcwc.cli.main``.  Iterations run one
after another, never two at once, until ``--seconds`` is used up (at least
two untraced iterations, so every output is seen to repeat).  A few extra
interpreters only import ``mcwc.cli`` to sample set-up time.

``--trace 0`` reports the end-to-end metrics, medians over iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of standard output is the result object; the line before it holds the
environment and the failure details.  The exit code is 1 when an output check
or a CLI call failed, and 2, with no result printed, when the program cannot
be found or started.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, Check, make_plan, rows_digest

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every child is stopped before the run reaches this
SETUP_PROBES = 5
# a in setup_s = raw set-up time * speed**a (see child.SpeedProbe): the slope
# of log set-up time on log probe speed over 238 set-up children when the
# benchmark was defined (0.45 and 0.47 in two fits).  Import is partly file
# reads and C extension loading, which slow less than Python does.
SETUP_SPEED_EXPONENT = 0.45
MIN_UNTRACED = 2

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "gf.mul_calls": "count",
    "gf.mul_per_s": "1/s",
    "gf.field_make_s": "s",
    "codes.verify_calls": "count",
    "codes.verify_pairs": "count",
    "codes.verify_s": "s",
    "codes.verify_binary_pairs_per_s": "1/s",
    "codes.verify_qary_pairs_per_s": "1/s",
    "codes.io_s": "s",
    "constructions.reed_solomon_s": "s",
    "constructions.qary_expand_s": "s",
    "constructions.concatenate_s": "s",
    "constructions.rs_mcwc_calls": "count",
    "constructions.rs_mcwc_duplicate_calls": "count",
    "bounds.johnson_general_calls": "count",
    "bounds.johnson_general_s": "s",
    "bounds.tightness_exact_s": "s",
    "bounds.evaluate_cell_self_s": "s",
    "bounds.exact_search_self_s": "s",
    "clique.searches": "count",
    "clique.searches_exhausted": "count",
    "clique.nodes": "count",
    "clique.max_clique_s": "s",
    "clique.nodes_per_s": "1/s",
    "clique.nodes_per_s_v1000": "1/s",
    "clique.pinned_nodes_ratio": "ratio",
    "pufsim.sweep_s": "s",
    "pufsim.pairs_per_s": "1/s",
    "pufsim.noise_samples_per_s": "1/s",
    "pufsim.usable_pairs_ratio": "ratio",
    "pufsim.device_new_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "table.cells": "count",
    "table.exact_cells": "count",
    "table.lower_log2_sum": "bits",
    "table.upper_log2_sum": "bits",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The program cannot be run at all; no result is printed."""


class Runner:
    """Starts child interpreters strictly one at a time."""

    def __init__(self, root: Path, workdir: Path, started: float):
        self.root = root
        self.workdir = workdir
        self.started = started
        self.live = 0
        self.max_live = 0
        self.spawned = 0

    def child(self, job: dict) -> dict | None:
        """Run one child; returns its result, or None if it crashed or timed out."""
        if self.live:
            raise BenchError("a child is already running")
        job = dict(job, src=str(self.root / "src"), workdir=str(self.workdir))
        job["result"] = str(self.workdir / f"result{self.spawned}.json")
        job_path = self.workdir / f"job{self.spawned}.json"
        job_path.write_text(json.dumps(job))
        self.spawned += 1
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        self.live += 1
        self.max_live = max(self.max_live, self.live)
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                env=env, cwd=self.root, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None
        finally:
            self.live -= 1
        if proc.returncode == 3:
            raise BenchError(proc.stderr.strip())
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        result = json.loads(Path(job["result"]).read_text())
        result["setup_raw_s"] = result["import_done"] - spawn - result["import_probe_s"]
        result["setup_s"] = result["setup_raw_s"] * result["import_speed"] ** SETUP_SPEED_EXPONENT
        return result


def environment(root: Path, args, versions: dict, runner: Runner, iterations: int) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mcwc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": iterations,
        "children_started": runner.spawned,
        "max_children_alive": runner.max_live,
    }


def measure(args, root: Path, workdir: Path) -> tuple[dict, list[Check], dict]:
    """Run the iterations; returns (samples, checks, extra details)."""
    started = time.monotonic()
    runner = Runner(root, workdir, started)
    plan = make_plan(args.workload, args.seed, args.size, workdir)
    checks: list[Check] = []
    samples = {"setup_s": [], "setup_raw_s": [], "wall_s": [], "wall_ref_s": [], "speed": [],
               "peak_rss_mb": [], "traced_wall_s": [], "traced_wall_ref_s": [], "import_s": [],
               "layers": []}
    versions: dict = {}

    # Warm-up: the first import in a fresh checkout also compiles bytecode.
    for k in range(SETUP_PROBES + 1):
        res = runner.child({"setup_only": True, "trace": False, "calls": [], "run_id": ""})
        if res is None:
            raise BenchError("a set-up probe failed")
        versions = res["versions"]
        if k:
            samples["setup_s"].append(res["setup_s"])
            samples["setup_raw_s"].append(res["setup_raw_s"])

    digests: dict[str, str] = {}
    quality: dict = {}
    untraced = traced = 0
    durations: list[float] = []
    while True:
        traced_now = bool(args.trace) and untraced > traced
        run_id = f"{args.workload}:{args.seed}:{untraced + traced}:{os.getpid()}"
        t0 = time.monotonic()
        res = runner.child({"setup_only": False, "trace": traced_now,
                            "calls": plan.calls, "run_id": run_id})
        durations.append(time.monotonic() - t0)
        if res is None:
            checks.append(Check("child.completed", False, f"iteration {untraced + traced} crashed or timed out"))
            break
        samples["setup_s"].append(res["setup_s"])
        samples["setup_raw_s"].append(res["setup_raw_s"])
        expected = {c["label"]: c["expect"] for c in plan.calls if "argv" in c}
        for call in res["calls"]:
            want = expected[call["label"]]
            checks.append(Check(f"call.{call['label']}", call["rc"] == want,
                                f"exit {call['rc']}, expected {want}" if call["rc"] != want else ""))
        try:
            checks += plan.check(workdir)
            for name in plan.repeat_files:
                digest = rows_digest(workdir / name)
                if name in digests:
                    checks.append(Check(f"repeat.{name}", digest == digests[name],
                                        "" if digest == digests[name] else "data rows differ from iteration 0"))
                digests.setdefault(name, digest)
            if not quality:
                quality = plan.quality(workdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks.append(Check("outputs.readable", False, f"{type(exc).__name__}: {exc}"))
        wall_ref = sum(c["seconds"] * c["speed"] ** plan.speed_exponent for c in res["calls"])
        if traced_now:
            traced += 1
            samples["traced_wall_s"].append(res["wall_s"])
            samples["traced_wall_ref_s"].append(wall_ref)
            samples["import_s"].append(res["import_s"])
            trace = res["trace"]
            labels = {int(k): v for k, v in trace["call_labels"].items()}
            samples["layers"].append(layer_metrics(trace, labels))
        else:
            untraced += 1
            samples["wall_s"].append(res["wall_s"])
            samples["wall_ref_s"].append(wall_ref)
            samples["speed"].append([round(c["speed"], 4) for c in res["calls"]])
            samples["peak_rss_mb"].append(res["peak_rss_mb"])
        elapsed = time.monotonic() - started
        enough = untraced >= MIN_UNTRACED and (not args.trace or traced >= MIN_UNTRACED)
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed + durations[-1] > RUN_LIMIT_S - 10:
            break
    checks.append(Check("children.sequential", runner.max_live == 1,
                        "" if runner.max_live == 1 else f"{runner.max_live} children alive at once"))
    details = {"environment": environment(root, args, versions, runner, untraced + traced),
               "quality": quality}
    return samples, checks, details


def summarize(args, samples: dict, quality: dict) -> dict[str, float]:
    med = statistics.median
    if not args.trace:
        return {"wall_ref_s": med(samples["wall_ref_s"]), "setup_s": med(samples["setup_s"]),
                "peak_rss_mb": med(samples["peak_rss_mb"])}
    layers = samples["layers"]
    metrics = {name: med(layer[name] for layer in layers) for name in layers[0]}
    metrics["cli.import_s"] = med(samples["import_s"])
    metrics["trace.overhead_s"] = med(samples["traced_wall_ref_s"]) - med(samples["wall_ref_s"])
    for name in ("table.cells", "table.exact_cells", "table.lower_log2_sum", "table.upper_log2_sum"):
        metrics[name] = quality.get(name, 0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same workloads at self-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mcwc" / "cli.py").is_file():
        print("error: run from a checkout of mcwc: src/mcwc/cli.py not found", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        samples, checks, details = measure(args, root, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    failed = [c for c in checks if not c.ok]
    units = PER_LAYER if args.trace else END_TO_END
    complete = samples["layers"] if args.trace else samples["wall_s"]
    metrics = summarize(args, samples, details["quality"]) if complete else {}
    details.update({
        "fail_ratio": len(failed) / len(checks),
        "fail_ratio_base": f"{len(checks)} operations: CLI calls and output checks "
                           f"over {details['environment']['iterations']} iterations",
        "failures": [f"{c.name}: {c.detail}" for c in failed[:20]],
        "samples": {k: samples[k] for k in ("wall_s", "wall_ref_s", "speed", "traced_wall_s",
                                            "traced_wall_ref_s", "setup_s", "setup_raw_s",
                                            "peak_rss_mb")},
    })
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
