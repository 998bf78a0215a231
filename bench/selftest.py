"""Self-test of the benchmark: tiny runs, metric names, and oracles that must fire.

    python3 -m pytest -q bench/selftest.py

Run from the root of a checkout.  The file name keeps it out of the repo's
own test collection; it takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER, Runner
from workloads import (
    WORKLOADS,
    check_table,
    make_plan,
    read_reference_table,
    REFERENCE_DIR,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    env = details["environment"]
    assert env["seed"] == 5 and env["max_children_alive"] == 1
    assert env["nproc"] and env["python"] and env["numpy"]
    samples = details["samples"]
    assert len(samples["wall_s"]) == len(samples["wall_ref_s"]) == len(samples["speed"]) >= 2
    assert all(s > 0 for per_call in samples["speed"] for s in per_call)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "puf", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------- oracles fire on damaged outputs ----------

def _run_plan(name: str, workdir: Path):
    plan = make_plan(name, 7, "tiny", workdir)
    res = Runner(ROOT, workdir, time.monotonic()).child(
        {"setup_only": False, "trace": False, "calls": plan.calls, "run_id": "selftest"})
    assert {c["label"]: c["rc"] for c in res["calls"]} == {
        c["label"]: c["expect"] for c in plan.calls if "argv" in c}
    return plan


def _failed(checks) -> set[str]:
    return {c.name for c in checks if not c.ok}


def test_table_oracle_fires_on_lowered_lower_and_raised_upper():
    ref = read_reference_table(REFERENCE_DIR / "grid_search-tiny.csv")
    rows = {cell: (lo, hi, int(lo == hi)) for cell, (lo, hi) in ref.items()}
    assert not _failed(check_table(rows, ref))
    cell = next(c for c, (lo, hi) in ref.items() if lo > 1 and lo == hi)
    lo, hi, _ = rows[cell]
    lowered = dict(rows)
    lowered[cell] = (lo - 1, hi, 0)
    assert "table.lower_not_below_reference" in _failed(check_table(lowered, ref))
    raised = dict(rows)
    raised[cell] = (lo, hi + 1, 0)
    assert "table.upper_not_above_reference" in _failed(check_table(raised, ref))
    bad_flag = dict(rows)
    bad_flag[cell] = (lo, hi, 0)
    assert _failed(check_table(bad_flag, ref)) == {"table.exact_flag"}
    missing = dict(rows)
    missing.pop(cell)
    assert _failed(check_table(missing, ref)) == {"table.cells_match_reference"}


def test_construct_oracle_fires_on_a_changed_rs_word(tmp_path):
    plan = _run_plan("construct", tmp_path)
    assert not _failed(plan.check(tmp_path))
    path = tmp_path / "rs_plain.txt"
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    symbols = lines[i].split(",")
    symbols[0] = str((int(symbols[0]) + 1) % 8)
    lines[i] = ",".join(symbols)
    path.write_text("\n".join(lines) + "\n")
    assert _failed(plan.check(tmp_path)) == {"construct.rs_plain_word_set"}


def test_puf_oracle_fires_on_a_zeroed_flip_count(tmp_path):
    plan = _run_plan("puf", tmp_path)
    assert not _failed(plan.check(tmp_path))
    path = tmp_path / "many_trials.csv"
    lines = path.read_text().splitlines()
    rows = [k for k, ln in enumerate(lines) if ln[:1].isdigit()]
    k = max(rows, key=lambda r: float(lines[r].split(",")[2]))
    idx, dist, _ = lines[k].split(",")
    lines[k] = f"{idx},{dist},0"
    path.write_text("\n".join(lines) + "\n")
    assert "puf.many_trials.pair_flips_binomial" in _failed(plan.check(tmp_path))
    for r in rows:
        idx, dist, _ = lines[r].split(",")
        lines[r] = f"{idx},{dist},0"
    path.write_text("\n".join(lines) + "\n")
    assert "puf.many_trials.total_flips_binomial" in _failed(plan.check(tmp_path))
