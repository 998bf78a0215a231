"""The four benchmark workloads: inputs made from a seed, CLI calls, and output oracles.

Each workload loads a different module of ``mcwc`` (see README.md).  A
workload is a ``Plan``: the CLI calls one fresh interpreter makes in order,
the files whose data rows must repeat exactly from one iteration to the next,
and a ``check`` that reads the outputs and returns one ``Check`` per oracle.
Oracles ignore ``#`` comment and manifest lines, so a change to manifest
parameters alone never fails them.

``size="tiny"`` gives the same workloads at a size the self-test can afford.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Plan:
    # Each call is {"label", "argv", "expect"} (expected exit code) or
    # {"label", "corrupt": {...}}, an untimed step that writes a damaged copy.
    calls: list[dict]
    repeat_files: list[str]
    check: Callable[[Path], list[Check]]
    quality: Callable[[Path], dict] = field(default=lambda workdir: {})
    # a in wall_ref_s = sum over calls of seconds * speed**a: how closely the
    # workload's time follows the speed probe's (see child.SpeedProbe).  It is
    # the slope of log call time on log probe speed, fitted over 11 to 19
    # iterations of each workload when the benchmark was defined.
    speed_exponent: float = 0.8


def data_lines(path: Path) -> list[str]:
    """Non-empty lines that are not ``#`` comments (manifest, provenance, buckets)."""
    with open(path) as f:
        return [ln.rstrip("\n") for ln in f if ln.strip() and not ln.startswith("#")]


def rows_digest(path: Path) -> str:
    return hashlib.sha256("\n".join(data_lines(path)).encode()).hexdigest()


# ---------- grid workloads (table) ----------

GRID = {
    # Clique search does most of this work: 9 searches exhaust the budget
    # (in 6 of those cells the other rules pin the value, or the incumbent
    # only meets their upper bound) and 33 run to completion.
    # Budgets from 12000 nodes up give the same cell values as the default.
    "grid_search": {
        "full": {"m": [1, 2], "n": list(range(2, 8)), "w": [1, 2, 3], "extra": ["--budget", "20000"]},
        "tiny": {"m": [1, 2], "n": list(range(2, 5)), "w": [1, 2], "extra": ["--budget", "20000"]},
    },
    # No search at all: Johnson recursions and concatenation candidates
    # (many verify_code calls on small codes) do the work.
    "grid_rules": {
        "full": {"m": [1, 2, 3, 4], "n": list(range(2, 10)), "w": [3, 4], "extra": ["--vertex-cap", "0"]},
        "tiny": {"m": [1, 2], "n": list(range(2, 6)), "w": [3, 4], "extra": ["--vertex-cap", "0"]},
    },
}


def _grid_argv(spec: dict, seed: int) -> list[str]:
    # The seed permutes the sweep order of n and w.  m stays ascending: the
    # embedding bound of an m > 1 cell reads the m = 1 cells computed before
    # it, so cell values do not depend on the order of n and w.
    rng = random.Random(seed)
    n_values, w_values = spec["n"][:], spec["w"][:]
    rng.shuffle(n_values)
    rng.shuffle(w_values)
    return [
        "table",
        "--m", ",".join(map(str, spec["m"])),
        "--n", ",".join(map(str, n_values)),
        "--w", ",".join(map(str, w_values)),
        *spec["extra"],
        "--out", "table.csv",
    ]


def read_table(path: Path) -> dict[tuple, tuple]:
    """cell -> (lower, upper, exact_flag); upper is math.inf when unbounded."""
    rows = {}
    reader = csv.reader(data_lines(path))
    header = next(reader)
    if header[:7] != ["m", "n", "d", "w", "lower", "upper", "exact_flag"]:
        raise ValueError(f"unexpected table header {header[:7]}")
    for rec in reader:
        cell = tuple(int(x) for x in rec[:4])
        upper = math.inf if rec[5] == "inf" else int(rec[5])
        rows[cell] = (int(rec[4]), upper, int(rec[6]))
    return rows


def read_reference_table(path: Path) -> dict[tuple, tuple]:
    with open(path) as f:
        reader = csv.reader(ln for ln in f if not ln.startswith("#"))
        next(reader)
        return {
            tuple(int(x) for x in rec[:4]): (int(rec[4]), math.inf if rec[5] == "inf" else int(rec[5]))
            for rec in reader
        }


def check_table(rows: dict, reference: dict) -> list[Check]:
    """Value-level oracles for a table against the values stored with the benchmark."""
    disordered = [c for c, (lo, hi, _) in rows.items() if lo > hi]
    bad_flag = [c for c, (lo, hi, ex) in rows.items() if ex != int(lo == hi)]
    missing = sorted(set(reference) - set(rows))
    extra = sorted(set(rows) - set(reference))
    lowered = [c for c in rows if c in reference and rows[c][0] < reference[c][0]]
    raised = [c for c in rows if c in reference and rows[c][1] > reference[c][1]]

    def first(cells):
        return f"{len(cells)} cells, first {cells[0]}" if cells else ""

    return [
        Check("table.lower_le_upper", not disordered, first(disordered)),
        Check("table.exact_flag", not bad_flag, first(bad_flag)),
        Check("table.cells_match_reference", not missing and not extra,
              f"missing {first(missing)} extra {first(extra)}" if missing or extra else ""),
        Check("table.lower_not_below_reference", not lowered, first(lowered)),
        Check("table.upper_not_above_reference", not raised, first(raised)),
    ]


def table_quality(rows: dict) -> dict:
    finite = [hi for _, hi, _ in rows.values() if hi != math.inf]
    return {
        "table.cells": len(rows),
        "table.exact_cells": sum(ex for _, _, ex in rows.values()),
        "table.lower_log2_sum": sum(math.log2(lo) for lo, _, _ in rows.values()),
        "table.upper_log2_sum": sum(math.log2(hi) for hi in finite),
    }


def _grid_plan(name: str, seed: int, size: str, workdir: Path) -> Plan:
    ref_path = REFERENCE_DIR / f"{name}-{size}.csv"

    def check(wd: Path) -> list[Check]:
        return check_table(read_table(wd / "table.csv"), read_reference_table(ref_path))

    return Plan(
        calls=[{"label": "table", "argv": _grid_argv(GRID[name][size], seed), "expect": 0}],
        repeat_files=["table.csv"],
        check=check,
        quality=lambda wd: table_quality(read_table(wd / "table.csv")),
    )


# ---------- construct ----------

CONSTRUCT = {
    # rs_plain is bound by GF(64) multiplication; rs_expand by exhaustive
    # q-ary and binary verification of 11^3 = 1331 words (885k pairs each).
    "full": {"plain": ["--q", "64", "--len", "16", "--d", "15"],
             "expand": ["--q", "11", "--len", "3", "--d", "1", "--expand", "--w", "1"]},
    "tiny": {"plain": ["--q", "8", "--len", "8", "--d", "7"],
             "expand": ["--q", "5", "--len", "3", "--d", "1", "--expand", "--w", "1"]},
}


def word_set_digest(path: Path) -> dict:
    """Order-free fingerprint of a code file's word set."""
    words = sorted(data_lines(path))
    return {"words": len(words), "sha256": hashlib.sha256("\n".join(words).encode()).hexdigest()}


def corrupt_code_file(src: Path, dst: Path, word: int, bit: int) -> None:
    """Copy a code file with one bit of one word flipped (breaks its weight profile)."""
    lines = src.read_text().splitlines(keepends=True)
    idx = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")]
    i = idx[word % len(idx)]
    text = lines[i].rstrip("\n")
    b = bit % len(text)
    lines[i] = text[:b] + ("1" if text[b] == "0" else "0") + text[b + 1:] + "\n"
    dst.write_text("".join(lines))


def check_construct(outputs: dict[str, dict], reference: dict) -> list[Check]:
    return [
        Check(f"construct.{name}_word_set", outputs.get(name) == want,
              "" if outputs.get(name) == want else f"got {outputs.get(name)} want {want}")
        for name, want in sorted(reference.items())
    ]


CONSTRUCT_FILES = {"rs_plain": "rs_plain.txt", "rs_expand": "rs_expand.txt"}


def _construct_plan(seed: int, size: str, workdir: Path) -> Plan:
    rng = random.Random(seed)
    spec = CONSTRUCT[size]
    ref_path = REFERENCE_DIR / f"construct-{size}.json"

    def check(wd: Path) -> list[Check]:
        outputs = {name: word_set_digest(wd / f) for name, f in CONSTRUCT_FILES.items()}
        return check_construct(outputs, json.loads(ref_path.read_text()))

    return Plan(
        calls=[
            {"label": "rs_plain", "argv": ["construct", "rs", *spec["plain"], "--out", "rs_plain.txt"], "expect": 0},
            {"label": "rs_expand", "argv": ["construct", "rs", *spec["expand"], "--out", "rs_expand.txt"], "expect": 0},
            {"label": "corrupt", "corrupt": {"src": "rs_expand.txt", "dst": "rs_bad.txt",
                                             "word": rng.randrange(1 << 30), "bit": rng.randrange(1 << 30)}},
            {"label": "verify_good", "argv": ["verify", "rs_expand.txt"], "expect": 0},
            {"label": "verify_bad", "argv": ["verify", "rs_bad.txt"], "expect": 1},
        ],
        repeat_files=list(CONSTRUCT_FILES.values()),
        check=check,
    )


# ---------- puf ----------

PUF_NOISE = 1e-3
PUF = {
    # many_pairs: the per-pair loop and RNG stream spawns dominate.
    # many_trials: few pairs, long noise draws; RNG throughput dominates.
    "full": {"many_pairs": {"n": 16, "w": 2, "m": 2, "words": 192, "trials": 2000},
             "many_trials": {"n": 4, "w": 2, "m": 2, "words": 16, "trials": 300000}},
    "tiny": {"many_pairs": {"n": 8, "w": 2, "m": 2, "words": 24, "trials": 500},
             "many_trials": {"n": 4, "w": 2, "m": 2, "words": 8, "trials": 20000}},
}


def random_profile_words(rng: random.Random, m: int, n: int, w: int, count: int) -> list[int]:
    rows = [sum(1 << (n - 1 - j) for j in c) for c in itertools.combinations(range(n), w)]
    if count > len(rows) ** m:
        raise ValueError("more words requested than the profile has")
    words: set[int] = set()
    while len(words) < count:
        word = 0
        for _ in range(m):
            word = (word << n) | rng.choice(rows)
        words.add(word)
    return sorted(words)


def write_code_file(path: Path, words: list[int], m: int, n: int, w: int) -> None:
    profile = ",".join([f"{n}:{w}"] * m)
    with open(path, "w") as f:
        f.write(f"# code q=2 len={m * n} d=2 profile={profile}\n")
        for word in words:
            f.write(format(word, f"0{m * n}b") + "\n")


def _delays(device: dict, words: list[int], m: int, n: int) -> list[float]:
    mu = np.asarray(device["mu"], dtype=float)  # (m, 2)
    eps = np.asarray(device["eps"], dtype=float)  # (m, n, 2)
    bits = np.array(
        [[(word >> (m * n - 1 - k)) & 1 for k in range(m * n)] for word in words], dtype=np.intp
    ).reshape(len(words), m, n)
    rows = np.arange(m)[None, :, None]
    cols = np.arange(n)[None, None, :]
    per_element = mu[rows, bits] + eps[rows, cols, bits]
    return [float(x) for x in per_element.reshape(len(words), -1).sum(axis=1)]


def read_sweep(path: Path) -> list[tuple[int, int, float]]:
    lines = data_lines(path)
    if lines[0] != "pair_index,distance,flip_rate":
        raise ValueError(f"unexpected sweep header {lines[0]!r}")
    out = []
    for ln in lines[1:]:
        idx, dist, rate = ln.split(",")
        out.append((int(idx), int(dist), float(rate)))
    return out


def check_sweep(part: str, rows: list, words: list[int], delays: list[float],
                trials: int, sigma: float) -> list[Check]:
    """Closed-form oracle: a pair flips with probability Phi(-|D|/(sigma*sqrt(2)))."""
    pairs = list(itertools.combinations(range(len(words)), 2))
    shape_ok = len(rows) == len(pairs) and all(
        r[0] == k and r[1] == (words[i] ^ words[j]).bit_count()
        for k, (r, (i, j)) in enumerate(zip(rows, pairs))
    )
    checks = [Check(f"puf.{part}.rows", shape_ok, "" if shape_ok else "pair index or distance mismatch")]
    if not shape_ok:
        return checks
    tie_bad, pair_bad = [], []
    expected = variance = observed = 0.0
    for (k, _, rate), (i, j) in zip(rows, pairs):
        delta = delays[i] - delays[j]
        if math.isnan(rate) != (delta == 0.0):
            tie_bad.append(k)
            continue
        if delta == 0.0:
            continue
        p = 0.5 * math.erfc(abs(delta) / (2.0 * sigma))
        count = round(rate * trials)
        mean, var = trials * p, trials * p * (1.0 - p)
        # 7 sigma plus a small absolute slack for pairs with tiny p.
        if abs(count - mean) > 7.0 * math.sqrt(var) + 3.0:
            pair_bad.append(k)
        expected += mean
        variance += var
        observed += count
    total_ok = abs(observed - expected) <= 5.0 * math.sqrt(variance) + 1.0
    return checks + [
        Check(f"puf.{part}.ties", not tie_bad, f"pairs {tie_bad[:5]}" if tie_bad else ""),
        Check(f"puf.{part}.pair_flips_binomial", not pair_bad,
              f"{len(pair_bad)} pairs, first {pair_bad[:5]}" if pair_bad else ""),
        Check(f"puf.{part}.total_flips_binomial", total_ok,
              f"observed {observed:.0f} expected {expected:.1f} sd {math.sqrt(variance):.1f}"),
    ]


def _puf_plan(seed: int, size: str, workdir: Path) -> Plan:
    rng = random.Random(seed)
    calls, parts = [], {}
    for part, spec in PUF[size].items():
        words = random_profile_words(rng, spec["m"], spec["n"], spec["w"], spec["words"])
        write_code_file(workdir / f"{part}.txt", words, spec["m"], spec["n"], spec["w"])
        parts[part] = (spec, words)
        calls.append({
            "label": part,
            "argv": ["puf-sim", "--code", f"{part}.txt", "--trials", str(spec["trials"]),
                     "--noise", str(PUF_NOISE), "--s-eps", "1e-3", "--seed", str(rng.randrange(1 << 31)),
                     "--save-device", f"{part}_device.json", "--out", f"{part}.csv"],
            "expect": 0,
        })

    def check(wd: Path) -> list[Check]:
        out = []
        for part, (spec, words) in parts.items():
            device = json.loads((wd / f"{part}_device.json").read_text())
            delays = _delays(device, words, spec["m"], spec["n"])
            out += check_sweep(part, read_sweep(wd / f"{part}.csv"), words, delays,
                               spec["trials"], PUF_NOISE)
        return out

    # Most of puf's time is numpy's C code, which slows less than Python does.
    return Plan(calls=calls, repeat_files=[f"{p}.csv" for p in parts], check=check,
                speed_exponent=0.55)


# ---------- registry ----------

WORKLOADS = ("grid_search", "grid_rules", "construct", "puf")


def make_plan(name: str, seed: int, size: str, workdir: Path) -> Plan:
    """Write the workload's inputs into workdir and return its plan."""
    if name in GRID:
        return _grid_plan(name, seed, size, workdir)
    if name == "construct":
        return _construct_plan(seed, size, workdir)
    if name == "puf":
        return _puf_plan(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


def write_reference(name: str, size: str, workdir: Path) -> Path | None:
    """Store the values this commit produced in workdir as the workload's reference."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    if name in GRID:
        rows = read_table(workdir / "table.csv")
        path = REFERENCE_DIR / f"{name}-{size}.csv"
        with open(path, "w") as f:
            f.write("m,n,d,w,lower,upper\n")
            for cell in sorted(rows):
                lo, hi, _ = rows[cell]
                f.write(",".join(map(str, cell)) + f",{lo},{'inf' if hi == math.inf else hi}\n")
        return path
    if name == "construct":
        path = REFERENCE_DIR / f"construct-{size}.json"
        digests = {n: word_set_digest(workdir / f) for n, f in CONSTRUCT_FILES.items()}
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return path
    return None
