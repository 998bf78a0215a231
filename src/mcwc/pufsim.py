"""Loop-PUF delay simulation: challenge-response generation and reliability sweeps.

The device is an m x n grid of delay elements.  Element (i, j) under control
bit b contributes mu[i, b] + eps[i, j, b]: a row-and-bit average delay shared
by all devices plus a device-specific offset drawn once at manufacture.  The
measured delay of a control word is the sum over all elements, optionally
with per-measurement Gaussian noise.

Model delays are quantized to a dyadic grid (multiples of 2^-30) at device
creation, so every noise-free sum is exact in double precision regardless of
summation order: statements like "the deterministic delay difference is
exactly zero" are then bit-level facts, not tolerance checks.

Randomness uses the counter-based Philox generator with explicit seeds.  In a
reliability sweep, pair k draws from the stream SeedSequence(seed).spawn(P)[k],
built directly from its spawn key, so the pairs are drawn on worker threads
(one per usable CPU) and the result does not depend on the worker count or on
the order in which pairs finish.  check_sweep_size caps a sweep's memory and
work (MAX_TRIALS, MAX_PAIR_TRIALS) before any draw.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .codes import BinaryCode, CodeError, distance_tiles

QUANTUM = 2.0**-30
# Each sweep worker holds 17 bytes per trial (two float64 noise rows and a bool
# mask), so MAX_TRIALS bounds a worker at 17 MB.  MAX_PAIR_TRIALS bounds the
# sweep's work: each pair, tied or not, is charged its trials plus
# PAIR_SETUP_TRIALS for its ~50 us of generator set-up and Python objects (about
# the time of 1,500 trials), so a 1-trial sweep is capped at ~666k pairs.
MAX_TRIALS = 1_000_000
MAX_PAIR_TRIALS = 1_000_000_000
PAIR_SETUP_TRIALS = 1_500


class ModelError(ValueError):
    pass


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(x, dtype=float) / QUANTUM) * QUANTUM


def _check_noise_and_seed(noise_sigma: float, seed: int) -> None:
    if not 0.0 <= noise_sigma < math.inf:
        raise ModelError(f"noise scale must be finite and nonnegative, got {noise_sigma}")
    if seed < 0:
        raise ModelError(f"seed must be nonnegative, got {seed}")


@dataclass(frozen=True)
class DelayModel:
    """One simulated device: shared row means plus device-specific offsets."""

    mu: np.ndarray  # (m, 2): average delay of a row element under bit 0 / bit 1
    eps: np.ndarray  # (m, n, 2): per-element offsets, fixed for the device lifetime
    noise_sigma: float  # default per-measurement noise scale
    seed: int

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    @property
    def n(self) -> int:
        return self.eps.shape[1]


def _frozen_model(mu: np.ndarray, eps: np.ndarray, noise_sigma: float, seed: int) -> DelayModel:
    if not (np.isfinite(mu).all() and np.isfinite(eps).all()):
        raise ModelError("delays must be finite")
    model = DelayModel(mu, eps, float(noise_sigma), int(seed))
    model.mu.setflags(write=False)
    model.eps.setflags(write=False)
    return model


def device_new(
    m: int,
    n: int,
    mu_spec=1.0,
    s_eps: float = 1e-3,
    seed: int = 0,
    noise_sigma: float = 0.0,
) -> DelayModel:
    """Draw one device.  mu_spec is deterministic: a scalar, a (mu0, mu1) pair,
    or a full (m, 2) array; eps is seed-dependent with scale s_eps."""
    if m < 1 or n < 1:
        raise ModelError(f"bad grid {m} x {n}")
    if not 0.0 <= s_eps < math.inf:
        raise ModelError(f"offset scale must be finite and nonnegative, got {s_eps}")
    _check_noise_and_seed(noise_sigma, seed)
    spec = np.asarray(mu_spec, dtype=float)
    if spec.ndim == 0:
        mu = np.full((m, 2), float(spec))
    elif spec.shape == (2,):
        mu = np.tile(spec, (m, 1))
    elif spec.shape == (m, 2):
        mu = spec.copy()
    else:
        raise ModelError(f"mu_spec shape {spec.shape} not scalar, (2,) or ({m}, 2)")
    eps = _rng(seed).normal(0.0, 1.0, size=(m, n, 2)) * s_eps if s_eps > 0 else np.zeros((m, n, 2))
    return _frozen_model(_quantize(mu), _quantize(eps), noise_sigma, seed)


def word_matrix(dev: DelayModel, code: BinaryCode, word: np.ndarray) -> np.ndarray:
    """Control word (a packed row) as an (m, n) 0/1 array; the code blocks must match the grid."""
    if code.profile is None:
        raise CodeError("code carries no weight profile")
    if code.profile.m != dev.m or any(n_i != dev.n for n_i, _ in code.profile.parts):
        raise ModelError(
            f"code profile {code.profile.describe()} does not fit a {dev.m} x {dev.n} device"
        )
    return np.unpackbits(word, count=code.length).reshape(dev.m, dev.n).astype(np.intp)


def measure_delay(dev: DelayModel, bits: np.ndarray) -> float:
    """Noise-free delay of a control word: sum of mu[i, b] + eps[i, j, b] over the grid."""
    bits = np.asarray(bits)
    if bits.shape != (dev.m, dev.n):
        raise ModelError(f"control word shape {bits.shape} != ({dev.m}, {dev.n})")
    rows = np.arange(dev.m)[:, None]
    cols = np.arange(dev.n)[None, :]
    return float(np.sum(dev.mu[rows, bits] + dev.eps[rows, cols, bits]))


def mu_delay(dev: DelayModel, row_weights: Sequence[int]) -> float:
    """Deterministic part of the delay: sum of (n-w_i)*mu_i(0) + w_i*mu_i(1)."""
    if len(row_weights) != dev.m:
        raise ModelError(f"expected {dev.m} row weights, got {len(row_weights)}")
    total = 0.0
    for i, w_i in enumerate(row_weights):
        total += (dev.n - w_i) * dev.mu[i, 0] + w_i * dev.mu[i, 1]
    return total


def deterministic_difference(dev: DelayModel, bits_u: np.ndarray, bits_v: np.ndarray) -> float:
    """mu-part of D(u) - D(v): exactly 0 whenever u and v share row weights."""
    wu = [int(x) for x in np.asarray(bits_u).sum(axis=1)]
    wv = [int(x) for x in np.asarray(bits_v).sum(axis=1)]
    return mu_delay(dev, wu) - mu_delay(dev, wv)


@dataclass(frozen=True)
class ChallengeResponse:
    u_index: int
    v_index: int
    response: int | None  # +1 / -1, or None for an unusable (tied) pair
    usable: bool


def generate_crps(dev: DelayModel, code: BinaryCode) -> list[ChallengeResponse]:
    """All |C|(|C|-1) ordered pairs with noise-free reference responses.

    Exact zero differences are flagged unusable instead of being signed; a
    real enrollment would discard such pairs.
    """
    delays = [measure_delay(dev, word_matrix(dev, code, wd)) for wd in code.words]
    out = []
    for i in range(len(delays)):
        for j in range(len(delays)):
            if i == j:
                continue
            diff = delays[i] - delays[j]
            if diff == 0.0:
                out.append(ChallengeResponse(i, j, None, False))
            else:
                out.append(ChallengeResponse(i, j, 1 if diff > 0 else -1, True))
    return out


@dataclass(frozen=True)
class PairReliability:
    pair_index: int
    u_index: int
    v_index: int
    distance: int
    usable: bool
    flip_rate: float


@dataclass(frozen=True)
class SweepResult:
    pairs: tuple[PairReliability, ...]
    bucket_means: dict[int, float]  # distance -> mean flip rate over usable pairs
    noise_sigma: float
    trials: int
    seed: int


def reliability_sweep(
    dev: DelayModel,
    code: BinaryCode,
    noise_sigma: float,
    trials: int,
    seed: int = 0,
) -> SweepResult:
    """Monte-Carlo flip rates per unordered pair, bucketed by Hamming distance.

    Each trial re-measures both words with independent noise and compares the
    sign against the noise-free reference.  Pair k draws from child k of
    SeedSequence(seed), on one worker thread per usable CPU; the result is the
    same for any worker count.
    """
    return _sweep(dev, code, noise_sigma, trials, seed, _usable_cpus())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def check_sweep_size(word_count: int, trials: int) -> None:
    """Raise ModelError unless a sweep of word_count words at trials per pair fits the caps."""
    if trials < 1:
        raise ModelError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ModelError(f"{trials} trials per pair exceeds MAX_TRIALS ({MAX_TRIALS})")
    pair_count = word_count * (word_count - 1) // 2
    if pair_count * (trials + PAIR_SETUP_TRIALS) > MAX_PAIR_TRIALS:
        raise ModelError(
            f"{pair_count} pairs x ({trials} trials + {PAIR_SETUP_TRIALS} set-up) "
            f"exceeds MAX_PAIR_TRIALS ({MAX_PAIR_TRIALS})"
        )


def _sweep(dev, code, noise_sigma, trials, seed, workers) -> SweepResult:
    """reliability_sweep on at most `workers` threads."""
    check_sweep_size(len(code.words), trials)
    _check_noise_and_seed(noise_sigma, seed)
    words = code.words
    pair_count = len(words) * (len(words) - 1) // 2
    matrices = [word_matrix(dev, code, wd) for wd in words]
    delays = [measure_delay(dev, mat) for mat in matrices]

    pair_list = list(combinations(range(len(words)), 2))
    # In pair_list order: row r of a tile pairs its word with the later words c >= r.
    distances = [d for _, dist in distance_tiles(words, later=True)
                 for d in dist[np.triu_indices(len(dist), 0, dist.shape[1])].tolist()]
    refs = [delays[i] - delays[j] for i, j in pair_list]
    flips = [0] * pair_count
    if noise_sigma > 0.0:
        jobs = [(idx, ref) for idx, ref in enumerate(refs) if ref != 0.0]
        _count_flips(jobs, flips, noise_sigma, trials, seed, workers)
    pairs = []
    sums: dict[int, list[float]] = {}
    for idx, ((i, j), ref, dist) in enumerate(zip(pair_list, refs, distances)):
        if ref == 0.0:
            pairs.append(PairReliability(idx, i, j, dist, False, float("nan")))
            continue
        flip_rate = flips[idx] / trials
        pairs.append(PairReliability(idx, i, j, dist, True, flip_rate))
        sums.setdefault(dist, []).append(flip_rate)

    bucket_means = {dist: float(np.mean(rates)) for dist, rates in sorted(sums.items())}
    return SweepResult(tuple(pairs), bucket_means, noise_sigma, trials, seed)


def _count_flips(jobs, flips, noise_sigma, trials, seed, workers) -> None:
    """Set flips[idx] for every (idx, ref) job, on at most `workers` threads.

    Workers take jobs from one shared iterator and write only their jobs'
    entries.  numpy draws with the interpreter lock released and each pair has
    its own bit generator, so the workers share no lock but the iterator's.
    Once a worker raises, the others stop at their next job; the first error
    is raised here after every worker has ended.
    """
    workers = min(workers, len(jobs))
    if workers == 0:
        return
    from concurrent.futures import ThreadPoolExecutor

    pending = iter(jobs)
    lock = threading.Lock()
    failed = threading.Event()

    def work() -> None:
        buf = np.empty((2, trials))
        mask = np.empty(trials, dtype=bool)
        try:
            while not failed.is_set():
                with lock:
                    job = next(pending, None)
                if job is None:
                    return
                idx, ref = job
                flips[idx] = _pair_flips(seed, idx, ref, noise_sigma, buf, mask)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(workers, thread_name_prefix="mcwc-sweep") as pool:
        futures = [pool.submit(work) for _ in range(workers)]
        try:
            errors = [f.exception() for f in futures]
        except BaseException:  # interrupted while waiting: stop the workers early too
            failed.set()
            raise
    for exc in errors:
        if exc is not None:
            raise exc


def _pair_flips(seed, idx, ref, noise_sigma, buf, mask) -> int:
    """Trials (columns of buf) in which pair idx's noisy difference loses the sign of ref.

    standard_normal scaled in place is bit-equal to normal(0, noise_sigma),
    and the difference is formed as (ref + n0) - n1, as a plain expression
    would, so the counts match an unthreaded loop exactly.
    """
    stream = np.random.SeedSequence(seed, spawn_key=(idx,))  # == .spawn(P)[idx]
    np.random.Generator(np.random.Philox(stream)).standard_normal(out=buf)
    buf *= noise_sigma
    noisy = buf[0]
    noisy += ref
    noisy -= buf[1]
    if ref > 0.0:
        np.less_equal(noisy, 0.0, out=mask)
    else:
        np.greater_equal(noisy, 0.0, out=mask)
    return int(np.count_nonzero(mask))


# ---------- device files (JSON, round-trip exact via repr floats) ----------

def device_save(path, dev: DelayModel) -> None:
    import json

    payload = {
        "m": dev.m,
        "n": dev.n,
        "mu": dev.mu.tolist(),
        "eps": dev.eps.tolist(),
        "noise_sigma": dev.noise_sigma,
        "seed": dev.seed,
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def device_load(path) -> DelayModel:
    import json

    with open(path) as f:
        try:
            payload = json.load(f)
            m, n = payload["m"], payload["n"]
            mu = np.array(payload["mu"], dtype=float)
            eps = np.array(payload["eps"], dtype=float)
            noise_sigma = float(payload["noise_sigma"])
            seed = int(payload["seed"])
        except KeyError as exc:
            raise ModelError(f"device file {path} has no {exc} entry") from None
        except (TypeError, ValueError) as exc:
            raise ModelError(f"device file {path} is malformed: {exc}") from None
    if mu.shape != (m, 2) or eps.shape != (m, n, 2):
        raise ModelError("device file shapes are inconsistent")
    _check_noise_and_seed(noise_sigma, seed)
    return _frozen_model(mu, eps, noise_sigma, seed)
