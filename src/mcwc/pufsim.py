"""Loop-PUF delay simulation: flip rates of pairs of control words under measurement noise.

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
reliability sweep, pair k draws from the stream SeedSequence(seed).spawn(P)[k].
The Philox keys of all pairs are derived at once, in one numpy pass of
SeedSequence's hash, and each worker thread (one per usable CPU, or one
alone below SHARED_MIN_TRIALS trials per pair) re-keys one generator of its
own for every pair, so the result does not depend on the worker count or on
the order in which blocks of pairs finish.
check_sweep_size caps a sweep's memory and work (MAX_TRIALS, MAX_PAIR_TRIALS)
before any draw.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import workers as workers_mod
from .codes import BinaryCode, CodeError, distance_tiles

QUANTUM = 2.0**-30
# A sweep worker draws its pairs in blocks of about BLOCK_TRIALS trials, or one
# pair when its trials are more.  It holds one float64 noise row and a bool mask
# per trial of the block, and the second noise rows, or the chunks of one pair's
# second row, in BLOCK_TRIALS float64: at most 9 bytes per trial plus 8 x
# BLOCK_TRIALS bytes, so MAX_TRIALS bounds a worker at ~9.3 MB.  MAX_PAIR_TRIALS
# bounds the sweep's work: each pair, tied or not, is charged its trials plus
# PAIR_SETUP_TRIALS for its re-keying and Python objects.  On a 2-core Xeon VM
# these take ~8 us per pair on one worker and ~12 us on two, the time of 150 to
# 450 trials, so the charge keeps a margin; a 1-trial sweep is capped at ~666k pairs.
BLOCK_TRIALS = 1 << 15
MAX_TRIALS = 1_000_000
MAX_PAIR_TRIALS = 1_000_000_000
PAIR_SETUP_TRIALS = 1_500
# Re-keying holds the interpreter lock, so a second worker thread pays only once
# each pair has enough trials to draw without it.  On the same VM two workers
# took 1.03x the time of one at 384 trials per pair and 0.87x at 416 (2.0x at
# 1 trial); a sweep of fewer trials than this runs on one worker.
SHARED_MIN_TRIALS = 400


class ModelError(ValueError):
    pass


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(x, dtype=float) / QUANTUM) * QUANTUM


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ModelError(f"seed must be nonnegative, got {seed}")


@dataclass(frozen=True)
class DelayModel:
    """One simulated device: shared row means plus device-specific offsets."""

    mu: np.ndarray  # (m, 2): average delay of a row element under bit 0 / bit 1
    eps: np.ndarray  # (m, n, 2): per-element offsets, fixed for the device lifetime

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    @property
    def n(self) -> int:
        return self.eps.shape[1]


def _frozen_model(mu: np.ndarray, eps: np.ndarray) -> DelayModel:
    if not (np.isfinite(mu).all() and np.isfinite(eps).all()):
        raise ModelError("delays must be finite")
    model = DelayModel(mu, eps)
    model.mu.setflags(write=False)
    model.eps.setflags(write=False)
    return model


def device_new(m: int, n: int, mu_spec=1.0, s_eps: float = 1e-3, seed: int = 0) -> DelayModel:
    """Draw one device.  mu_spec is deterministic: a scalar, a (mu0, mu1) pair,
    or a full (m, 2) array; eps is seed-dependent with scale s_eps.  The device
    holds no noise scale: a sweep takes its noise from the caller."""
    if m < 1 or n < 1:
        raise ModelError(f"bad grid {m} x {n}")
    if not 0.0 <= s_eps < math.inf:
        raise ModelError(f"offset scale must be finite and nonnegative, got {s_eps}")
    _check_seed(seed)
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
    return _frozen_model(_quantize(mu), _quantize(eps))


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


@dataclass(frozen=True, slots=True)
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
    SeedSequence(seed), on one worker thread per usable CPU (one alone below
    SHARED_MIN_TRIALS trials); the result is the same for any worker count.
    """
    return _sweep(dev, code, noise_sigma, trials, seed, workers_mod.usable_cpus())


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
    if not 0.0 <= noise_sigma < math.inf:
        raise ModelError(f"noise scale must be finite and nonnegative, got {noise_sigma}")
    _check_seed(seed)
    words = code.words
    delays = np.array([measure_delay(dev, word_matrix(dev, code, wd)) for wd in words])
    first, second = np.triu_indices(len(words), 1)  # the pairs in combinations order
    refs = delays[first] - delays[second]
    # In that order too: row r of a tile pairs its word with the later words c >= r.
    distances = np.concatenate([np.empty(0, int)] + [
        dist[np.triu_indices(len(dist), 0, dist.shape[1])] for _, dist in distance_tiles(words, later=True)
    ])
    usable = refs != 0.0
    flips = np.zeros(len(refs), dtype=np.int64)
    if noise_sigma > 0.0:
        jobs = np.flatnonzero(usable)
        flips[jobs] = _count_flips(jobs, refs[jobs], noise_sigma, trials, seed, workers)
    rates = np.where(usable, flips / trials, np.nan)
    pairs = tuple(map(PairReliability, range(len(refs)), first.tolist(), second.tolist(),
                      distances.tolist(), usable.tolist(), rates.tolist()))
    bucket_means = {dist: float(np.mean(rates[usable & (distances == dist)]))
                    for dist in np.unique(distances[usable]).tolist()}
    return SweepResult(pairs, bucket_means, noise_sigma, trials, seed)


def _count_flips(jobs, refs, noise_sigma, trials, seed, workers) -> np.ndarray:
    """Flip counts of the pairs jobs (pair indices) with reference gaps refs, on at most `workers` threads.

    The Philox keys of all pairs are derived at once.  Workers take blocks of
    pairs from one shared iterator, each re-keys one generator of its own per
    pair, and each writes only its blocks' counts.  numpy draws with the
    interpreter lock released, so the workers share no lock but the
    iterator's.  Once a worker raises, the others stop at their next block;
    the first error is raised here after every worker has ended.
    """
    keys = _philox_keys(seed, jobs)
    counts = np.zeros(len(jobs), dtype=np.int64)
    per_block = max(1, BLOCK_TRIALS // trials)
    blocks = range(0, len(jobs), per_block)
    workers = min(workers if trials >= SHARED_MIN_TRIALS else 1, len(blocks))
    if workers == 0:
        return counts
    from concurrent.futures import ThreadPoolExecutor

    pending = iter(blocks)
    lock = threading.Lock()
    failed = threading.Event()

    def work() -> None:
        try:
            gen = np.random.Generator(np.random.Philox(0))  # re-keyed for every pair
            first = np.empty((per_block, trials))
            second = np.empty((per_block, min(trials, BLOCK_TRIALS)))
            mask = np.empty((per_block, trials), dtype=bool)
            while not failed.is_set():
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                block = slice(start, start + per_block)
                _flip_block(gen, keys[block], refs[block], noise_sigma, first, second, mask, counts[block])
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(workers, thread_name_prefix="mcwc-sweep") as pool:
        futures = [pool.submit(work) for _ in range(workers)]
        try:
            for future in futures:
                future.result()
        except BaseException:  # stop the others at their next block; the pool waits for them
            failed.set()
            raise
    return counts


def _flip_block(gen, keys, refs, noise_sigma, first, second, mask, out) -> None:
    """Set out[r] to the count of trials in which pair r (key keys[r], gap refs[r]) loses the sign of its gap.

    Pair r's stream fills row r of `first`, then row r of `second`, or, when
    its trials outnumber the width of `second` (a block of one pair), the
    second row in chunks of that width.  standard_normal fills sequentially,
    so these are the values of one (2, trials) draw.  The steps below are the
    float operations of (ref + sigma*n0) - sigma*n1 in that order, scaling
    standard normals in place is bit-equal to normal(0, sigma), and
    multiplying by the sign of ref is exact, so the counts match a per-pair
    loop exactly.
    """
    count, trials = len(keys), first.shape[1]
    chunk = second.shape[1]
    noisy, flipped = first[:count], mask[:count]
    zero = np.zeros(4, dtype=np.uint64)
    keyed = {"counter": zero}
    state = {"bit_generator": "Philox", "state": keyed, "buffer": zero, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for r in range(count):
        keyed["key"] = keys[r]
        gen.bit_generator.state = state
        gen.standard_normal(out=noisy[r])
        if chunk == trials:
            gen.standard_normal(out=second[r])
    noisy *= noise_sigma
    noisy += refs[:, None]
    if chunk == trials:
        noise = second[:count]
        noise *= noise_sigma
        noisy -= noise
    else:  # count == 1: the generator goes on with the second row, one chunk at a time
        for start in range(0, trials, chunk):
            noise = second[0, :trials - start]  # at most chunk wide
            gen.standard_normal(out=noise)
            noise *= noise_sigma
            noisy[0, start:start + len(noise)] -= noise
    noisy *= np.sign(refs)[:, None]
    np.less_equal(noisy, 0.0, out=flipped)
    out[:] = flipped.sum(axis=1, dtype=np.int32)  # trials <= MAX_TRIALS < 2^31


def _philox_keys(seed: int, pairs: np.ndarray) -> np.ndarray:
    """Philox key of each pair k: SeedSequence(seed, spawn_key=(k,)).generate_state(2, np.uint64).

    NumPy's SeedSequence algorithm, run on uint32 arrays: the seed's 32-bit
    words, zero-padded to the pool size of 4, then k, are hashed into a pool
    of 4 words, and 4 output words are hashed from the pool.  Every step before
    k is mixed in is the same for all pairs, so the arrays broadcast from one
    entry to all pairs there.
    """
    pairs = np.asarray(pairs)
    assert pairs.size == 0 or pairs.max() < 1 << 32, "a spawn key past 32 bits"  # the caps keep k < 666k
    mask32 = 0xFFFF_FFFF
    seed = int(seed)
    words = [np.array([seed >> shift & mask32], dtype=np.uint32)
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [np.zeros(1, dtype=np.uint32)] * (4 - len(words)) + [pairs.astype(np.uint32)]

    def hasher(const, mult):  # each call hashes with the next constant of its sequence
        def hash_(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & mask32
            value = value * np.uint32(const)
            return value ^ value >> np.uint32(16)
        return hash_

    def mix(x, y):
        value = x * np.uint32(0xCA01_F9DD) - y * np.uint32(0x4973_F715)
        return value ^ value >> np.uint32(16)

    hashmix = hasher(0x43B0_D7E5, 0x931E_8875)
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = map(hasher(0x8B51_F9DD, 0x58F3_8DED), pool)  # generate_state's 4 output words
    state = np.stack(np.broadcast_arrays(*state), axis=1).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)  # little-endian word pairs


# ---------- device files (JSON, round-trip exact via repr floats) ----------

def device_save(path, dev: DelayModel) -> None:
    import json

    payload = {
        "m": dev.m,
        "n": dev.n,
        "mu": dev.mu.tolist(),
        "eps": dev.eps.tolist(),
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def device_load(path) -> DelayModel:
    """Read a device_save file; the noise_sigma and seed entries of older versions are ignored."""
    import json

    with open(path) as f:
        try:
            payload = json.load(f)
            m, n = payload["m"], payload["n"]
            mu = np.array(payload["mu"], dtype=float)
            eps = np.array(payload["eps"], dtype=float)
        except KeyError as exc:
            raise ModelError(f"device file {path} has no {exc} entry") from None
        except (TypeError, ValueError) as exc:
            raise ModelError(f"device file {path} is malformed: {exc}") from None
    if mu.shape != (m, 2) or eps.shape != (m, n, 2):
        raise ModelError("device file shapes are inconsistent")
    return _frozen_model(mu, eps)
