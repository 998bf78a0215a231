"""Delay-model tests: exact decomposition identities and reliability statistics."""

import math
import sys
import threading
from itertools import combinations

import numpy as np
import pytest

from mcwc import pufsim
from mcwc.codes import BinaryCode, WeightProfile
from mcwc.designs import affine_plane, design_to_mcwc
from mcwc.pufsim import (
    MAX_PAIR_TRIALS,
    MAX_TRIALS,
    PAIR_SETUP_TRIALS,
    ModelError,
    PairReliability,
    SweepResult,
    check_sweep_size,
    deterministic_difference,
    device_load,
    device_new,
    device_save,
    generate_crps,
    measure_delay,
    mu_delay,
    reliability_sweep,
    word_matrix,
)

MCWC_242 = design_to_mcwc(affine_plane(2)).code  # 3-word MCWC(2,4,4,2)


def all_words_code(m, n, w):
    from itertools import combinations, product

    blocks = []
    for support in combinations(range(n), w):
        blocks.append(sum(1 << (n - 1 - j) for j in support))
    words = []
    for rows in product(blocks, repeat=m):
        word = 0
        for row in rows:
            word = (word << n) | row
        words.append(word)
    return BinaryCode.from_words(words, m * n, 2, WeightProfile.homogeneous(m, n, w))


def test_device_determinism():
    a = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=11)
    b = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=11)
    assert np.array_equal(a.eps, b.eps) and np.array_equal(a.mu, b.mu)
    c = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=12)
    assert not np.array_equal(a.eps, c.eps)


def test_zero_spread_devices_identical():
    a = device_new(3, 5, 1.0, s_eps=0.0, seed=1)
    b = device_new(3, 5, 1.0, s_eps=0.0, seed=2)
    assert np.array_equal(a.eps, b.eps)


def test_bad_parameters():
    with pytest.raises(ModelError):
        device_new(0, 4)
    with pytest.raises(ModelError):
        device_new(2, 4, np.zeros((3, 3)))
    with pytest.raises(ModelError):
        device_new(2, 4, 1.0, s_eps=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s_eps": math.nan},
        {"s_eps": math.inf},
        {"noise_sigma": math.nan},
        {"noise_sigma": math.inf},
        {"mu_spec": (math.nan, 1.05)},
        {"mu_spec": (1.0, math.inf)},
        {"seed": -1},
    ],
)
def test_device_new_rejects_non_finite_and_negative_seed(kwargs):
    with pytest.raises(ModelError):
        device_new(2, 4, **kwargs)


@pytest.mark.parametrize(
    "noise, trials, seed",
    [(math.nan, 10, 0), (math.inf, 10, 0), (1e-3, 10, -1), (1e-3, MAX_TRIALS + 1, 0)],
)
def test_sweep_rejects_bad_input(noise, trials, seed):
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=8)
    with pytest.raises(ModelError):
        reliability_sweep(dev, MCWC_242, noise, trials, seed=seed)


def test_sweep_pair_trials_cap():
    code = all_words_code(2, 8, 2)  # 784 words, 306,936 pairs
    pairs = len(code.words) * (len(code.words) - 1) // 2
    trials = MAX_PAIR_TRIALS // pairs + 1
    assert trials <= MAX_TRIALS
    dev = device_new(2, 8, (1.0, 1.05), s_eps=1e-3, seed=0)
    with pytest.raises(ModelError, match="MAX_PAIR_TRIALS"):
        reliability_sweep(dev, code, 1e-3, trials)


def test_sweep_cap_charges_pair_setup():
    # At one trial per pair the set-up charge, not the draws, reaches the cap.
    def charge(words):
        return words * (words - 1) // 2 * (1 + PAIR_SETUP_TRIALS)

    largest = 1154
    assert charge(largest) <= MAX_PAIR_TRIALS < charge(largest + 1)
    check_sweep_size(largest, 1)
    with pytest.raises(ModelError, match="MAX_PAIR_TRIALS"):
        check_sweep_size(largest + 1, 1)
    code = all_words_code(1, 15, 4)  # 1365 words, 930,930 pairs
    dev = device_new(1, 15, (1.0, 1.05), s_eps=1e-3, seed=0)
    with pytest.raises(ModelError, match="MAX_PAIR_TRIALS"):
        reliability_sweep(dev, code, 1e-3, 1)


def test_flat_model_delay_is_grid_size():
    dev = device_new(2, 4, 1.0, s_eps=0.0, seed=0)
    for wd in MCWC_242.words:
        assert measure_delay(dev, word_matrix(dev, MCWC_242, wd)) == 8.0


def test_weight_formula_exact_when_eps_zero():
    dev = device_new(2, 4, (1.0, 1.25), s_eps=0.0, seed=0)
    for wd in MCWC_242.words:
        bits = word_matrix(dev, MCWC_242, wd)
        assert measure_delay(dev, bits) == mu_delay(dev, bits.sum(axis=1))


def test_two_bracket_decomposition_exact():
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=3)
    for wd in MCWC_242.words:
        bits = word_matrix(dev, MCWC_242, wd)
        eps_part = math.fsum(
            dev.eps[i, j, bits[i, j]] for i in range(dev.m) for j in range(dev.n)
        )
        assert measure_delay(dev, bits) == mu_delay(dev, bits.sum(axis=1)) + eps_part


def test_difference_depends_only_on_disagreeing_positions():
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=4)
    u = word_matrix(dev, MCWC_242, MCWC_242.words[0])
    v = word_matrix(dev, MCWC_242, MCWC_242.words[1])
    diff = measure_delay(dev, u) - measure_delay(dev, v)
    expected = math.fsum(
        dev.eps[i, j, u[i, j]] - dev.eps[i, j, v[i, j]]
        for i in range(dev.m)
        for j in range(dev.n)
        if u[i, j] != v[i, j]
    )
    assert diff == pytest.approx(expected, abs=1e-15)


def test_deterministic_difference_zero_on_mcwc():
    for seed in range(25):
        dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=seed)
        for wu in MCWC_242.words:
            for wv in MCWC_242.words:
                u = word_matrix(dev, MCWC_242, wu)
                v = word_matrix(dev, MCWC_242, wv)
                assert deterministic_difference(dev, u, v) == 0.0


def test_deterministic_difference_nonzero_formula():
    # Row-dependent means: a weight transfer between rows no longer cancels.
    dev = device_new(2, 4, np.array([[1.0, 1.25], [1.0, 1.5]]), s_eps=1e-3, seed=5)
    u = np.array([[1, 1, 0, 0], [1, 1, 0, 0]])  # row weights (2, 2)
    v = np.array([[1, 1, 1, 0], [1, 0, 0, 0]])  # row weights (3, 1)
    got = deterministic_difference(dev, u, v)
    expected = sum(
        (v[i].sum() - u[i].sum()) * (dev.mu[i, 0] - dev.mu[i, 1]) for i in range(2)
    )
    assert got == pytest.approx(expected, abs=1e-15)
    assert got != 0.0
    flat = device_new(2, 4, 1.0, s_eps=1e-3, seed=5)
    assert deterministic_difference(flat, u, v) == 0.0


def test_crp_count_and_antisymmetry():
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=6)
    crps = generate_crps(dev, MCWC_242)
    size = len(MCWC_242.words)
    assert len(crps) == size * (size - 1)
    lookup = {(c.u_index, c.v_index): c for c in crps}
    for c in crps:
        mirror = lookup[(c.v_index, c.u_index)]
        assert c.usable == mirror.usable
        if c.usable:
            assert c.response == -mirror.response


def test_crps_all_tied_without_mismatch():
    dev = device_new(2, 4, (1.0, 1.05), s_eps=0.0, seed=6)
    crps = generate_crps(dev, MCWC_242)
    assert all(not c.usable for c in crps)


def test_reliability_zero_noise():
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=8)
    sweep = reliability_sweep(dev, MCWC_242, noise_sigma=0.0, trials=10)
    assert all(p.flip_rate == 0.0 for p in sweep.pairs if p.usable)


def test_reliability_reproducible():
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=8)
    a = reliability_sweep(dev, MCWC_242, 1e-3, 500, seed=42)
    b = reliability_sweep(dev, MCWC_242, 1e-3, 500, seed=42)
    assert a == b


def test_ensemble_variance_matches_distance():
    s = 1e-3
    code = all_words_code(2, 4, 2)
    u_word, v_word = code.words[0], code.words[5]
    dist = int(np.bitwise_count(u_word ^ v_word).sum())
    diffs = []
    for seed in range(4000):
        dev = device_new(2, 4, (1.0, 1.05), s_eps=s, seed=seed)
        u = word_matrix(dev, code, u_word)
        v = word_matrix(dev, code, v_word)
        diffs.append(measure_delay(dev, u) - measure_delay(dev, v))
    var = float(np.var(diffs))
    assert var == pytest.approx(2 * s * s * dist, rel=0.10)


def test_flip_rate_decreases_with_distance():
    # Bucket means fluctuate with the device draw (the offsets fix each pair's
    # reference gap), so the monotone trend is checked on a pooled estimate
    # over several devices rather than one lucky seed.
    code = all_words_code(2, 4, 2)
    pooled: dict[int, list[float]] = {}
    for seed in range(12):
        dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=seed)
        sweep = reliability_sweep(dev, code, noise_sigma=1e-3, trials=1000, seed=seed)
        for p in sweep.pairs:
            if p.usable:
                pooled.setdefault(p.distance, []).append(p.flip_rate)
    dists = sorted(pooled)
    assert dists == [2, 4, 6, 8]
    rates = [float(np.mean(pooled[d])) for d in dists]
    assert all(a >= b for a, b in zip(rates, rates[1:])), rates


def test_device_file_round_trip(tmp_path):
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=9, noise_sigma=1e-3)
    path = tmp_path / "device.json"
    device_save(path, dev)
    back = device_load(path)
    assert np.array_equal(back.mu, dev.mu)
    assert np.array_equal(back.eps, dev.eps)
    assert back.noise_sigma == dev.noise_sigma and back.seed == dev.seed


def test_word_matrix_shape_mismatch():
    dev = device_new(3, 4, 1.0, s_eps=1e-3, seed=0)
    with pytest.raises(ModelError):
        word_matrix(dev, MCWC_242, MCWC_242.words[0])
    with pytest.raises(ModelError):
        measure_delay(dev, np.zeros((2, 4), dtype=int))


@pytest.mark.parametrize(
    "payload",
    [
        '{"m": 2, "n": 4, "mu": [[NaN, 1.0], [1.0, 1.0]], "eps": %s, "noise_sigma": 0.0, "seed": 0}',
        '{"m": 2, "n": 4, "eps": %s, "noise_sigma": 0.0, "seed": 0}',
        '{"m": 2, "n": 4, "mu": [[1.0, 1.0], [1.0, 1.0]], "eps": %s, "noise_sigma": -1, "seed": 0}',
        '{"m": 2, "n": 4, "mu": [[1.0, 1.0], [1.0, 1.0]], "eps": %s, "noise_sigma": 0, "seed": -3}',
        '{"m": 2, "n": 4, "mu": "x", "eps": %s, "noise_sigma": 0.0, "seed": 0}',
        '[1, 2]',
        '{"m": 2,',
    ],
)
def test_device_load_rejects_bad_files(payload, tmp_path):
    path = tmp_path / "device.json"
    path.write_text(payload.replace("%s", str(np.zeros((2, 4, 2)).tolist())))
    with pytest.raises(ModelError):
        device_load(path)


# ---------- the threaded sweep against the unthreaded loop it replaced ----------

def reference_sweep(dev, code, noise_sigma, trials, seed=0):
    """The single-threaded per-pair loop: all P streams spawned up front."""
    words = [int(text, 2) for text in code.word_strings()]
    matrices = [word_matrix(dev, code, wd) for wd in code.words]
    delays = [measure_delay(dev, mat) for mat in matrices]

    pair_list = list(combinations(range(len(words)), 2))
    streams = np.random.SeedSequence(seed).spawn(len(pair_list))
    pairs = []
    sums = {}
    for idx, (i, j) in enumerate(pair_list):
        dist = (words[i] ^ words[j]).bit_count()
        ref = delays[i] - delays[j]
        if ref == 0.0:
            pairs.append(PairReliability(idx, i, j, dist, False, float("nan")))
            continue
        if noise_sigma == 0.0:
            flip_rate = 0.0
        else:
            rng = np.random.Generator(np.random.Philox(streams[idx]))
            noise = rng.normal(0.0, noise_sigma, size=(2, trials))
            noisy = ref + noise[0] - noise[1]
            flip_rate = float(np.count_nonzero(np.sign(noisy) != np.sign(ref))) / trials
        pairs.append(PairReliability(idx, i, j, dist, True, flip_rate))
        sums.setdefault(dist, []).append(flip_rate)

    bucket_means = {dist: float(np.mean(rates)) for dist, rates in sorted(sums.items())}
    return SweepResult(tuple(pairs), bucket_means, noise_sigma, trials, seed)


def sweep_key(result):
    """A SweepResult with every float as its repr, so NaN equals NaN and -0.0 differs from 0.0."""
    pairs = [
        (p.pair_index, p.u_index, p.v_index, p.distance, p.usable, repr(p.flip_rate))
        for p in result.pairs
    ]
    buckets = [(d, repr(r)) for d, r in result.bucket_means.items()]
    return pairs, buckets, repr(result.noise_sigma), result.trials, result.seed


def sweep_threads():
    return [t for t in threading.enumerate() if t.name.startswith("mcwc-sweep")]


SWEEP_CASES = [
    # (device arguments, code, noise sigma, trials, sweep seed)
    ((2, 4, (1.0, 1.05), 1e-3, 8), MCWC_242, 1e-3, 500, 42),
    ((2, 4, (1.0, 1.05), 1e-3, 3), all_words_code(2, 4, 2), 1e-3, 301, 0),
    ((2, 4, (1.0, 1.05), 1e-3, 4), all_words_code(2, 4, 2), 2e-3, 64, 7),
    ((2, 4, (1.0, 1.05), 1e-3, 5), all_words_code(2, 4, 2), 5e-4, 1, 2**40),
    ((2, 4, (1.0, 1.05), 1e-3, 6), all_words_code(2, 4, 2), 0.0, 50, 1),  # sigma = 0
    ((2, 4, 1.0, 0.0, 1), all_words_code(2, 4, 2), 1e-3, 50, 3),  # flat: every pair tied
    ((1, 6, (1.0, 1.25), 1e-3, 9), all_words_code(1, 6, 3), 1e-3, 1000, 11),
]


@pytest.mark.parametrize("case", range(len(SWEEP_CASES)))
def test_threaded_sweep_matches_reference(case, monkeypatch):
    (m, n, mu, s_eps, dev_seed), code, sigma, trials, seed = SWEEP_CASES[case]
    dev = device_new(m, n, mu, s_eps=s_eps, seed=dev_seed)
    expected = sweep_key(reference_sweep(dev, code, sigma, trials, seed))
    assert sweep_key(reliability_sweep(dev, code, sigma, trials, seed)) == expected
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # 2048: several pairs per block; 37: each pair of more trials alone in its
        # block, its second row drawn in chunks that do not divide the trials.
        for block in (pufsim.BLOCK_TRIALS, 2048, 37):
            monkeypatch.setattr(pufsim, "BLOCK_TRIALS", block)
            for workers in (1, 2, 5):  # 5: more workers than cores
                got = pufsim._sweep(dev, code, sigma, trials, seed, workers)
                assert sweep_key(got) == expected, (block, workers)
    finally:
        sys.setswitchinterval(interval)
    assert not sweep_threads()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40, 2**64 + 5, 2**130 + 3])
def test_philox_keys_match_seed_sequence(seed):
    pairs = [0, 1, 255, 2**16, 666_000]
    keys = pufsim._philox_keys(seed, np.array(pairs))
    assert keys.dtype == np.uint64 and keys.shape == (len(pairs), 2)
    for k, key in zip(pairs, keys):
        stream = np.random.SeedSequence(seed, spawn_key=(k,))
        assert key.tolist() == stream.generate_state(2, np.uint64).tolist(), k


def test_flat_device_sweep_has_no_usable_pair():
    dev = device_new(2, 4, 1.0, s_eps=0.0, seed=1)
    sweep = reliability_sweep(dev, all_words_code(2, 4, 2), 1e-3, 50, seed=3)
    assert sweep.pairs and not any(p.usable for p in sweep.pairs)
    assert sweep.bucket_means == {}


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_worker_error_reaches_caller(workers, monkeypatch):
    real = pufsim._flip_block
    fault = pufsim._philox_keys(0, [7])[0]
    done = []

    def faulty(gen, keys, *rest):
        if (keys == fault).all(axis=1).any():
            raise RuntimeError("injected fault at pair 7")
        done.append(len(keys))
        return real(gen, keys, *rest)

    monkeypatch.setattr(pufsim, "BLOCK_TRIALS", 400)  # two pairs of 200 trials per block
    monkeypatch.setattr(pufsim, "_flip_block", faulty)
    dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=3)
    code = all_words_code(2, 4, 2)  # 630 pairs
    with pytest.raises(RuntimeError, match="pair 7"):
        pufsim._sweep(dev, code, 1e-3, 200, 0, workers)
    # the other workers stop at their next block instead of finishing the sweep
    assert sum(done) < 630 - 2
    assert not sweep_threads()


def test_sweep_worker_buffers_stay_in_budget():
    # 9 bytes per trial plus BLOCK_TRIALS float64 for the second row's chunks, per
    # worker; two whole float64 rows would take 17 bytes per trial.
    import tracemalloc

    dev = device_new(1, 6, (1.0, 1.25), s_eps=1e-3, seed=9)
    code = BinaryCode.from_words([0b111000, 0b110100, 0b101100], 6, 2, WeightProfile.homogeneous(1, 6, 3))
    trials = 200_000
    pufsim._sweep(dev, code, 1e-3, 100, 0, 2)  # first-use allocations outside the trace
    tracemalloc.start()
    try:
        pufsim._sweep(dev, code, 1e-3, trials, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (9 * trials + 8 * pufsim.BLOCK_TRIALS) + 500_000, peak


def test_flip_counts_match_closed_form():
    """Each usable pair flips with probability Phi(-|D|/(sigma*sqrt(2))).

    Same tolerance as the benchmark oracle: 7 binomial sd + 3 per pair and
    5 sd + 1 over the sweep; the reference gap D is summed here with fsum.
    """
    sigma, trials = 1e-3, 2000
    code = all_words_code(2, 5, 2)  # 100 words, 4950 pairs
    words = code.words[::3]  # 34 words, 561 pairs
    code = BinaryCode.from_words(words, code.length, 2, code.profile)
    dev = device_new(2, 5, (1.0, 1.05), s_eps=1e-3, seed=21)
    delays = []
    for wd in code.words:
        bits = word_matrix(dev, code, wd)
        delays.append(math.fsum(
            dev.mu[i, bits[i, j]] + dev.eps[i, j, bits[i, j]]
            for i in range(dev.m) for j in range(dev.n)
        ))
    sweep = reliability_sweep(dev, code, sigma, trials, seed=5)
    assert len(sweep.pairs) == 561
    expected = variance = observed = 0.0
    for p in sweep.pairs:
        delta = delays[p.u_index] - delays[p.v_index]
        assert p.usable == (delta != 0.0)
        if not p.usable:
            continue
        prob = 0.5 * math.erfc(abs(delta) / (2.0 * sigma))
        count = round(p.flip_rate * trials)
        mean, var = trials * prob, trials * prob * (1.0 - prob)
        assert abs(count - mean) <= 7.0 * math.sqrt(var) + 3.0, (p, prob)
        expected += mean
        variance += var
        observed += count
    assert expected > 1000  # the test sees real flips, not only near-certain pairs
    assert abs(observed - expected) <= 5.0 * math.sqrt(variance) + 1.0
