"""End-to-end CLI tests: exit codes, file outputs, manifests, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations

import pytest

import mcwc
from mcwc import cli, codes
from mcwc.cli import main
from mcwc.codes import TILE_BYTES, WeightProfile, code_read_path, verify_code
from mcwc.pufsim import device_new, device_save


def run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_construct_pseudo_product(tmp_path, capsys):
    out = tmp_path / "code.txt"
    status, stdout, _ = run(
        ["construct", "pseudo-product", "--cwc", "builtin:cwc-4-2-2",
         "--sys", "builtin:lin-6-2-4", "--out", str(out)],
        capsys,
    )
    assert status == 0
    assert "size=16" in stdout
    code = code_read_path(out)
    assert len(code.words) == 16
    assert code.profile == WeightProfile.homogeneous(6, 4, 2)
    assert verify_code(code).passed
    text = out.read_text()
    assert text.splitlines()[0].startswith("# manifest: ")
    assert any(line.startswith("# provenance: pseudo-product") for line in text.splitlines())


def test_construct_design(tmp_path, capsys):
    out = tmp_path / "affine.txt"
    status, stdout, _ = run(
        ["construct", "design", "--family", "affine", "--q", "2", "--out", str(out)],
        capsys,
    )
    assert status == 0 and "size=3" in stdout
    code = code_read_path(out)
    assert len(code.words) == 3 and code.claimed_distance == 4


def test_construct_rs_expand(tmp_path, capsys):
    out = tmp_path / "rs.txt"
    status, stdout, _ = run(
        ["construct", "rs", "--q", "3", "--len", "2", "--d", "2",
         "--expand", "--w", "1", "--out", str(out)],
        capsys,
    )
    assert status == 0 and "size=3" in stdout
    code = code_read_path(out)
    assert sorted(code.word_strings()) == ["001001", "010010", "100100"]


def test_construct_concat_append_expand(tmp_path, capsys):
    outer = tmp_path / "outer.txt"
    status, _, _ = run(
        ["construct", "rs", "--q", "4", "--len", "3", "--d", "2", "--out", str(outer)],
        capsys,
    )
    assert status == 0
    out = tmp_path / "concat.txt"
    status, stdout, _ = run(
        ["construct", "concat", "--outer", str(outer), "--inner", "builtin:cwc-4-2-2",
         "--out", str(out)],
        capsys,
    )
    assert status == 0 and "size=16" in stdout
    code = code_read_path(out)
    assert code.profile == WeightProfile.homogeneous(3, 4, 2)

    status, stdout, _ = run(
        ["construct", "append", "--k", "1", "--cwc", "builtin:cwc-2-2-1",
         "--out", str(tmp_path / "app.txt")],
        capsys,
    )
    assert status == 0 and "size=2" in stdout

    status, stdout, _ = run(
        ["construct", "qary-expand", "--code", str(outer), "--w", "1",
         "--out", str(tmp_path / "exp.txt")],
        capsys,
    )
    assert status == 0 and "size=16" in stdout
    code = code_read_path(tmp_path / "exp.txt")
    assert code.profile == WeightProfile.homogeneous(3, 4, 1)


def test_construct_bad_params_exit_2(tmp_path, capsys):
    status, _, err = run(
        ["construct", "rs", "--q", "6", "--len", "2", "--d", "2"], capsys
    )
    assert status == 2 and "error:" in err


def test_verify_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "code.txt"
    run(["construct", "design", "--family", "one-factor", "--v", "6",
         "--out", str(out)], capsys)
    status, stdout, _ = run(["verify", str(out)], capsys)
    assert status == 0
    assert json.loads(stdout.splitlines()[-1])["passed"] is True

    status, stdout, err = run(["verify", str(out), "--d", "99"], capsys)
    assert status == 1
    assert json.loads(stdout.splitlines()[-1])["passed"] is False
    assert "verification-failure" in err


def test_verify_heterogeneous_profile_report(tmp_path, capsys):
    path = tmp_path / "het.txt"
    path.write_text(
        "# code q=2 len=7 d=2 profile=3:1,4:2\n0010011\n0100101\n1000110\n"
    )
    status, stdout, _ = run(["verify", str(path)], capsys)
    assert status == 0
    payload = json.loads(stdout.splitlines()[-1])
    assert payload["profile_violations"] == []


def test_design_make_and_verify(tmp_path, capsys):
    out = tmp_path / "design.txt"
    status, stdout, _ = run(
        ["design", "make", "--family", "one-factor", "--v", "8", "--out", str(out)],
        capsys,
    )
    assert status == 0 and "classes=7" in stdout
    status, stdout, _ = run(["design", "verify", str(out)], capsys)
    assert status == 0 and "ok" in stdout


def test_design_verify_rejects_corruption(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("# design v=4 k=2 t=2\n0,1|2,3\n0,1|2,3\n")
    status, _, err = run(["design", "verify", str(path)], capsys)
    assert status == 2 and "DesignError" in err


def test_construct_design_keeps_one_code_copy(tmp_path, capsys):
    # 511 words of 256 x 512 bits: 8 MB, as the packed code and as verify_code's limbs.
    argv = ["construct", "design", "--family", "one-factor", "--v"]
    run(argv + ["4", "--out", str(tmp_path / "small.txt")], capsys)  # numpy imported first
    tracemalloc.start()
    try:
        status, _, _ = run(argv + ["512", "--out", str(tmp_path / "code.txt")], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    code_bytes = 511 * 256 * 512 // 8
    assert peak < 2.5 * code_bytes + 16 * TILE_BYTES


def test_design_verify_counts_only_covered_pairs(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# design v=20000 k=2 t=2\n")
    status, _, err = run(["design", "verify", str(path)], capsys)
    assert status == 2 and "2-subset (0, 1) covered 0 times" in err
    status, stdout, _ = run(["design", "verify", "--partial", str(path)], capsys)
    assert status == 0 and "classes=0" in stdout


def test_design_verify_of_header_alone_exits_2_with_one_short_line(tmp_path, capsys):
    path = tmp_path / "header.txt"
    path.write_text("# design v=200000 k=200000 t=200000\n")
    status, stdout, err = run(["design", "verify", str(path)], capsys)
    assert status == 2 and not stdout
    assert err.count("\n") == 1 and len(err) < 300, err[:300]
    assert "200000-subset (0, 1, 2, …, 199999) covered 0 times" in err


def test_design_verify_partial_past_the_cap_answers_at_once(tmp_path, capsys):
    # C(10^7, 5*10^6) has 3 million digits; its count stops at the coverage cap.
    path = tmp_path / "header.txt"
    path.write_text("# design v=10000000 k=10000000 t=5000000\n")
    status, stdout, err = run(["design", "verify", "--partial", str(path)], capsys)
    assert (status, err) == (0, "")
    assert stdout == "design v=10000000 k=10000000 t=5000000 classes=0 expected_classes=over-cap ok\n"
    # One class of a 2-(2000, 2, 1) design: a full one would cover 1,999,000 pairs.
    path.write_text("# design v=2000 k=2 t=2\n" + "|".join(f"{p},{p + 1}" for p in range(0, 2000, 2)))
    status, stdout, _ = run(["design", "verify", "--partial", str(path)], capsys)
    assert status == 0 and stdout.endswith("classes=1 expected_classes=over-cap ok\n")
    status, _, err = run(["design", "verify", str(path)], capsys)
    assert status == 2 and "2-subset (0, 2) covered 0 times" in err


@pytest.mark.parametrize("length", [1, 3])
def test_rs_over_gf2_reads_back(length, tmp_path, capsys):
    path = tmp_path / "rs2.txt"
    rs = str(path)
    status, _, _ = run(["construct", "rs", "--q", "2", "--len", str(length), "--d", "1",
                        "--out", rs], capsys)
    assert status == 0
    assert path.read_text().splitlines()[-1] == "1" * length  # written as binary words
    status, stdout, _ = run(["verify", rs], capsys)
    assert status == 0 and json.loads(stdout)["size"] == 2**length
    for argv in (["concat", "--outer", rs, "--inner", "builtin:cwc-2-2-1"],
                 ["qary-expand", "--code", rs, "--w", "1"]):
        status, stdout, _ = run(["construct", *argv], capsys)
        assert status == 0 and f"size={2**length} length={2 * length}" in stdout
    # A binary file with a profile is not a q-ary code.
    profiled = tmp_path / "profiled.txt"
    profiled.write_text("# code q=2 len=2 d=2 profile=2:1\n01\n10\n")
    status, _, err = run(["construct", "qary-expand", "--code", str(profiled), "--w", "1"], capsys)
    assert status == 2 and "is not a q-ary code file" in err


def test_construct_design_from_file(tmp_path, capsys):
    design_path = tmp_path / "design.txt"
    run(["design", "make", "--family", "one-factor", "--v", "6",
         "--out", str(design_path)], capsys)
    out = tmp_path / "code.txt"
    status, stdout, _ = run(
        ["construct", "design", "--file", str(design_path), "--out", str(out)], capsys
    )
    assert status == 0 and "size=5" in stdout
    assert verify_code(code_read_path(out)).passed


def test_verify_profile_override(tmp_path, capsys):
    path = tmp_path / "plain.txt"
    path.write_text("# code q=2 len=4 d=2 profile=none\n0011\n1100\n")
    status, stdout, _ = run(["verify", str(path), "--profile", "4:2"], capsys)
    assert status == 0
    status, stdout, _ = run(["verify", str(path), "--profile", "2:1,2:1"], capsys)
    assert status == 1  # 0011 has block weights (0, 2)


def test_bound_exact_cell(capsys):
    status, stdout, _ = run(
        ["bound", "--m", "2", "--n", "4", "--d", "4", "--w", "2", "--exact"], capsys
    )
    assert status == 0
    assert stdout.splitlines()[0] == "lower=12 upper=12 exact"


def test_bound_power_exact_cell(capsys):
    status, stdout, _ = run(
        ["bound", "--m", "2", "--n", "3", "--d", "2", "--w", "1"], capsys
    )
    assert status == 0
    assert stdout.splitlines()[0] == "lower=9 upper=9 exact"


def test_table_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        status, _, _ = run(
            ["table", "--m", "1..2", "--n", "2..4", "--w", "1..2", "--out", str(out)],
            capsys,
        )
        assert status == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[1] == "m,n,d,w,lower,upper,exact_flag,lower_provenance,upper_provenance"
    assert not any(",inf," in line and ",0," not in line for line in lines)


def test_curves_csv(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    status, stdout, _ = run(
        ["curves", "--grid-start", "0.05", "--grid-end", "0.25",
         "--grid-step", "0.05", "--out", str(out)],
        capsys,
    )
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "curve,delta,rate"
    assert any(line.startswith("gv,0.1,") for line in lines)


def test_puf_sim_run(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    run(["construct", "design", "--family", "affine", "--q", "2",
         "--out", str(code_path)], capsys)
    out = tmp_path / "sweep.csv"
    status, stdout, _ = run(
        ["puf-sim", "--code", str(code_path), "--trials", "200",
         "--seed", "7", "--out", str(out)],
        capsys,
    )
    assert status == 0 and "pairs=3" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert any(line.startswith("# bucket distance=4") for line in lines)
    assert "pair_index,distance,flip_rate" in lines


def test_puf_sim_device_round_trip(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    run(["construct", "design", "--family", "affine", "--q", "2",
         "--out", str(code_path)], capsys)
    dev_path = tmp_path / "device.json"
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    status, _, _ = run(
        ["puf-sim", "--code", str(code_path), "--trials", "100", "--seed", "3",
         "--save-device", str(dev_path), "--out", str(out1)],
        capsys,
    )
    assert status == 0
    status, _, _ = run(
        ["puf-sim", "--code", str(code_path), "--trials", "100", "--seed", "3",
         "--load-device", str(dev_path), "--out", str(out2)],
        capsys,
    )
    assert status == 0
    # same device, same seed: identical sweep rows (manifests differ by params)
    rows1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    rows2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert rows1 == rows2


def test_legacy_device_file_loads(tmp_path, capsys):
    # Files from older versions carry noise_sigma and seed entries, which the sweep never read.
    (tmp_path / "code.txt").write_text(INPUT_FILES["puf_code.txt"])
    sweep = ["puf-sim", "--code", str(tmp_path / "code.txt"), "--trials", "100", "--seed", "3"]
    device, legacy = tmp_path / "device.json", tmp_path / "legacy.json"
    status, _, _ = run(sweep + ["--save-device", str(device), "--out", str(tmp_path / "new.csv")],
                       capsys)
    assert status == 0
    payload = json.loads(device.read_text())
    assert list(payload) == ["m", "n", "mu", "eps"]
    # The key order that older versions wrote.
    payload = {**payload, "noise_sigma": 0.001, "seed": 3}
    legacy.write_text(json.dumps(payload))
    for path in (device, legacy):
        status, _, _ = run(sweep + ["--load-device", str(path), "--out", str(tmp_path / f"{path.stem}.csv")],
                           capsys)
        assert status == 0
    rows = [[l for l in (tmp_path / f"{name}.csv").read_text().splitlines() if not l.startswith("# manifest")]
            for name in ("new", "device", "legacy")]
    assert rows[0] == rows[1] == rows[2] and "pair_index,distance,flip_rate" in rows[0]


def test_construct_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        run(["construct", "complement", "--code", "builtin:rm1-2",
             "--out", str(out)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--m", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--threads", "2", "f"],
        ["construct", "--out", "f", "rs", "--q", "3", "--len", "2", "--d", "2"],
        ["bound", "--m", "1", "--n", "4", "--d", "2", "--w", "2", "--seed", "1"],
        ["curves", "--budget", "5"],
        ["design", "make", "--family", "affine", "--q", "3", "--partial"],
        ["design", "make", "--family", "affine", "--q", "3", "f.txt"],
        ["design", "make", "--q", "3"],
        ["design", "verify"],
        ["design", "verify", "f", "--out", "x"],
        ["design", "--family", "affine", "--q", "3"],
        ["construct", "design", "--q", "3"],
        ["construct", "design", "--family", "affine", "--q", "3", "--file", "f"],
        ["puf-sim", "--code", "c.txt", "--m", "2"],
        # no prefix matching: --n is not read as --noise
        ["puf-sim", "--code", "c.txt", "--n", "4"],
    ],
)
def test_options_only_where_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mcwc") and "Traceback" not in err


BAD_REFS = {
    "header": "bad,header\n",
    "empty": "",
    "row": "kind,q,n,d,w,lower,upper,source\nA,2,x,4,2,2,2,src\n",
    "comma in source": "kind,q,n,d,w,lower,upper,source\nA,2,5,4,2,2,2,a,b\n",
    "conflict": "kind,q,n,d,w,lower,upper,source\nA,2,5,4,2,,2,a\nA,2,5,4,2,3,,b\n",
}

INPUT_FILES = {
    "puf_code.txt": "# code q=2 len=8 d=2 profile=4:2,4:2\n11001100\n10100101\n01010011\n",
    "nan_mu.json": '{"m": 2, "n": 4, "mu": [[NaN, 1.05], [1.0, 1.05]], "eps": %s, '
                   '"noise_sigma": 0.001, "seed": 0}',
    "no_mu.json": '{"m": 2, "n": 4, "eps": %s, "noise_sigma": 0.001, "seed": 0}',
    "device.json": '{"m": 2, "n": 4, "mu": [[1.0, 1.05], [1.0, 1.05]], "eps": %s, '
                   '"noise_sigma": 0.001, "seed": 0}',
    "design.txt": "# design v=4 k=2 t=2\n0,1|2,3\n0,2|1,3\n0,3|1,2\n",
    "qary.txt": "# code q=3 len=2 d=2 profile=none\n0,0\n1,1\n2,2\n",
    "kind_b.csv": "kind,q,n,d,w,lower,upper,source\nB,2,8,4,,16,16,linear-tables\n",
    "kind_z.csv": "kind,q,n,d,w,lower,upper,source\nZ,2,8,4,4,99,99,typo\n",
    # q-ary files whose words do not fit a fixed-width symbol array
    "qary_huge.txt": f"# code q={2**65} len=2 d=1 profile=none\n0,{2**64}\n1,1\n",
    "qary_negative.txt": "# code q=3 len=2 d=1 profile=none\n0,-1\n1,1\n",
    "qary_ragged.txt": "# code q=3 len=2 d=1 profile=none\n0,1\n1,1,2\n",
    "qary_duplicate.txt": "# code q=3 len=2 d=1 profile=none\n0,1\n0,1\n",
    # one block of 60 points: C(60, 8) 8-subsets to count
    "design_t8.txt": "# design v=60 k=60 t=8\n" + ",".join(map(str, range(60))) + "\n",
    # design files whose classes are not v/k blocks of k points 0..v-1
    "design_missing_block.txt": "# design v=4 k=2 t=2\n0,1|2,3\n0,2\n",
    "design_extra_point.txt": "# design v=4 k=2 t=2\n0,1|2,3,1\n",
    "design_point_v.txt": "# design v=4 k=2 t=2\n0,1|2,4\n",
    "design_negative.txt": "# design v=4 k=2 t=2\n0,1|2,-3\n",
    "design_huge.txt": "# design v=4 k=2 t=2\n0,1|2," + "9" * 25 + "\n",
    "design_repeated.txt": "# design v=4 k=2 t=2\n0,1|1,3\n",
    # reference rows that would break the store
    "ref_negative.csv": "kind,q,n,d,w,lower,upper,source\nA,2,8,4,4,-5,,neg\n",
    "ref_no_w.csv": "kind,q,n,d,w,lower,upper,source\nA,2,8,4,,1,20,typo\n",
    "ref_crossed.csv": "kind,q,n,d,w,lower,upper,source\nA,2,9,4,4,30,10,x\n",
}
ZERO_EPS = str([[[0.0, 0.0]] * 4] * 2)
PUF_SIM = ["puf-sim", "--code", "{tmp}/puf_code.txt", "--trials", "10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--m", "1..", "--n", "2", "--w", "1"],
        ["table", "--m", "1", "--n", "two", "--w", "1"],
        ["verify", "{tmp}/missing.txt"],
        ["puf-sim", "--code", "{tmp}/missing.txt"],
        ["curves", "--grid-step", "0"],
        ["curves", "--grid-step", "-0.1"],
    ]
    + [
        ["bound", "--m", "1", "--n", "4", "--d", "2", "--w", "2", "--refs", f"{{tmp}}/{name}.csv"]
        for name in BAD_REFS
    ]
    + [
        ["curves", "--grid-end", "nan"],
        ["curves", "--grid-end", "inf"],
        ["curves", "--grid-step", "inf"],
        ["curves", "--grid-start", "0.4", "--grid-end", "0.1"],
        # ~5e11 points: refused before the grid is built
        ["curves", "--grid-step", "1e-12"],
        ["bound", "--m", "2", "--n", "4", "--d", "4", "--w", "-1"],
        ["bound", "--m", "2", "--n", "-3", "--d", "4", "--w", "0"],
        ["bound", "--m", "2", "--n", "4", "--d", "4", "--w", "2", "--budget", "-5"],
        ["bound", "--m", "2", "--n", "4", "--d", "4", "--w", "2", "--vertex-cap", "-1"],
        ["table", "--m", "3..1", "--n", "2", "--w", "1"],
        ["table", "--m", "1", "--n", "5..3", "--w", "1"],
        ["table", "--m", "1", "--n", "4", "--w", "-1"],
        ["table", "--m", "1", "--n", "4", "--w", "1", "--budget", "-1"],
        # no point of the grid lies in any curve's domain
        ["curves", "--grid-start", "-5", "--grid-end", "-1", "--grid-step", "1"],
    ]
    + [
        PUF_SIM + [option, value]
        for option, value in [
            ("--noise", "nan"),
            ("--noise", "inf"),
            ("--s-eps", "nan"),
            ("--s-eps", "inf"),
            ("--mu0", "nan"),
            ("--mu1", "inf"),
            ("--seed", "-1"),
            ("--load-device", "{tmp}/nan_mu.json"),
            ("--load-device", "{tmp}/no_mu.json"),
            # over the per-pair trial cap: refused before any buffer is allocated
            ("--trials", "1000000000000000"),
        ]
    ]
    + [
        # argv35 on: a value the chosen mode would not read, or a missing order
        ["design", "make", "--family", "affine"],
        ["design", "make", "--family", "one-factor"],
        ["design", "make", "--family", "affine", "--q", "3", "--v", "6"],
        ["design", "make", "--family", "one-factor", "--v", "6", "--q", "3"],
        ["construct", "design", "--family", "affine"],
        ["construct", "design", "--family", "one-factor", "--q", "3"],
        ["construct", "design", "--file", "{tmp}/design.txt", "--q", "3"],
        ["construct", "design", "--file", "{tmp}/design.txt", "--v", "4"],
        ["construct", "rs", "--q", "3", "--len", "2", "--d", "2", "--w", "7"],
        ["verify", "{tmp}/qary.txt", "--profile", "9:9"],
    ]
    + [
        PUF_SIM + ["--load-device", "{tmp}/device.json", option, "5"]
        for option in ("--s-eps", "--mu0", "--mu1")
    ]
    + [
        # argv48 on: 64^7 Reed-Solomon words, refused before any is built
        ["construct", "rs", "--q", "64", "--len", "16", "--d", "10"],
        ["construct", "rs", "--q", "64", "--len", "16", "--d", "10", "--expand"],
        # 4,096 words x 4,097 symbols, refused before any word is built
        ["construct", "rs", "--q", "4096", "--len", "4097", "--d", "4097"],
        ["construct", "rs", "--q", "4096", "--len", "4097", "--d", "4097", "--expand"],
    ]
    + [
        # argv52 on: reference rows of a kind no rule reads
        ["bound", "--m", "1", "--n", "8", "--d", "4", "--w", "4", "--refs", f"{{tmp}}/{name}"]
        for name in ("kind_b.csv", "kind_z.csv")
    ]
    + [
        # argv54 on: bad q-ary files
        argv + [f"{{tmp}}/qary_{bad}.txt"]
        for bad in ("huge", "negative", "ragged", "duplicate")
        for argv in (["verify"], ["construct", "qary-expand", "--w", "1", "--code"])
    ]
    + [
        # argv62 on: designs over the coverage cap, refused before any block is built
        ["design", "make", "--family", "affine", "--q", "37"],
        ["construct", "design", "--family", "affine", "--q", "37"],
        ["design", "make", "--family", "one-factor", "--v", "1026"],
        ["design", "verify", "{tmp}/design_t8.txt"],
        ["construct", "design", "--file", "{tmp}/design_t8.txt"],
    ]
    + [
        # argv67 on: reference rows that would break the store
        ["bound", "--m", "1", "--n", "8", "--d", "4", "--w", "4", "--refs", "{tmp}/ref_negative.csv"],
        ["bound", "--m", "1", "--n", "8", "--d", "4", "--w", "4", "--refs", "{tmp}/ref_no_w.csv"],
        ["table", "--m", "1", "--n", "9", "--w", "4", "--d", "4", "--refs", "{tmp}/ref_crossed.csv"],
    ]
    + [
        # argv70 on: catalog codes and pseudo-products over RS_SIZE_CAP words or
        # RS_SYMBOL_CAP bits, refused before any word is built
        ["construct", "complement", "--code", f"builtin:{name}"]
        for name in ("full-40", "full-20", "parity-20", "rm1-12")
    ]
    + [
        ["construct", "pseudo-product", "--cwc", "builtin:cwc-4-2-2", "--sys", f"builtin:{name}"]
        for name in ("full-16", "full-8", "rep-524289")
    ]
    + [
        # argv77: a catalog parameter of more than 7 digits names no code
        ["construct", "complement", "--code", "builtin:full-" + "9" * 5000],
        # argv78: 4096^4097 words, a count too long to print
        ["construct", "rs", "--q", "4096", "--len", "4097", "--d", "1"],
    ]
    + [
        # argv79 on: bad design files
        [*argv, f"{{tmp}}/design_{bad}.txt"]
        for bad in ("missing_block", "extra_point", "point_v", "negative", "huge")
        for argv in (["design", "verify"], ["construct", "design", "--file"])
    ]
    + [["design", "verify", "--partial", "{tmp}/design_repeated.txt"]],
)
def test_bad_input_exit_2(argv, tmp_path, capsys):
    for name, text in BAD_REFS.items():
        (tmp_path / f"{name}.csv").write_text(text)
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text.replace("%s", ZERO_EPS))
    status, _, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
    assert status == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--m", "2", "--n", "4", "--d", "4", "--w", "2", "--budget", "0"],
        ["bound", "--m", "2", "--n", "4", "--d", "4", "--w", "2", "--vertex-cap", "0"],
        ["bound", "--m", "2", "--n", "4", "--d", "-2", "--w", "2"],
        ["bound", "--m", "1", "--n", "0", "--d", "0", "--w", "0"],
    ],
)
def test_zero_limits_and_nonpositive_d_stay_valid(argv, capsys):
    status, out, err = run(argv, capsys)
    assert status == 0 and err == ""
    assert out.startswith("lower=")


def test_large_power_cell_is_exact_without_witness(capsys):
    # Reed-Solomon would need 64^3 words here; the cell is pinned by counting.
    start = time.perf_counter()
    status, out, _ = run(["bound", "--m", "3", "--n", "64", "--d", "2", "--w", "1",
                          "--vertex-cap", "0"], capsys)
    assert status == 0
    assert out.splitlines()[0] == "lower=262144 upper=262144 exact"
    assert time.perf_counter() - start < 10


def test_manifest_names_command_once(capsys):
    status, out, _ = run(["construct", "rs", "--q", "3", "--len", "2", "--d", "2"], capsys)
    assert status == 0
    manifest = json.loads(out.splitlines()[0].removeprefix("# manifest: "))
    assert manifest["command"] == "construct"
    assert "command" not in manifest["params"]
    assert manifest["params"]["method"] == "rs"


def _many_words_code(path, count):
    # count distinct weight-3 words of length 10: pairwise distance >= 2
    words = ["".join("1" if j in support else "0" for j in range(10))
             for support in list(combinations(range(10), 3))[:count]]
    path.write_text("# code q=2 len=10 d=2 profile=10:3\n" + "\n".join(words) + "\n")


@pytest.mark.parametrize(
    "words, options",
    [
        (3, ["--trials", "0"]),
        # 1,035 pairs x (10^6 trials + set-up) is over MAX_PAIR_TRIALS
        (46, ["--trials", "1000000"]),
        # a loaded device passes, then the sweep refuses the noise scale
        (3, ["--noise", "nan", "--load-device", "{tmp}/loaded.json"]),
        # the sweep runs, then --out cannot be opened
        (3, ["--trials", "10", "--out", "{tmp}/missing/x.csv"]),
    ],
)
def test_refused_sweep_saves_no_device(words, options, tmp_path, capsys):
    code, device = tmp_path / "code.txt", tmp_path / "device.json"
    _many_words_code(code, words)
    device_save(tmp_path / "loaded.json", device_new(1, 10))
    status, _, err = run(["puf-sim", "--code", str(code), "--save-device", str(device)]
                         + [a.format(tmp=tmp_path) for a in options], capsys)
    error = "FileNotFoundError" if "--out" in options else "ModelError"
    assert status == 2 and err.startswith(f"error: {error}")
    assert not device.exists()


def test_verify_pair_cap(tmp_path, capsys, monkeypatch):
    # C(44721, 2) = 999,961,560 pairs pass the cap; C(44722, 2) do not.
    codes.check_verify_pairs(44721)
    with pytest.raises(codes.CodeError) as refused:
        codes.check_verify_pairs(44722)
    for part in ("1000006281 pairs", "cap of 1000000000"):
        assert part in str(refused.value)

    # Three words give three pairs.
    path = tmp_path / "qary.txt"
    path.write_text(INPUT_FILES["qary.txt"])
    monkeypatch.setattr(codes, "MAX_VERIFY_PAIRS", 3)
    status, out, _ = run(["verify", str(path)], capsys)
    assert status == 0 and json.loads(out)["passed"] is True
    monkeypatch.setattr(codes, "MAX_VERIFY_PAIRS", 2)
    status, out, err = run(["verify", str(path)], capsys)
    assert status == 2 and out == ""
    assert err == "error: CodeError: 3 words give 3 pairs to verify, over the cap of 2\n"


def test_construct_past_the_pair_cap_writes_nothing(tmp_path, capsys, monkeypatch):
    # The complement of rep-3 has two words, one pair.
    out = tmp_path / "c.txt"
    argv = ["construct", "complement", "--code", "builtin:rep-3", "--out", str(out)]
    monkeypatch.setattr(codes, "MAX_VERIFY_PAIRS", 0)
    status, _, err = run(argv, capsys)
    assert status == 2 and not out.exists()
    assert err == "error: CodeError: 2 words give 1 pairs to verify, over the cap of 0\n"
    monkeypatch.setattr(codes, "MAX_VERIFY_PAIRS", 1)
    status, _, _ = run(argv, capsys)
    assert status == 0 and out.exists()


def test_rs_at_symbol_cap_peaks_under_100_mb(tmp_path):
    # RS(2888, 1) over GF(2887) is 8.3M symbols, just under RS_SYMBOL_CAP.  The
    # wrapper child reads the peak of its own child only, not of other tests'.
    wrapper = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'mcwc.cli', *sys.argv[1:]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = ["construct", "rs", "--q", "2887", "--len", "2888", "--d", "2888",
            "--out", str(tmp_path / "rs.txt")]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mcwc.__file__))}
    done = subprocess.run([sys.executable, "-c", wrapper, *argv], env=env, check=True,
                          capture_output=True, text=True)
    status_line, peak_kb = done.stdout.splitlines()
    assert status_line == "method=rs q=2887 len=2888 d=2888 size=2887"
    assert int(peak_kb) < 100 * 1024  # ru_maxrss is in kB on Linux


def test_sweep_size_checked_before_code_is_verified(tmp_path, capsys, monkeypatch):
    def no_verify(code):
        raise AssertionError("verified a code too large to sweep")

    monkeypatch.setattr(cli, "verify_code", no_verify)
    _many_words_code(tmp_path / "code.txt", 46)
    status, _, err = run(["puf-sim", "--code", str(tmp_path / "code.txt"),
                          "--trials", "1000000"], capsys)
    assert status == 2 and "MAX_PAIR_TRIALS" in err


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["construct", "rs", "--q", "3", "--len", "2", "--d", "2", "--expand"], ["--w", "1"]),
        (["puf-sim", "--code", "{tmp}/puf_code.txt", "--trials", "50", "--seed", "4"],
         ["--s-eps", "0.001", "--mu0", "1.0", "--mu1", "1.05"]),
    ],
)
def test_defaults_filled_before_manifest(argv, defaults, tmp_path, capsys):
    # Leaving the defaults out writes the same bytes, manifest included.
    (tmp_path / "puf_code.txt").write_text(INPUT_FILES["puf_code.txt"])
    outs = []
    for extra in ([], defaults):
        status, out, _ = run([a.format(tmp=tmp_path) for a in argv + extra], capsys)
        assert status == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_profileless_binary_file_reads_as_q2_symbols(tmp_path, capsys):
    # A q=2 file without a profile is a q-ary code over {0, 1}, one symbol per digit.
    outer = tmp_path / "outer.txt"
    outer.write_text("# code q=2 len=3 d=2 profile=none\n011\n110\n")
    out = tmp_path / "exp.txt"
    status, stdout, _ = run(
        ["construct", "qary-expand", "--code", str(outer), "--w", "1", "--out", str(out)], capsys
    )
    assert status == 0 and "size=2" in stdout
    # Symbol s sets column s of its 2-bit block: 0 -> 10, 1 -> 01.
    assert code_read_path(out).word_strings() == ["010110", "100101"]


def test_loaded_device_manifest_has_no_model_values(tmp_path, capsys):
    (tmp_path / "puf_code.txt").write_text(INPUT_FILES["puf_code.txt"])
    (tmp_path / "device.json").write_text(INPUT_FILES["device.json"].replace("%s", ZERO_EPS))
    status, out, _ = run(["puf-sim", "--code", str(tmp_path / "puf_code.txt"),
                          "--trials", "10", "--load-device", str(tmp_path / "device.json")],
                         capsys)
    assert status == 0
    params = json.loads(out.splitlines()[0].removeprefix("# manifest: "))["params"]
    assert not {"s_eps", "mu0", "mu1", "m", "n"} & set(params)


# sha256 of the non-comment lines of each output; the inputs come from
# pinned_inputs.  A change that alters any word, row or value shows here.
PINNED_OUTPUTS = {
    "concat": (
        ["construct", "concat", "--outer", "{rs4}", "--inner", "builtin:cwc-4-2-2"],
        "2ed677c338fb0b32144765b1d6dff154af7f4333876a471fee994cbbc9540bea",
    ),
    "concat-binary-outer": (
        ["construct", "concat", "--outer", "{rs2}", "--inner", "builtin:cwc-2-2-1"],
        "7ee49a23f21701f95bdc656c60971e028804779a80866a6d031479ee3942ce3a",
    ),
    "pseudo-product": (
        ["construct", "pseudo-product", "--cwc", "builtin:cwc-4-2-2", "--sys", "builtin:lin-6-2-4"],
        "21b5c7a336ea1a2d2e24826ff8be4162a2386f246f104ba83569cf980fc4416a",
    ),
    "complement": (
        ["construct", "complement", "--code", "builtin:rm1-3"],
        "17d878c537355823c882a6c447c7648273b42dde70bca1f6ed7c0a6f4148ddab",
    ),
    "append": (
        ["construct", "append", "--k", "2", "--cwc", "builtin:cwc-4-2-2"],
        "c6b9b9413d51b2de48ad86eda0a6cc5a756e58652c8c7cb4f2a827122470d40d",
    ),
    "qary-expand": (
        ["construct", "qary-expand", "--code", "{rs4}", "--w", "3"],
        "74f1abe0918bab3011bb9419b6cd0eb67a3fe4d25acfd0d6c1423e055fac3daa",
    ),
    "rs-expand": (
        ["construct", "rs", "--q", "5", "--len", "4", "--d", "3", "--expand", "--w", "2"],
        "f6630b70ec55a09fc6664612ac520c8215fb3bcb7c1a638c4e6d87893eaa526f",
    ),
    "design-affine": (
        ["construct", "design", "--family", "affine", "--q", "4"],
        "e48728dd758ac32d701124cee1a03736fb64b314a778c20d2d5e49b291969505",
    ),
    "design-one-factor": (
        ["construct", "design", "--family", "one-factor", "--v", "8"],
        "51ae262497e810b86bf5537c425f82c2436c4e3d3e2286099ff7fcfc6e6f1934",
    ),
    "design-make-affine": (
        ["design", "make", "--family", "affine", "--q", "4"],
        "3e308274900e2cc4f489b7f7ec92ae5f35c9b12c84fa1d97b654cce1af42f391",
    ),
    "design-make-one-factor": (
        ["design", "make", "--family", "one-factor", "--v", "8"],
        "daa2ec4a4ae4b32575f7577f38ef09d2d8e215c1808fca31b09ecdef4f0c88da",
    ),
    "puf-sim": (
        ["puf-sim", "--code", "{pp}", "--trials", "300", "--seed", "5"],
        "1bc63eee63643c8023eeb1fd4caeb5f36f9117f2ffcb43c4a8b05de005b3ff01",
    ),
    "table": (
        ["table", "--m", "1..2", "--n", "2..6", "--w", "1..3"],
        "d1418c9c926a0987458438f11e50c46d553c62277aa3715e4a5d19d6daa6d570",
    ),
    # the rules-only grid, in which every construction record is read
    "table-rules": (
        ["table", "--m", "1..4", "--n", "2..9", "--w", "3,4", "--vertex-cap", "0"],
        "7f2a1c76fe2afcf89d78babf49c922e87cbae4668c9466245a203e148bb9d0b9",
    ),
}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    """Code files the pinned outputs read: RS codes over GF(4) and GF(2), and a
    4 x 4 pseudo-product code for puf-sim."""
    tmp = tmp_path_factory.mktemp("pinned")
    for name, argv in (
        ("rs4", ["construct", "rs", "--q", "4", "--len", "3", "--d", "2"]),
        ("rs2", ["construct", "rs", "--q", "2", "--len", "3", "--d", "1"]),
        ("pp", ["construct", "pseudo-product", "--cwc", "builtin:cwc-4-2-2",
                "--sys", "builtin:rm1-2"]),
    ):
        assert main(argv + ["--out", str(tmp / f"{name}.txt")]) == 0
    return {name: str(tmp / f"{name}.txt") for name in ("rs4", "rs2", "pp")}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_bytes_pinned(name, pinned_inputs, tmp_path, capsys):
    argv, digest = PINNED_OUTPUTS[name]
    out = tmp_path / "out.txt"
    status, _, _ = run([a.format(**pinned_inputs) for a in argv] + ["--out", str(out)], capsys)
    assert status == 0
    body = "".join(
        line for line in out.read_text().splitlines(keepends=True) if not line.startswith("#")
    )
    assert hashlib.sha256(body.encode()).hexdigest() == digest
