"""Command-line front end.

Every file the tool writes starts with a manifest comment (subcommand, full
parameter set, seeds, input digests, tool version) so outputs are
reproducible: identical invocations produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
consistency violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter

from . import __version__
from .asymptotics import DomainError, curve_names, emit_curves, write_curves_csv
from .bounds import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_VERTEX_CAP,
    TABLE_NODE_BUDGET,
    TABLE_VERTEX_CAP,
    BoundTable,
    ConsistencyError,
    ReferenceFormatError,
    ReferenceStore,
    SearchSpaceError,
    evaluate_cell,
    search_cells,
    table_build,
)
from .codes import (
    BinaryCode,
    CodeError,
    QaryCode,
    WeightProfile,
    code_read_path,
    code_write,
    verify_code,
)
from .constructions import (
    ConstructionError,
    append_extend,
    builtin_code,
    builtin_names,
    complement_extend,
    concatenate,
    pseudo_product,
    qary_expand,
    reed_solomon,
)
from .designs import (
    DesignError,
    affine_plane,
    design_read_path,
    design_to_mcwc,
    design_write,
    one_factorization,
    verify_design,
)
from .gf import FieldError, field_for_order
from .pufsim import (
    ModelError,
    check_sweep_size,
    device_load,
    device_new,
    device_save,
    reliability_sweep,
)


class UsageError(ValueError):
    """A command-line value that parses but cannot be used."""


USAGE_ERRORS = (
    UsageError,
    OSError,  # every path the CLI opens is named on its command line
    ReferenceFormatError,
    CodeError,
    ConstructionError,
    DesignError,
    FieldError,
    ModelError,
    DomainError,
    SearchSpaceError,
)


class VerificationFailure(Exception):
    pass


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args: argparse.Namespace, inputs: list[str]) -> str:
    # The output path is where the artifact lands, not part of what it is;
    # the subcommand has its own top-level key.
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "command") and v is not None
    }
    payload = {
        "tool": f"mcwc {__version__}",
        "command": args.command,
        "params": params,
        "inputs": {path: _sha256(path) for path in sorted(inputs)},
    }
    return "manifest: " + json.dumps(payload, sort_keys=True)


def _write_output(out: str | None, render, manifest: str) -> None:
    """render(f) writes the payload; manifest goes first as a comment."""
    if out is None:
        sys.stdout.write(f"# {manifest}\n")
        render(sys.stdout)
    else:
        with open(out, "w") as f:
            f.write(f"# {manifest}\n")
            render(f)


def _resolve_binary(spec: str, inputs: list[str]) -> BinaryCode:
    if spec.startswith("builtin:"):
        return builtin_code(spec[len("builtin:"):])
    inputs.append(spec)
    code = code_read_path(spec)
    if not isinstance(code, BinaryCode):
        raise CodeError(f"{spec} is not a binary code file")
    return code


def _resolve_qary(spec: str, inputs: list[str]) -> QaryCode:
    """A q-ary code file; a binary one with no profile is read as q=2 symbols."""
    inputs.append(spec)
    code = code_read_path(spec)
    if isinstance(code, BinaryCode) and code.profile is None:
        import numpy as np

        bits = np.unpackbits(code.words, axis=1, count=code.length)
        code = QaryCode.from_words(bits, 2, code.length, code.claimed_distance)
    if not isinstance(code, QaryCode):
        raise CodeError(f"{spec} is not a q-ary code file")
    return code


FAMILIES = ("affine", "one-factor")


def _family_design(args):
    """The --family design: affine reads its order from --q, one-factor from --v."""
    affine = args.family == "affine"
    order, unread = (args.q, args.v) if affine else (args.v, args.q)
    flag, other = ("--q", "--v") if affine else ("--v", "--q")
    if unread is not None:
        raise UsageError(f"--family {args.family} takes {flag}, not {other}")
    if order is None:
        raise UsageError(f"--family {args.family} needs {flag}")
    return affine_plane(order) if affine else one_factorization(order)


# ---------- construct ----------

def _cmd_construct(args) -> int:
    inputs: list[str] = []
    method = args.method
    if method == "concat":
        result = concatenate(_resolve_qary(args.outer, inputs), _resolve_binary(args.inner, inputs))
    elif method == "pseudo-product":
        result = pseudo_product(_resolve_binary(args.cwc, inputs), _resolve_binary(args.sys, inputs))
    elif method == "complement":
        result = complement_extend(_resolve_binary(args.code, inputs))
    elif method == "append":
        result = append_extend(args.k, _resolve_binary(args.cwc, inputs))
    elif method == "qary-expand":
        result = qary_expand(_resolve_qary(args.code, inputs), args.w)
    elif method == "rs":
        if args.w is not None and not args.expand:
            raise UsageError("--w is the expansion's block weight: it needs --expand")
        rs = reed_solomon(field_for_order(args.q), args.len, args.d)
        if args.expand:
            if args.w is None:
                args.w = 1
            result = qary_expand(rs, args.w)
        else:
            manifest = _manifest(args, inputs)
            _write_output(args.out, lambda f: code_write(f, rs), manifest)
            print(f"method=rs q={args.q} len={args.len} d={args.d} size={len(rs.words)}")
            return 0
    elif method == "design":
        if args.file:
            if args.q is not None or args.v is not None:
                raise UsageError("--file takes no --q or --v: the file fixes the design")
            design = design_read_path(args.file)
            inputs.append(args.file)
        else:
            design = _family_design(args)
        result = design_to_mcwc(design)
    else:  # pragma: no cover - argparse restricts choices
        raise ConstructionError(f"unknown method {method}")

    code = result.code
    manifest = _manifest(args, inputs)
    comments = [f"provenance: {result.provenance}"]
    _write_output(args.out, lambda f: code_write(f, code, comments), manifest)
    md = result.report.min_distance
    print(
        f"method={method} size={len(code.words)} length={code.length} "
        f"profile={code.profile.describe() if code.profile else 'none'} "
        f"guaranteed_d={result.guaranteed_distance} verified_min_d={md}"
    )
    return 0


# ---------- verify ----------

def _cmd_verify(args) -> int:
    code = code_read_path(args.file)
    if args.d is not None or args.profile is not None:
        claimed = args.d if args.d is not None else code.claimed_distance
        if isinstance(code, BinaryCode):
            profile = WeightProfile.parse(args.profile) if args.profile else code.profile
            code = BinaryCode(code.length, code.words, claimed, profile)
        elif args.profile is not None:
            raise CodeError(f"{args.file} is a q-ary code: --profile applies to binary codes only")
        else:
            code = QaryCode(code.q, code.length, code.words, claimed)
    report = verify_code(code)
    payload = {
        "file": args.file,
        "size": len(code.words),
        "claimed_distance": code.claimed_distance,
        "min_distance": "inf" if report.min_distance == float("inf") else int(report.min_distance),
        "profile_violations": list(report.profile_violations),
        "closest_pair": report.closest_pair,
        "passed": report.passed,
    }
    print(json.dumps(payload, sort_keys=True))
    if not report.passed:
        raise VerificationFailure(report.summary())
    return 0


# ---------- design ----------

def _cmd_design_verify(args) -> int:
    design = design_read_path(args.file)
    verify_design(design, require_complete=not args.partial)
    expected = design.expected_class_count()
    print(
        f"design v={design.v} k={design.k} t={design.t} classes={len(design.classes)} "
        f"expected_classes={'over-cap' if expected is None else expected} ok"
    )
    return 0


def _cmd_design_make(args) -> int:
    design = _family_design(args)
    manifest = _manifest(args, [])
    _write_output(args.out, lambda f: design_write(f, design), manifest)
    print(f"design v={design.v} k={design.k} t={design.t} classes={len(design.classes)}")
    return 0


# ---------- bound / table ----------

def _references(args, inputs: list[str]) -> ReferenceStore | None:
    if getattr(args, "refs", None):
        inputs.append(args.refs)
        with open(args.refs) as f:
            return ReferenceStore.from_csv(f.read())
    return None


def _search_limits(args, budget: int, cap: int) -> tuple[int, int]:
    """--budget and --vertex-cap, or the given defaults; each must be >= 0."""
    budget = args.budget if args.budget is not None else budget
    cap = args.vertex_cap if args.vertex_cap is not None else cap
    _check_least("--budget", [budget], 0)
    _check_least("--vertex-cap", [cap], 0)
    return budget, cap


def _check_least(flag: str, values: list[int], least: int) -> None:
    if min(values) < least:
        raise UsageError(f"{flag} must be >= {least}, got {min(values)}")


def _check_cells(m_values: list[int], n_values: list[int], w_values: list[int]) -> None:
    _check_least("--m", m_values, 1)
    _check_least("--n", n_values, 0)
    _check_least("--w", w_values, 0)


def _cmd_bound(args) -> int:
    inputs: list[str] = []
    _check_cells([args.m], [args.n], [args.w])
    budget, cap = _search_limits(args, DEFAULT_NODE_BUDGET, DEFAULT_VERTEX_CAP)
    table = BoundTable(_references(args, inputs))
    cell = (args.m, args.n, args.d, args.w)
    if evaluate_cell(table, *cell, vertex_cap=cap):
        search_cells(table, [cell], node_budget=budget, vertex_cap=cap)
    lo, lo_prov = table.best_lower(cell)
    hi, hi_prov = table.best_upper(cell)
    hi_txt = "inf" if hi == float("inf") else str(int(hi))
    status = "exact" if table.exact_value(cell) is not None else "range"
    print(f"lower={int(lo)} upper={hi_txt} {status}")
    print(f"lower_provenance={lo_prov}")
    print(f"upper_provenance={hi_prov}")
    if args.exact and status != "exact":
        raise SearchSpaceError("exact value not established within budget")
    return 0


def _parse_range(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad range {spec!r}: use LO..HI or a comma list") from exc
    if not values:
        raise UsageError(f"range {spec!r} is empty")
    return values


def _cmd_table(args) -> int:
    inputs: list[str] = []
    m_values, n_values, w_values = (_parse_range(r) for r in (args.m, args.n, args.w))
    _check_cells(m_values, n_values, w_values)
    d_values = _parse_range(args.d) if args.d else None
    budget, cap = _search_limits(args, TABLE_NODE_BUDGET, TABLE_VERTEX_CAP)
    refs = _references(args, inputs)
    table = table_build(
        m_values,
        n_values,
        w_values,
        d_values,
        references=refs,
        node_budget=budget,
        vertex_cap=cap,
    )
    manifest = _manifest(args, inputs)
    _write_output(args.out, lambda f: table.write_csv(f), manifest)
    print(f"cells={len(table.cells())}")
    return 0


# ---------- curves ----------

# Most points one curves call evaluates per curve.
CURVE_POINT_CAP = 100_000


def _cmd_curves(args) -> int:
    names = args.curves.split(",") if args.curves else None
    start, end, step = args.grid_start, args.grid_end, args.grid_step
    if not all(math.isfinite(x) for x in (start, end, step)):
        raise UsageError(
            f"--grid-start, --grid-end and --grid-step must be finite, got {start}, {end}, {step}"
        )
    if end < start:
        raise UsageError(f"--grid-end {end} is below --grid-start {start}")
    if step <= 0:
        raise UsageError(f"--grid-step must be positive, got {step}")
    # Counted in floats, so a tiny step is refused before any point is built.
    steps = (end - start) / step
    if steps + 1 > CURVE_POINT_CAP:
        raise UsageError(
            f"--grid-step {step} gives {steps + 1:.3g} points over [{start}, {end}]; "
            f"the cap is {CURVE_POINT_CAP}, use a larger step"
        )
    grid = [start + i * step for i in range(round(steps) + 1)]
    grid = [t for t in grid if t <= end + 1e-12]
    rows = emit_curves(grid, names)
    if not rows:
        raise UsageError(f"no point of [{start}, {end}] lies in the domain of any chosen curve")
    manifest = _manifest(args, [])
    _write_output(args.out, lambda f: write_curves_csv(f, rows), manifest)
    print(f"rows={len(rows)} curves={len(set(r[0] for r in rows))}")
    return 0


# ---------- puf-sim ----------

# Device model values puf-sim draws a device with; a loaded device carries its own.
MODEL_DEFAULTS = {"s_eps": 1e-3, "mu0": 1.0, "mu1": 1.05}


def _cmd_puf_sim(args) -> int:
    if args.load_device:
        given = [name for name in MODEL_DEFAULTS if getattr(args, name) is not None]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise UsageError(f"{flags}: --load-device takes the device model from its file")
    else:
        for name, value in MODEL_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
    inputs = [args.code]
    code = code_read_path(args.code)
    if not isinstance(code, BinaryCode) or code.profile is None:
        raise CodeError("puf-sim needs a binary code file with a weight profile")
    check_sweep_size(len(code.words), args.trials)
    report = verify_code(code)
    if not report.passed:
        raise VerificationFailure(f"code fails its own claims: {report.summary()}")

    if args.load_device:
        dev = device_load(args.load_device)
        inputs.append(args.load_device)
    else:
        dev = device_new(code.profile.m, code.profile.parts[0][0], (args.mu0, args.mu1),
                         s_eps=args.s_eps, seed=args.seed)
    sweep = reliability_sweep(dev, code, args.noise, args.trials, seed=args.seed)

    counts = Counter(p.distance for p in sweep.pairs if p.usable)

    def render(f):
        for dist, mean in sweep.bucket_means.items():
            f.write(f"# bucket distance={dist} pairs={counts[dist]} mean_flip_rate={mean:.6g}\n")
        f.write("pair_index,distance,flip_rate\n")
        for p in sweep.pairs:
            rate = "nan" if not p.usable else f"{p.flip_rate:.6g}"
            f.write(f"{p.pair_index},{p.distance},{rate}\n")

    _write_output(args.out, render, _manifest(args, inputs))
    # Saved last, so a run refused at any step, --out included, leaves no device.
    if args.save_device:
        device_save(args.save_device, dev)
    buckets = " ".join(f"{d}:{r:.4g}" for d, r in sweep.bucket_means.items())
    print(f"pairs={len(sweep.pairs)} trials={args.trials} buckets[{buckets}]")
    return 0


# ---------- parser ----------

class _Parser(argparse.ArgumentParser):
    """A parser, and its subparsers, that match no option by prefix: without
    this, an option a subcommand does not take could be read as a longer one
    it does take (puf-sim --n as --noise)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcwc",
        description="Constructions, bounds, rate curves and a loop-PUF simulator "
        "for multiply constant-weight codes.",
    )
    parser.add_argument("--version", action="version", version=f"mcwc {__version__}")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default: stdout)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, help="search node budget")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--q", type=int, help="affine plane order (--family affine)")
    family.add_argument("--v", type=int, help="one-factorization point count (--family one-factor)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and verify a code")
    ps = p.add_subparsers(dest="method", required=True)
    c = ps.add_parser("concat", parents=[out])
    c.add_argument("--outer", required=True, help="q-ary outer code file")
    c.add_argument("--inner", required=True, help=f"inner code: file or builtin:<{'|'.join(builtin_names())}>")
    c = ps.add_parser("pseudo-product", parents=[out])
    c.add_argument("--cwc", required=True, help="systematic constant-weight ingredient")
    c.add_argument("--sys", required=True, help="systematic binary ingredient")
    c = ps.add_parser("complement", parents=[out])
    c.add_argument("--code", required=True, help="systematic binary ingredient")
    c = ps.add_parser("append", parents=[out])
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--cwc", required=True)
    c = ps.add_parser("qary-expand", parents=[out])
    c.add_argument("--code", required=True, help="q-ary code file")
    c.add_argument("--w", type=int, required=True, help="block weight")
    c = ps.add_parser("rs", parents=[out])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--len", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--expand", action="store_true", help="also apply q-ary expansion")
    c.add_argument("--w", type=int, help="expansion block weight (needs --expand; default 1)")
    c = ps.add_parser("design", parents=[out, family])
    source = c.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=FAMILIES)
    source.add_argument("--file", help="load an externally found design")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a code file")
    p.add_argument("file")
    p.add_argument("--d", type=int, help="override the claimed distance")
    p.add_argument("--profile", help="override the profile, e.g. 4:2,4:2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("design", help="generate or verify designs")
    ps = p.add_subparsers(dest="action", required=True)
    c = ps.add_parser("make", parents=[out, family])
    c.add_argument("--family", choices=FAMILIES, required=True)
    c.set_defaults(func=_cmd_design_make)
    c = ps.add_parser("verify")
    c.add_argument("file", help="design file")
    c.add_argument("--partial", action="store_true",
                   help="accept a partial resolution (t-subsets covered at most once)")
    c.set_defaults(func=_cmd_design_verify)

    p = sub.add_parser("bound", parents=[budget], help="bounds for one cell")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="fail unless the value is pinned down")
    p.add_argument("--vertex-cap", type=int)
    p.add_argument("--refs", help="reference-value CSV to ingest")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", parents=[out, budget], help="tabulate bounds over ranges")
    p.add_argument("--m", required=True, help="range, e.g. 1..3 or 2")
    p.add_argument("--n", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--d", help="optional distance range; default: all even d <= m*n")
    p.add_argument("--vertex-cap", type=int)
    p.add_argument("--refs")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("curves", parents=[out], help="asymptotic rate curves")
    p.add_argument("--grid-start", type=float, default=0.001)
    p.add_argument("--grid-end", type=float, default=0.499)
    p.add_argument("--grid-step", type=float, default=0.001)
    p.add_argument("--curves", help=f"comma list from: {','.join(curve_names())}")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("puf-sim", parents=[out], help="loop-PUF reliability simulation")
    p.add_argument("--code", required=True, help="verified MCWC file")
    p.add_argument("--s-eps", type=float, help="element offset scale (default 1e-3)")
    p.add_argument("--noise", type=float, default=1e-3, help="measurement noise scale")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--mu0", type=float, help="row element delay under bit 0 (default 1.0)")
    p.add_argument("--mu1", type=float, help="row element delay under bit 1 (default 1.05)")
    p.add_argument("--save-device", help="write the device drawn or loaded, after the output")
    p.add_argument("--load-device", help="device file; its model replaces --s-eps, --mu0, --mu1")
    p.set_defaults(func=_cmd_puf_sim)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"error: verification-failure: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"error: consistency-violation: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
