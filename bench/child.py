"""One workload iteration in a fresh interpreter, so every ``lru_cache`` starts cold.

Usage: ``python3 bench/child.py JOB.json`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  ``mcwc.cli`` is imported before anything but the speed
probe, so the parent can time set-up from its spawn to the moment the import
is done.
The job file names the calls to make; the result, and the spans when
tracing, go to the job's result path once at exit.

While the import and each CLI call run, a speed probe samples how fast the
host runs Python (see ``SpeedProbe``); the result holds each one's time and
speed.

Exit codes: 0 result written, 3 ``mcwc`` could not be imported from the
checkout (the benchmark cannot run).
"""

import signal
import sys
import time

PROBE_INTERVAL_S = 0.02
SETUP_PROBE_INTERVAL_S = 0.005  # set-up takes about 0.25 s
PROBE_LOOPS = 600
# One probe's duration on an uncontended core of the 2-core Xeon VM (2.1 GHz,
# Python 3.11) the benchmark was tuned on; it fixes the unit of the corrected
# times (wall_ref_s, setup_s).
REF_PROBE_S = 3.0e-4


class _Box:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


_BOXES = [_Box(i) for i in range(64)]


def _distance(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def _probe_work() -> int:
    """A fixed mix of what the CLI's Python does: integer arithmetic, calls,
    attribute reads, small tuples and dict updates.  A tight arithmetic loop
    alone slows less under contention than the program does."""
    s = 0
    table: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        s += i * i % 7
        s += _distance(_BOXES[i & 63].x, i) + len((i, s))
        table[i & 255] = table.get(i & 127, 0) + (i * 2654435761) % 1000003
    return s


class SpeedProbe:
    """Samples how fast the host runs Python while one CLI call runs.

    On a shared host the same code runs up to 1.9 times slower while other
    tenants load the core, and that share shifts from second to second and
    from minute to minute, so medians of raw wall time drift by a quarter
    between runs.  Every ``PROBE_INTERVAL_S`` of wall time a SIGALRM handler
    times ``_probe_work``; the call's speed is the mean of
    ``REF_PROBE_S / probe`` over its probes, which are spread evenly over the
    call.  The parent scales the call's time by that speed (see run.py).
    Probe time is subtracted from the call's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy = False
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum=None, frame=None):
        if self.busy:  # a probe slower than the interval is not interrupted
            return
        self.busy = True
        t0 = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - t0)
        self.busy = False

    def start(self, interval: float = PROBE_INTERVAL_S):
        self.samples = []
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> tuple[float, float]:
        """Stop probing; returns (seconds spent in probes, mean speed)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        speed = sum(REF_PROBE_S / p for p in self.samples) / len(self.samples)
        return sum(self.samples), speed


_probe = SpeedProbe()
_t0 = time.perf_counter()
_probe.start(SETUP_PROBE_INTERVAL_S)
try:
    import mcwc.cli
except ImportError as exc:
    print(f"child: cannot import mcwc: {exc}", file=sys.stderr)
    sys.exit(3)
_import_probe_s, _import_speed = _probe.stop()
_import_done = time.monotonic()
_import_s = time.perf_counter() - _t0 - _import_probe_s

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_call(argv: list[str], out_path: str, err_path: str):
    """Call the CLI entry point in-process; returns its exit code, or "exception"."""
    with open(out_path, "w") as out, open(err_path, "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return mcwc.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc(file=err)
                return "exception"


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    src = os.path.realpath(job["src"])
    if not os.path.realpath(mcwc.__file__).startswith(src + os.sep):
        print(f"child: mcwc imported from {mcwc.__file__}, not from {src}", file=sys.stderr)
        return 3
    import numpy

    result = {
        "import_done": _import_done,
        "import_probe_s": _import_probe_s,
        "import_speed": _import_speed,
        "import_s": _import_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
        "calls": [],
    }
    if not job["setup_only"]:
        os.chdir(job["workdir"])
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer(job["run_id"])
            tracer.install()
        roots = {}
        probe = _probe
        wall = 0.0
        for i, call in enumerate(job["calls"]):
            if "corrupt" in call:
                from workloads import corrupt_code_file

                c = call["corrupt"]
                corrupt_code_file(Path(c["src"]), Path(c["dst"]), c["word"], c["bit"])
                continue
            if tracer is not None:
                roots[len(tracer.spans)] = call["label"]
            t0 = time.perf_counter()
            probe.start()
            rc = run_call(call["argv"], f"call{i}.out", f"call{i}.err")
            probed, speed = probe.stop()
            seconds = time.perf_counter() - t0 - probed
            wall += seconds
            result["calls"].append({"label": call["label"], "rc": rc, "seconds": seconds, "speed": speed})
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.dump()
            result["trace"]["call_labels"] = roots
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
