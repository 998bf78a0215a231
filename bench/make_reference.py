"""Store the values the current commit produces as the oracles' reference.

    python3 bench/make_reference.py

Run from the root of a checkout.  The grid oracles then reject any later
lower bound below, or upper bound above, these values; the construct oracle
rejects any change to the Reed-Solomon word sets.  Regenerate only when the
program's results are meant to change, and say so in the change.
"""

import shutil
import time
from pathlib import Path

from run import Runner
from workloads import make_plan, write_reference


def main() -> None:
    root = Path.cwd()
    for name in ("grid_search", "grid_rules", "construct"):
        for size in ("tiny", "full"):
            workdir = root / ".bench_work" / f"reference-{name}-{size}"
            workdir.mkdir(parents=True)
            try:
                plan = make_plan(name, 0, size, workdir)
                runner = Runner(root, workdir, time.monotonic())
                res = runner.child({"setup_only": False, "trace": False,
                                    "calls": plan.calls, "run_id": "reference"})
                bad = [c for c in res["calls"] if c["rc"] != 0 and c["label"] != "verify_bad"]
                if bad:
                    raise SystemExit(f"{name}/{size}: calls failed: {bad}")
                print(write_reference(name, size, workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
