"""Rewrite bench/references.json: each workload's checked outputs at the development seed.

    python3 bench/make_references.py

Every workload runs once on one worker, so the two-worker outputs of
``lab_coverage`` are checked against a one-worker reference (the package's
determinism contract). Rerun only when a workload's operation changes; a
change to the package must keep matching the existing references.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    refs = {"seed": run.DEV_SEED, "workloads": {}}
    run.BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="references-", dir=run.BUILD))
    try:
        for wl in run.WORKLOADS.values():
            wl = dataclasses.replace(wl, workers=1)
            ctx = wl.prepare(work / wl.name, run.DEV_SEED)
            op = run.run_op(wl, ctx, work / wl.name / "out", run.DEV_SEED)
            if op.error is not None:
                print(f"{wl.name}: {op.error}", file=sys.stderr)
                return 1
            refs["workloads"][wl.name] = op.output
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
