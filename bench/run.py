"""attlab benchmark: one workload at one seed, through the ``attlab`` CLI entry point.

    python3 bench/run.py --workload estimate_cli --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.bench_build/``. Every operation calls
``attlab.cli.main([...])`` in-process, and its outputs are checked against
the JSON schema, against each other, and, at the development seed, against
``bench/references.json``. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracer installed. With ``--trace 1`` every second operation runs with spans
around each layer's public functions, and the run reports the per-layer
metrics of those operations, plus ``trace.overhead_s``: the traced minus the
untraced operations' wall time. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, before numpy is imported: two pool workers must
# not run four BLAS threads on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
if not (SRC / "attlab" / "__init__.py").is_file():
    sys.exit(f"error: package source not found at {SRC / 'attlab'}; run from an attlab source checkout")
sys.path.insert(0, str(SRC))

import jsonschema  # noqa: E402
import numpy  # noqa: E402

import attlab  # noqa: E402
import attlab.cli  # noqa: E402

import tracing  # noqa: E402

DEV_SEED = 1  # the seed the references were made at and the benchmark was tuned on
HELD_OUT_SEED = 7919  # never used while tuning; check performance claims on it too
REFERENCES = Path(__file__).with_name("references.json")
SCHEMA = SRC / "attlab" / "report_schema.json"

# Outputs may differ from the references only in the last bits.
REL_TOL = 1e-12
ABS_TOL = 1e-15

SETUP_REPS = 11  # set-ups per run, spread over it; setup_s is their median
MIN_OPS = 4  # operations per timed phase, at least, so that op_s averages over several

ESTIMATE_FIELDS = ("point", "ci_low", "ci_high", "mean_observed", "mean_predicted", "n_failed_replicates")
BIAS_FIELDS = ("scenario", "n_replicates", "n_failed", "mean_bias", "sd_bias", "mean_estimate",
               "mean_truth", "rmse", "coverage", "mean_nc_difference", "nc_negative_fraction",
               "verdict_counts")


class CheckError(Exception):
    """An operation's output is missing, malformed, or differs from what it must be."""


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``attlab.cli.main`` (looked up at call time, so a tracer can wrap it)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = attlab.cli.main(argv)
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    nominal_op_s: float  # one operation's wall time on 2 cores at the defining commit
    worlds_per_op: int  # an estimate invocation analyses one world
    workers: int
    prepare: Callable[[Path, int], dict]
    argv: Callable[["Workload", dict, Path, int], list[str]]
    read: Callable[[Path], tuple[object, int]]  # checked outputs and failed worlds

    def n_ops(self, seconds: float) -> int:
        return max(MIN_OPS, round(seconds / self.nominal_op_s))


def _no_inputs(work: Path, seed: int) -> dict:
    return {}


def _write_world(work: Path, seed: int) -> dict:
    out = work / "inputs"
    code, log = _cli(["generate", "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"attlab generate failed with exit code {code}:\n{log}")
    return {"pre": out / "pre.csv", "post": out / "post.csv"}


def _estimate_argv(wl: Workload, ctx: dict, out: Path, seed: int) -> list[str]:
    return ["estimate", "--pre", str(ctx["pre"]), "--post", str(ctx["post"]), "--seed", str(seed),
            "--scale", "rd", "--scale", "rr", "--scale", "or",
            "--bootstrap", "full", "--replicates", "2000", "--out", str(out)]


def _sweep_argv(wl: Workload, ctx: dict, out: Path, seed: int) -> list[str]:
    return ["simulate", "--scenario", "all", "--replicates", str(wl.worlds_per_op // 5),
            "--seed", str(seed), "--threads", str(wl.workers), "--out", str(out)]


def _coverage_argv(wl: Workload, ctx: dict, out: Path, seed: int) -> list[str]:
    return ["simulate", "--scenario", "baseline", "--with-coverage", "--boot-replicates", "500",
            "--replicates", str(wl.worlds_per_op), "--seed", str(seed),
            "--threads", str(wl.workers), "--out", str(out)]


_VALIDATOR = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))


def _read_estimate(out: Path) -> tuple[object, int]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    errors = sorted(_VALIDATOR.iter_errors(report), key=str)
    if errors:
        raise CheckError(f"report.json does not match the schema: {errors[0].message}")
    estimates = report["estimates"]
    if sorted(estimates) != ["or", "rd", "rr"]:
        raise CheckError(f"expected estimates for rd, rr and or, got {sorted(estimates)}")
    return {scale: {k: estimates[scale][k] for k in ESTIMATE_FIELDS} for scale in sorted(estimates)}, 0


def _read_bias_report(out: Path) -> tuple[object, int]:
    data = json.loads((out / "bias_report.json").read_text(encoding="utf-8"))
    if data["failures"]:
        raise CheckError(f"scenario failures: {data['failures']}")
    reports = [{k: r[k] for k in BIAS_FIELDS} for r in data["reports"]]
    for r in reports:
        numbers = [r[k] for k in BIAS_FIELDS[1:-1] if r[k] is not None]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers):
            raise CheckError(f"non-numeric or non-finite field in the {r['scenario']} report")
    return reports, sum(r["n_failed"] for r in reports)


# Why each workload was chosen, and which layer metrics should move it: bench/README.md.
WORKLOADS = {wl.name: wl for wl in (
    Workload("estimate_cli", nominal_op_s=9.0, worlds_per_op=1, workers=1, prepare=_write_world,
             argv=_estimate_argv, read=_read_estimate),
    Workload("lab_sweep", nominal_op_s=1.9, worlds_per_op=50, workers=1, prepare=_no_inputs,
             argv=_sweep_argv, read=_read_bias_report),
    Workload("lab_coverage", nominal_op_s=6.5, worlds_per_op=16, workers=min(2, len(os.sched_getaffinity(0))),
             prepare=_no_inputs, argv=_coverage_argv, read=_read_bias_report),
)}


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------

@dataclass
class Op:
    seconds: float
    cpu_s: float
    worlds: int
    failed_worlds: int = 0
    output: object = None
    error: str | None = None
    traced: bool = False


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


class SetUps:
    """The run's SETUP_REPS set-ups: one before the first operation, the rest between operations.

    A set-up is a fresh interpreter importing attlab, then the workload's
    inputs. On a shared host core speed drifts over tens of seconds, so
    set-ups made in one burst would all see one moment's speed; spread over
    the run, their median sees the same mix of speeds as the operations.
    Set-ups are never inside an operation's timing.
    """

    def __init__(self, wl: Workload, work: Path, seed: int):
        self.wl, self.work, self.seed = wl, work, seed
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.times: list[float] = []

    def run(self) -> dict:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import attlab.cli"], env=self.env, check=True)
        ctx = self.wl.prepare(self.work / f"setup-{len(self.times)}", self.seed)
        self.times.append(time.perf_counter() - t0)
        return ctx

    def after_op(self, i: int, n_ops: int) -> None:
        """Operation ``i``'s even share of the set-ups left after the first."""
        left = SETUP_REPS - 1
        for _ in range((i + 1) * left // n_ops - i * left // n_ops):
            self.run()

    def median_s(self) -> float:
        return statistics.median(self.times)


def run_op(wl: Workload, ctx: dict, out: Path, seed: int) -> Op:
    """One timed CLI invocation; its failure or wrong output is counted, never raised."""
    argv = wl.argv(wl, ctx, out, seed)
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        code, log = _cli(argv)
        error = None if code == 0 else f"exit code {code}: {log.strip()[-500:]}"
    except (Exception, SystemExit) as exc:  # an operation's crash is a result, not the end of the run
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    op = Op(seconds=time.perf_counter() - t0, cpu_s=_cpu_s() - cpu0, worlds=wl.worlds_per_op)
    if error is None:
        try:
            op.output, op.failed_worlds = wl.read(out)
        except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    op.error = error
    return op


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b and type(a) is type(b)


def check_ops(ops: list[Op], reference) -> None:
    """Repeated operations on the same inputs must agree exactly, and match the reference if any."""
    first = next((op.output for op in ops if op.error is None), None)
    for op in ops:
        if op.error is not None:
            continue
        if op.output != first:
            op.error = "output differs from the run's first operation on the same inputs"
        elif reference is not None and not _close(op.output, reference):
            op.error = "output differs from the reference beyond the last bits"


def run_ops(wl: Workload, ctx: dict, seed: int, n_ops: int, work: Path, reference,
            tracer: tracing.Tracer | None, setups: SetUps) -> list[Op]:
    """Run and check ``n_ops`` operations, with set-ups between them; with a
    tracer, every second operation is traced.

    Alternating traced and untraced operations lets slow drifts in machine
    speed cancel out of ``trace.overhead_s``.
    """
    ops = []
    for i in range(n_ops):
        traced = tracer is not None and i % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        op = run_op(wl, ctx, work / f"op-{i}", seed)
        op.traced = traced
        ops.append(op)
        if tracer is not None:
            tracer.enabled = False
        setups.after_op(i, n_ops)
    check_ops(ops, reference)
    for i, op in enumerate(ops):
        if op.error is not None:
            print(f"{wl.name} operation {i} FAILED: {op.error}", file=sys.stderr)
    print("operation seconds (* traced): "
          + " ".join(f"{op.seconds:.3f}{'*' if op.traced else ''}" for op in ops))
    return ops


def failed_count(op: Op) -> int:
    return op.worlds if op.error is not None else op.failed_worlds


def end_to_end(ops: list[Op], setup_s: float) -> dict[str, tuple[float, str]]:
    wall = sum(op.seconds for op in ops)
    attempted = sum(op.worlds for op in ops)
    failed = sum(failed_count(op) for op in ops)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        # The mean, not the median: on a shared host core speed can flip between a
        # fast and a slow phase, and a median of a few operations snaps to one of them.
        "op_s": (wall / len(ops), "s"),
        "worlds_per_s": ((attempted - failed) / wall, "1/s"),
        "cpu_s": (sum(op.cpu_s for op in ops), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "attlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(load_avg: tuple[float, float, float]) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "attlab": getattr(attlab, "__version__", None),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "load_avg_start": list(load_avg),
    }


def load_reference(workload: str, seed: int):
    if seed != DEV_SEED:
        return None
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"][workload]


def _print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")


def main(argv=None) -> int:
    load_avg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed phase length at the defining commit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    n_ops = wl.n_ops(args.seconds)
    if args.trace:
        n_ops += n_ops % 2  # as many traced operations as untraced ones
    reference = load_reference(wl.name, args.seed)
    print("env " + json.dumps(environment(load_avg), sort_keys=True))
    checked = "checked against references" if reference is not None else "no references"
    print(f"workload {wl.name}, seed {args.seed} ({checked}), "
          f"{n_ops} operations of {wl.worlds_per_op} world(s), {wl.workers} worker(s)")

    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=BUILD))
    try:
        setups = SetUps(wl, work, args.seed)
        ctx = setups.run()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        ops = run_ops(wl, ctx, args.seed, n_ops, work, reference, tracer, setups)
        plain = [op for op in ops if not op.traced]
        e2e = end_to_end(plain, setups.median_s())
        print(f"end-to-end ({len(plain)} untraced operations):")
        _print_metrics(e2e)
        extra = {"failed_frac": (1.0 - e2e["ok_frac"][0], "ratio")}
        if wl.name == "estimate_cli":
            extra["estimate_s"] = e2e["op_s"]
        _print_metrics(extra)
        metrics = e2e
        if tracer is not None:
            traced = [op for op in ops if op.traced]
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.overhead_s"] = (sum(op.seconds for op in traced) - e2e["wall_s"][0], "s")
            trace_path = BUILD / "traces" / f"{wl.name}-seed{args.seed}.json"
            tracer.write(trace_path)
            print(f"per-layer ({len(traced)} traced operations; spans in {trace_path.relative_to(ROOT)}):")
            _print_metrics(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": all(op.error is None for op in ops),
        "attempted": sum(op.worlds for op in ops),
        "failed": sum(failed_count(op) for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
