"""Property-based fuzz of ``attlab.cli.main``.

Every subcommand runs on one tiny fixed world with flag and config-file
values drawn per option from the CLI's option table: valid values,
boundaries, negatives, NaN and infinity, empty strings and JSON values of
the wrong kind. Whatever the inputs, a run ends in exit 0, 2 or 3 with no
traceback, and a run that fails writes nothing (``simulate``'s exit 3
writes its complete report by design).

Counts stay small so that the whole module runs in well under a minute on
two cores: at most 200 patients, at most 200 bootstrap replicates, at most
3 worlds per ``simulate`` scenario, and ``--threads`` of 1 or 2 only.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attlab.cli import COMMANDS, MANDATORY, OPTIONS, main
from attlab.errors import Integer, OneOf, Real

# One file each command writes; the "blocked" --out holds a directory of that name.
TARGETS = {
    "generate": "truth.json",
    "fit": "model.json",
    "estimate": "report.json",
    "diagnose": "diagnostics.json",
    "sensitivity": "sensitivity.json",
    "simulate": "bias_report.csv",
}

# Options whose default would make a run too large: each run gives them, as a flag or in the config file.
ALWAYS_GIVEN = {"n_pre", "n_post", "replicates", "boot_replicates"}

EXAMPLES = {"generate": 80, "fit": 50, "estimate": 50, "diagnose": 50, "sensitivity": 40, "simulate": 20}

# Wrong JSON kinds hold no integer and the garbage texts none that parses as
# one, so that a wrong --threads never starts a worker.
WRONG_JSON = [None, True, "", "x", [], {}, 1.5, math.nan]
GARBAGE_TEXT = ["", "x", "nan", "-inf", "1.5", "1e3", "--"]
FLOATS = [0.0, -0.0, 0.5, 1.0, -1.0, 0.1, 30.0, 36.0, 80.0, 81.0, 1e-300, 1e308, -1e308,
          math.nan, math.inf, -math.inf]
GOOD_FLOATS = {
    "threshold": (0.02, 0.5),
    "dose_drift": (-10.0, 10.0),
    "confounder_strength": (-3.0, 3.0),
    "truncate_max": (45.0, 80.0),  # narrower windows are valid but slow to sample
    "nonlinearity": (-3.0, 3.0),
}


@pytest.fixture(scope="module")
def world():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert main(["generate", "--seed", "3", "--n-pre", "120", "--n-post", "80", "--out", str(out), "--quiet"]) == 0
        yield out


def good_value(command: str, dest: str, world: Path):
    """A strategy for values of the option ``dest`` that the command should accept."""
    option = OPTIONS[dest]
    if option.kind is bool:
        return st.booleans()
    if isinstance(option.kind, OneOf):
        one = st.sampled_from(option.kind.values)
        if not option.repeats:
            return one
        if command == "sensitivity" and dest == "variant":  # at least two distinct specs
            return st.lists(one, min_size=2, max_size=3, unique=True)
        return st.lists(one, min_size=1, max_size=1 if command == "sensitivity" else 3)  # it compares on one scale
    if isinstance(option.kind, Real):
        return st.floats(*GOOD_FLOATS[dest])
    if dest == "seed":
        return st.one_of(st.integers(0, 2**63), st.just(2**64))
    if dest == "threads":
        return st.sampled_from([1, 2])
    if dest == "replicates" and command == "simulate":
        return st.integers(1, 3)
    if dest in ("n_pre", "n_post"):
        return st.integers(30, 200)
    if isinstance(option.kind, Integer):
        return st.integers(100, 200)
    return st.just(str(world / f"{dest}.csv"))


def edge_value(command: str, dest: str, world: Path, in_config: bool):
    """A strategy for boundary, negative, non-finite, empty or wrongly kinded values of ``dest``."""
    option = OPTIONS[dest]
    junk = st.sampled_from(WRONG_JSON if in_config else GARBAGE_TEXT)
    if isinstance(option.kind, OneOf):
        one = st.sampled_from([*option.kind.values, "", "bogus"])
        return junk | (st.lists(one, max_size=3) if option.repeats else one)
    if isinstance(option.kind, Real):
        return junk | st.sampled_from(FLOATS) | st.floats()
    if dest == "threads" or option.kind is bool:
        return junk
    if isinstance(option.kind, Integer):
        return junk | st.sampled_from([-3, -1, 0, 1, 99])
    paths = [world / "pre.csv", world / "post.csv", world / "truth.json", world / "missing.csv", world]
    return junk | st.sampled_from([str(p) for p in paths] + [""])


def flag_tokens(dest: str, value) -> list[str]:
    flag = "--" + dest.replace("_", "-")
    if value is True or value is False:
        return [flag] if value else []
    return [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]


@st.composite
def invocations(draw, command: str, world: Path):
    """(argv, config-file values, raw config bytes or None, out mode, whether --out goes in the config)."""
    clean = draw(st.booleans())  # half the runs take good values only
    argv, config = [command], {}
    for dest, default in COMMANDS[command].defaults().items():
        if dest in ("config", "out"):
            continue
        edge = not clean and draw(st.sampled_from([False, False, False, True]))
        places = ["flag", "config"]
        if dest not in ALWAYS_GIVEN and (edge or default is not MANDATORY):
            places.append("absent")
        where = draw(st.sampled_from(places))
        if where == "absent":
            continue
        value = draw(edge_value(command, dest, world, where == "config") if edge else good_value(command, dest, world))
        if where == "config":
            config[dest] = value
        else:
            argv += flag_tokens(dest, value)
    raw = None if clean else draw(st.sampled_from([None] * 8 + [b"[]", b"{", b'{"seed": 1,}', b"\xff"]))
    out_mode = draw(st.sampled_from(["fresh", "fresh", "file", "blocked"]))
    return argv, config, raw, out_mode, draw(st.booleans())


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def run(command: str, world: Path, invocation) -> None:
    argv, config, raw, out_mode, out_in_config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        if out_mode == "file":
            out.write_bytes(b"keep")
        elif out_mode == "blocked":
            (out / TARGETS[command]).mkdir(parents=True)
        if out_in_config:
            config["out"] = str(out)
        else:
            argv = [*argv, "--out", str(out)]
        if config or raw is not None:
            path = root / "config.json"
            path.write_bytes(raw if raw is not None else json.dumps(config).encode("utf-8"))
            argv = [*argv, "--config", str(path)]
        before = snapshot(root)

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        err = stderr.getvalue()
        assert code in (0, 2, 3), (argv, config, code, err)
        assert "Traceback" not in err, err
        if code != 0 and not (command == "simulate" and code == 3):
            assert snapshot(root) == before, (argv, config, code, err)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_never_crashes_and_a_failure_writes_nothing(world, command):
    @settings(max_examples=EXAMPLES[command], suppress_health_check=[HealthCheck.too_slow])
    @given(invocation=invocations(command, world))
    def check(invocation):
        run(command, world, invocation)

    check()
