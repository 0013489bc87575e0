"""Spans around attlab's public functions, installed from outside the package.

The tracer replaces a function at every ``attlab`` module that binds it, so
a call is recorded whichever module it goes through (``fit_logistic`` is
bound in both ``attlab.glm`` and ``attlab.estimator``). A function that does
not exist is skipped, and the metrics derived from it are left out.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` rows and
written out once, when the run ends. While ``Tracer.enabled`` is false the
wrappers only call through. Spans recorded inside forked pool workers stay
in those workers and are not collected.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.installed: set[str] = set()
        self.enabled = False
        self._stack: list[int] = []

    def _rebind(self, module: str, attr: str, make_wrapper) -> bool:
        """Replace ``module.attr`` at every attlab module binding the same object."""
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            return False
        wrapper = functools.wraps(original)(make_wrapper(original))
        for name, mod in list(sys.modules.items()):
            if name != "attlab" and not name.startswith("attlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return True

    def span(self, name: str, module: str, attr: str, annotate=None, children_cpu: bool = False) -> None:
        """Record a span named ``name`` around each call of ``module.attr``.

        ``annotate(result, args, kwargs)`` returns counts to keep on the span;
        ``children_cpu`` adds the CPU time of child processes reaped during
        the call.
        """
        tracer, spans, stack = self, self.spans, self._stack

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                index = len(spans)
                row = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
                spans.append(row)
                stack.append(index)
                cpu0 = _children_cpu_s() if children_cpu else 0.0
                try:
                    result = fn(*args, **kwargs)
                finally:
                    row[2] = time.perf_counter()
                    stack.pop()
                attrs = annotate(result, args, kwargs) if annotate is not None else {}
                if children_cpu:
                    attrs["children_cpu_s"] = _children_cpu_s() - cpu0
                row[4] = attrs or None
                return result

            return wrapper

        if self._rebind(module, attr, make_wrapper):
            self.installed.add(name)

    def count_calls_of_result(self, name: str, module: str, attr: str) -> None:
        """Count calls of the function that ``module.attr`` returns."""
        tracer, counts = self, self.counts
        counts.setdefault(name, 0)

        def make_wrapper(factory):
            def wrapper(*args, **kwargs):
                fn = factory(*args, **kwargs)
                if not tracer.enabled:
                    return fn

                def counted(*a, **k):
                    counts[name] += 1
                    return fn(*a, **k)

                return counted

            return wrapper

        if self._rebind(module, attr, make_wrapper):
            self.installed.add(name)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time (outermost spans only), self time, attribute sums."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
                                for name in self.installed}
        for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child_s[i]
            if parent < 0 or self.spans[parent][0] != name:
                entry["total_s"] += t1 - t0
            for key, value in (attrs or {}).items():
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")


def _rows(result, args, kwargs) -> dict:
    return {"rows": len(result[0]) if isinstance(result, tuple) else len(result)}


def _fit(result, args, kwargs) -> dict:
    rows, n_iter = getattr(result, "n_obs", 0), getattr(result, "n_iter", 0)
    return {"n_iter": n_iter, "row_iters": rows * n_iter,
            "nonconverged": int(not getattr(result, "converged", True))}


def _bootstrap(result, args, kwargs) -> dict:
    config = getattr(result, "bootstrap", None)
    return {"replicates": getattr(config, "n_replicates", 0),
            "failed_replicates": getattr(result, "n_failed_replicates", 0)}


def _scenario(result, args, kwargs) -> dict:
    workers = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    return {"replicates": getattr(result, "n_replicates", 0),
            "failed_replicates": getattr(result, "n_failed", 0), "workers": workers}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each attlab layer; call after importing ``attlab``."""
    tracer.span("cli.main", "attlab.cli", "main")
    tracer.span("records.read", "attlab.records", "read_cohort_csv", _rows)
    tracer.span("records.validate", "attlab.records", "validate")
    tracer.span("synth.generate", "attlab.synth", "generate")
    tracer.span("synth.true_att", "attlab.synth", "true_att")
    tracer.span("selection.assign", "attlab.selection", "assign")
    tracer.count_calls_of_result("selection.risk_calls", "attlab.synth", "make_true_risk_fn")
    tracer.span("glm.fit_model", "attlab.glm", "fit_model")
    tracer.span("glm.fit", "attlab.glm", "fit_logistic", _fit)
    tracer.span("glm.build_design", "attlab.glm", "build_design", _rows)
    tracer.span("glm.predict", "attlab.glm", "predict_risk")
    tracer.span("glm.predict", "attlab.glm", "predict_design")
    tracer.span("estimator.bootstrap", "attlab.estimator", "bootstrap_ci", _bootstrap)
    tracer.span("estimator.estimate_att", "attlab.estimator", "estimate_att")
    tracer.span("diagnostics.positivity", "attlab.diagnostics", "positivity_report")
    tracer.span("diagnostics.negative_control", "attlab.diagnostics", "negative_control_check")
    tracer.span("diagnostics.dose_transport", "attlab.diagnostics", "dose_transport_check")
    tracer.span("violations.scenario", "attlab.violations", "run_scenario", _scenario, children_cpu=True)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``; absent functions give absent metrics."""
    s = tracer.summary()
    out: dict[str, tuple[float, str]] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    if "glm.fit" in s:
        fit = s["glm.fit"]
        iters, row_iters = fit["attrs"].get("n_iter", 0), fit["attrs"].get("row_iters", 0)
        out.update({
            "glm.fit_s": (fit["total_s"], "s"),
            "glm.fit_calls": (fit["calls"], "count"),
            "glm.irls_iters": (iters, "count"),
            "glm.iters_per_fit": (ratio(iters, fit["calls"]), "ratio"),
            "glm.row_iters": (row_iters, "count"),
            "glm.ns_per_row_iter": (ratio(fit["total_s"] * 1e9, row_iters), "ns"),
            "glm.nonconverged": (fit["attrs"].get("nonconverged", 0), "count"),
        })
    if "glm.build_design" in s:
        design = s["glm.build_design"]
        out.update({
            "glm.build_design_s": (design["total_s"], "s"),
            "glm.build_design_calls": (design["calls"], "count"),
            "glm.build_design_rows": (design["attrs"].get("rows", 0), "count"),
        })
    if "glm.predict" in s:
        out["glm.predict_s"] = (s["glm.predict"]["total_s"], "s")
    if "estimator.bootstrap" in s:
        boot = s["estimator.bootstrap"]
        out.update({
            "estimator.bootstrap_s": (boot["total_s"], "s"),
            "estimator.bootstrap_self_s": (boot["self_s"], "s"),
            "estimator.bootstrap_calls": (boot["calls"], "count"),
            "estimator.replicates": (boot["attrs"].get("replicates", 0), "count"),
            "estimator.failed_replicates": (boot["attrs"].get("failed_replicates", 0), "count"),
        })
    if "estimator.estimate_att" in s:
        out["estimator.estimate_att_s"] = (s["estimator.estimate_att"]["total_s"], "s")
    if "synth.generate" in s:
        gen = s["synth.generate"]
        out.update({
            "synth.generate_s": (gen["total_s"], "s"),
            "synth.generate_self_s": (gen["self_s"], "s"),
            "synth.generate_calls": (gen["calls"], "count"),
        })
    if "synth.true_att" in s:
        out["synth.true_att_s"] = (s["synth.true_att"]["total_s"], "s")
    if "selection.assign" in s:
        out["selection.assign_s"] = (s["selection.assign"]["total_s"], "s")
    if "selection.risk_calls" in tracer.installed:
        out["selection.risk_calls"] = (tracer.counts["selection.risk_calls"], "count")
    if "records.read" in s:
        out["records.read_s"] = (s["records.read"]["total_s"], "s")
        out["records.read_calls"] = (s["records.read"]["calls"], "count")
    if "records.validate" in s:
        out["records.validate_s"] = (s["records.validate"]["total_s"], "s")
    checks = [n for n in ("diagnostics.positivity", "diagnostics.negative_control",
                          "diagnostics.dose_transport") if n in s]
    for name in checks:
        out[name + "_s"] = (s[name]["total_s"], "s")
    if checks:
        out["diagnostics.calls"] = (sum(s[n]["calls"] for n in checks), "count")
    if "violations.scenario" in s:
        scen = s["violations.scenario"]
        worker_cpu = scen["attrs"].get("children_cpu_s", 0.0)
        worker_s = sum((t1 - t0) * (attrs or {}).get("workers", 1)
                       for name, t0, t1, _, attrs in tracer.spans if name == "violations.scenario")
        out.update({
            "violations.scenario_s": (scen["total_s"], "s"),
            "violations.replicates": (scen["attrs"].get("replicates", 0), "count"),
            "violations.failed_replicates": (scen["attrs"].get("failed_replicates", 0), "count"),
            "violations.worker_cpu_s": (worker_cpu, "s"),
            "violations.parallel_eff": (ratio(worker_cpu, worker_s), "ratio"),
        })
    if "cli.main" in s:
        out["cli.self_s"] = (s["cli.main"]["self_s"], "s")
    return out
