"""Span tracing at moddeg's public functions, and the per-layer metrics
derived from the spans.

The tracer wraps each traced function in every moddeg module namespace
that holds it, so calls between modules are seen too (`period_data` is
called from `report` and from inside `agm.lemma1_check`).  Modules are
resolved through importlib, because the package re-exports functions
under its submodules' names (`moddeg.agm` as an attribute is the
function `agm`).

A span is (id, parent id, name, start ns, end ns, record id).  Spans are
kept in memory and written out when the traced phase ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function) pairs, named "<module>.<function>" in spans.
TRACED = (
    ("cli", "cmd_bound"),
    ("cli", "cmd_invariants"),
    ("cli", "cmd_verify_lemmas"),
    ("report", "parse_record"),
    ("report", "build_report"),
    ("report", "dumps_report"),
    ("report", "squared_primes"),
    ("agm", "period_data"),
    ("agm", "lemma1_check"),
    ("curves", "derive_invariants"),
    ("curves", "two_torsion_roots"),
    ("curves", "trace_of_frobenius"),
    ("fudge", "fudge_factor_for"),
    ("bounds", "theorem1"),
    ("bounds", "theorem2"),
    ("bounds", "linear_bounds"),
    ("zerofree", "certify_noncm"),
    ("zerofree", "certify_cm_qi"),
    ("zerofree", "certify_cm_zeta3"),
    ("lvalue", "lemma4_certify"),
    ("lvalue", "symsq_value_estimate"),
    ("specfun", "lemma4_error_integral"),
    ("specfun", "error_integrand"),
)

# A call to one of these starts a new record: its spans and those of the
# calls it makes share the record id.
RECORD_OPENERS = frozenset(
    {
        "cli.cmd_bound",
        "cli.cmd_invariants",
        "cli.cmd_verify_lemmas",
        "report.parse_record",
        "lvalue.symsq_value_estimate",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._record = 0
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        opens = name in RECORD_OPENERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            if opens:
                self._record += 1
            record = self._record
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, record))

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items()) if n == "moddeg" or n.startswith("moddeg.")]
        for module_name, func_name in TRACED:
            original = getattr(importlib.import_module(f"moddeg.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._installed.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._installed):
            setattr(namespace, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    # Reported only with at least ten samples beyond it.
    if len(values) < 100:
        return 0.0
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase of `rounds` whole rounds.

    *.ms and *.p50_ms: median duration per call; *.self_ms: median self
    time per call; *.p50_us, *.p90_us: duration percentiles of
    build_report; *.calls: calls per round; *.calls_per_report and
    *.calls_per_estimate: calls made inside build_report and
    symsq_value_estimate, per call of those.  A layer the workload never
    calls reads 0.
    """
    name_of = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    child_time: dict[int, int] = defaultdict(int)
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    duration: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, list[float]] = defaultdict(list)
    calls_under: dict[tuple[str, str], int] = defaultdict(int)
    for sid, parent, name, start, end, _ in spans:
        duration[name].append((end - start) / 1e6)
        self_time[name].append((end - start - child_time[sid]) / 1e6)
        ancestors = set()
        while parent >= 0:
            ancestors.add(name_of[parent])
            parent = parent_of[parent]
        for outer in ("report.build_report", "lvalue.symsq_value_estimate"):
            if outer in ancestors:
                calls_under[(outer, name)] += 1

    def per_call(outer: str, name: str) -> float:
        count = len(duration[outer])
        return calls_under[(outer, name)] / count if count else 0.0

    build_us = [ms * 1000 for ms in duration["report.build_report"]]
    metrics = {
        "cli.cmd_bound.self_ms": _median(self_time["cli.cmd_bound"]),
        "cli.cmd_verify_lemmas.ms": _median(duration["cli.cmd_verify_lemmas"]),
        "cli.cmd_invariants.ms": _median(duration["cli.cmd_invariants"]),
        "report.parse_record.self_ms": _median(self_time["report.parse_record"]),
        "report.dumps_report.self_ms": _median(self_time["report.dumps_report"]),
        "report.build_report.p50_us": _median(build_us),
        "report.build_report.p90_us": _p90(build_us),
        "report.squared_primes.self_ms": _median(self_time["report.squared_primes"]),
        "agm.period_data.calls_per_report": per_call("report.build_report", "agm.period_data"),
        "agm.period_data.self_ms": _median(self_time["agm.period_data"]),
        "agm.lemma1_check.self_ms": _median(self_time["agm.lemma1_check"]),
        "curves.two_torsion_roots.calls_per_report": per_call(
            "report.build_report", "curves.two_torsion_roots"
        ),
        "fudge.fudge_factor_for.self_ms": _median(self_time["fudge.fudge_factor_for"]),
        "bounds.theorem1.self_ms": _median(self_time["bounds.theorem1"]),
        "bounds.theorem2.self_ms": _median(self_time["bounds.theorem2"]),
        "bounds.linear_bounds.self_ms": _median(self_time["bounds.linear_bounds"]),
        "curves.trace_of_frobenius.calls": len(duration["curves.trace_of_frobenius"]) / rounds,
        "curves.trace_of_frobenius.self_ms": _median(self_time["curves.trace_of_frobenius"]),
        "curves.derive_invariants.calls_per_estimate": per_call(
            "lvalue.symsq_value_estimate", "curves.derive_invariants"
        ),
        "lvalue.symsq_value_estimate.p50_ms": _median(duration["lvalue.symsq_value_estimate"]),
        "zerofree.certify_noncm.ms": _median(duration["zerofree.certify_noncm"]),
        "zerofree.certify_cm_qi.ms": _median(duration["zerofree.certify_cm_qi"]),
        "zerofree.certify_cm_zeta3.ms": _median(duration["zerofree.certify_cm_zeta3"]),
        "lvalue.lemma4_certify.ms": _median(duration["lvalue.lemma4_certify"]),
        "specfun.lemma4_error_integral.ms": _median(duration["specfun.lemma4_error_integral"]),
        "specfun.error_integrand.calls": len(duration["specfun.error_integrand"]) / rounds,
    }
    return metrics


def import_times(stderr: str) -> dict[str, float]:
    """moddeg's cumulative import time and that of the outermost numpy or
    scipy imports under it, in ms, from `python -X importtime` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    moddeg_us = sum(c for d, c, n in entries if n == "moddeg")
    heavy_us = 0
    # An import is printed after the imports it triggered, one level deeper.
    enclosing_heavy: list[bool] = []
    for depth, cumulative, name in reversed(entries):
        del enclosing_heavy[depth:]
        heavy = name.split(".")[0] in ("numpy", "scipy")
        if heavy and not any(enclosing_heavy):
            heavy_us += cumulative
        enclosing_heavy.extend([False] * (depth - len(enclosing_heavy)))
        enclosing_heavy.append(heavy)
    return {"import.moddeg_ms": moddeg_us / 1000, "import.numpy_scipy_ms": heavy_us / 1000}
