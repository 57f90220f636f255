"""The benchmark's program process: imports moddeg, loads the inputs, does
one warm-up operation, prints READY, then runs the measured phase.

Usage: python3 bench/worker.py SPEC.json  (run by bench/run.py, with
src/ on PYTHONPATH).  The spec names the inputs, the operation kinds and
the time budget; timings, output hashes and peak RSS (after the first
min_rounds rounds) go to the spec's result file, and the first output of
each kind to <out>/<kind>.first.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import moddeg  # noqa: F401  (import cost belongs to set-up)
import refs

cli = importlib.import_module("moddeg.cli")
curves_mod = importlib.import_module("moddeg.curves")
lvalue = importlib.import_module("moddeg.lvalue")


def _remove(path: str | None) -> None:
    """Delete a call's output file first, so that a call that writes
    nothing cannot pass on the previous call's output."""
    if path is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return b""


class Worker:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.out = spec["out"]
        self.samples: dict[str, list[dict]] = {}
        self.estimate_sets = {
            key: [
                (c["label"], curves_mod.CurveModel(*c["a"], conductor=c["conductor"]))
                for c in spec[key]["curves"]
            ]
            for key in ("estimate", "side_estimate")
            if key in spec
        }
        self.cli_env = dict(os.environ)
        self.cli_rounds = 0
        self.peak_rss_mb = None

    def _record(self, kind: str, n: int, seconds: float, output: bytes, rc: int, ref: float) -> None:
        first = kind not in self.samples
        self.samples.setdefault(kind, []).append(
            {"n": n, "s": seconds, "ref": ref, "sha": hashlib.sha256(output).hexdigest(), "rc": rc}
        )
        if first:
            with open(os.path.join(self.out, f"{kind}.first"), "wb") as handle:
                handle.write(output)

    def bound_pass(self, kind: str, table: str, records: int) -> None:
        out_path = os.path.join(self.out, f"{kind}.out.jsonl")
        _remove(out_path)
        ref = refs.routine_seconds()
        start = time.perf_counter()
        rc = cli.main(["bound", "--input", table, "--output", out_path])
        seconds = time.perf_counter() - start
        ref = (ref + refs.routine_seconds()) / 2
        self._record(kind, records, seconds, _read(out_path), rc, ref)

    def estimate_round(self, kind: str, key: str) -> None:
        cutoff = self.spec[key]["cutoff"]
        models = self.estimate_sets[key]
        ref = refs.routine_seconds()
        start = time.perf_counter()
        values = [lvalue.symsq_value_estimate(model, cutoff) for _, model in models]
        seconds = time.perf_counter() - start
        ref = (ref + refs.routine_seconds()) / 2
        self._record(kind, len(models), seconds, json.dumps([repr(v) for v in values]).encode(), 0, ref)

    def cli_call(self, kind: str, argv: list[str], output_file: str | None) -> None:
        _remove(output_file)
        ref = refs.interpreter_start_seconds(self.cli_env)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "moddeg", *argv],
            env=self.cli_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - start
        ref = (ref + refs.interpreter_start_seconds(self.cli_env)) / 2
        output = done.stdout if output_file is None else _read(output_file)
        self._record(kind, 1, seconds, output, done.returncode, ref)

    def cli_inprocess(self, kind: str, argv: list[str], output_file: str | None) -> None:
        buffer = io.StringIO()
        _remove(output_file)
        ref = refs.routine_seconds()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            rc = cli.main(argv)
        seconds = time.perf_counter() - start
        ref = (ref + refs.routine_seconds()) / 2
        output = buffer.getvalue().encode() if output_file is None else _read(output_file)
        self._record(kind, 1, seconds, output, rc, ref)

    def main_round(self, suffix: str = "") -> None:
        spec = self.spec
        main = spec["main"]
        if main == "table":
            self.bound_pass("table" + suffix, spec["table"], spec["table_records"])
        elif main == "estimate":
            self.estimate_round("estimate" + suffix, "estimate")
        elif spec["trace"]:
            # Tracing sees only this process, so both phases run in-process.
            for name, argv, output_file in spec["cli_commands"]:
                self.cli_inprocess(f"inproc.{name}{suffix}", argv, output_file)
        else:
            # One fresh process per round, the commands in rotation.
            name, argv, output_file = spec["cli_commands"][self.cli_rounds % len(spec["cli_commands"])]
            self.cli_rounds += 1
            self.cli_call(f"cli.{name}", argv, output_file)

    def warm_up(self) -> None:
        spec = self.spec
        if spec["main"] == "table":
            cli.main(["bound", "--input", spec["warmup_table"], "--output", os.devnull])
        elif spec["main"] == "estimate":
            _, model = self.estimate_sets["estimate"][0]
            lvalue.symsq_value_estimate(model, spec["warmup_cutoff"])
        else:
            # Always the same command, so that setup_s does not depend on
            # where the seeded rotation starts.
            argv = next(argv for name, argv, _ in spec["cli_commands"] if name == "invariants")
            subprocess.run(
                [sys.executable, "-m", "moddeg", *argv],
                env=self.cli_env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

    def run_phase(self, seconds: float, min_rounds: int) -> int:
        """Whole rounds of the workload's operation, at least min_rounds and
        until `seconds` have passed, with the side samples taken between
        rounds as they fall due at even spacing over the phase."""
        start = time.perf_counter()
        side = self.side_samples()
        spacing = seconds / max(len(side), 1)
        taken = rounds = 0
        while side or rounds < min_rounds or time.perf_counter() < start + seconds:
            now = time.perf_counter()
            if side and (now >= start + taken * spacing or (rounds >= min_rounds and now >= start + seconds)):
                side.pop(0)()
                taken += 1
            else:
                self.main_round()
                rounds += 1
                if rounds == min_rounds:
                    # Peak RSS after a fixed amount of work, however many
                    # rounds the phase then fits in.
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return rounds

    def run_traced_phase(self, seconds: float, min_traced_rounds: int, tracer) -> tuple[int, int]:
        """Rounds in the pattern untraced, traced, traced, so that both kinds
        see the same machine conditions; returns (untraced, traced) rounds."""
        deadline = time.perf_counter() + seconds
        untraced = traced = 0
        while traced < min_traced_rounds or time.perf_counter() < deadline:
            if traced >= 2 * untraced:
                self.main_round()
                untraced += 1
            else:
                tracer.install()
                try:
                    self.main_round(":traced")
                finally:
                    tracer.uninstall()
                traced += 1
        return untraced, traced

    def side_samples(self) -> list:
        """The side samples of one program process, as calls to make."""
        spec, samples = self.spec, []
        for kind in spec["side"]:
            if kind == "dataset":
                samples += [
                    lambda: self.bound_pass("dataset", spec["dataset"], spec["dataset_records"])
                ] * spec["dataset_passes"]
            elif kind == "estimate":
                samples += [
                    lambda: self.estimate_round("side_estimate", "side_estimate")
                ] * spec["side_estimate_rounds"]
            elif kind == "cli":
                for _ in range(spec["cli_rotations"]):
                    samples += [
                        lambda c=command: self.cli_call(f"cli.{c[0]}", c[1], c[2])
                        for command in spec["cli_commands"]
                    ]
        return samples

    def dump_aps(self) -> dict:
        """The program's a_p for every good prime up to the cutoff, for the checks."""
        dump = {}
        for key, models in self.estimate_sets.items():
            for (label, model), curve in zip(models, self.spec[key]["curves"]):
                dump[label] = {p: curves_mod.trace_of_frobenius(model, p) for p in curve["good_primes"]}
        return dump


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    worker = Worker(spec)
    worker.warm_up()
    print("READY", flush=True)

    result: dict = {}
    if spec["trace"]:
        tracer = importlib.import_module("spans").Tracer()
        result["untraced_rounds"], result["traced_rounds"] = worker.run_traced_phase(
            spec["seconds"], spec["traced_min_rounds"], tracer
        )
        tracer.write(os.path.join(spec["out"], "spans.jsonl"))
    else:
        result["rounds"] = worker.run_phase(spec["seconds"], spec["min_rounds"])
    if spec.get("dump_aps"):
        result["aps"] = worker.dump_aps()
    result["samples"] = worker.samples
    result["rss_self_mb"] = worker.peak_rss_mb
    result["rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
