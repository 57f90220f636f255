"""The moddeg benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates the workload's
inputs from the seed, starts the program process (bench/worker.py, with
src/ on PYTHONPATH) and checks every output against computations made
apart from moddeg (bench/oracle.py).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0 and the per-layer metrics from
spans when --trace 1.  Inputs, outputs and spans are left in
bench/out/<workload>/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATASET = SRC / "moddeg" / "data" / "curves.jsonl"

WORKLOADS = ("table-small-n", "table-large-n", "cli-cold", "euler-product")
MAIN_KIND = {
    "table-small-n": "table",
    "table-large-n": "table",
    "cli-cold": "cli",
    "euler-product": "estimate",
}
# Each workload also samples, between the rounds of its own operation, the
# end-to-end metrics it does not stress, so that every run reports all of
# them.
SIDE = {
    "table-small-n": ["estimate", "cli"],
    "table-large-n": ["estimate", "cli"],
    "cli-cold": ["dataset", "estimate"],
    "euler-product": ["dataset", "cli"],
}
SEGMENTS = 3  # program processes per untraced run; setup_s is their median
DATASET_PASSES = 4  # side `bound` passes over the shipped dataset, per segment
SIDE_ESTIMATE_ROUNDS = 2  # side estimate rounds, per segment
CLI_ROTATIONS = 2  # side rotations of the three one-shot commands, per segment
# Rounds of the workload's operation per segment, at least.  On cli-cold a
# round is one call, so three make every program process call each
# command; table-large-n's rate follows the reference routine least
# closely, so its median takes three rounds per segment.
MIN_ROUNDS = {"table-small-n": 2, "table-large-n": 3, "cli-cold": 3, "euler-product": 2}
WARMUP_RECORDS = {"table-small-n": 8, "table-large-n": 1}
WARMUP_CUTOFF = 200
PERIOD_SAMPLE = 48  # table-small-n records whose 1/Omega is checked, plus the table curves
EULER_SAMPLE = 3  # curves whose a_p are recomputed by Euler's criterion
TRACED_MIN_REPORTS = 110  # so build_report's p90 has ten samples beyond it
IMPORT_PROBES = 3
WORKER_TIMEOUT = 170


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        import gen
        import oracle

        self.gen, self.oracle = gen, oracle
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.main = MAIN_KIND[workload]
        self.out = BENCH / "out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.rng = random.Random(f"checks/{workload}/{seed}")
        self.correct = True
        self.dataset_records = [json.loads(line) for line in DATASET.read_text().splitlines() if line.strip()]
        self.spec = self._inputs()

    # ---- inputs -------------------------------------------------------

    def _estimate_set(self, curves: list[dict], cutoff: int) -> dict:
        for curve in curves:
            curve["good_primes"] = self.oracle.good_primes(curve["a"], curve["conductor"], cutoff)
        return {"curves": curves, "cutoff": cutoff}

    def _inputs(self) -> dict:
        gen, out = self.gen, self.out
        dataset = out / "dataset.jsonl"
        write_jsonl(dataset, self.dataset_records)
        bound_out = out / "cli.bound.out.jsonl"
        spec: dict = {
            "trace": self.trace,
            "main": self.main,
            "dataset": str(dataset),
            "dataset_records": len(self.dataset_records),
            "dataset_passes": DATASET_PASSES,
            "side_estimate_rounds": SIDE_ESTIMATE_ROUNDS,
            "cli_rotations": CLI_ROTATIONS,
            "min_rounds": MIN_ROUNDS[self.workload],
            "cli_commands": [
                [name, argv, str(bound_out) if name == "bound" else None]
                for name, argv in gen.cli_commands(self.seed, str(dataset), str(bound_out))
            ],
            "side": [] if self.trace else SIDE[self.workload],
            "traced_min_rounds": 1,
        }
        if self.main == "table":
            make = gen.table_small_n if self.workload == "table-small-n" else gen.table_large_n
            self.table_records = make(self.seed)
            table, warmup = out / "table.jsonl", out / "warmup.jsonl"
            write_jsonl(table, self.table_records)
            write_jsonl(warmup, self.table_records[: WARMUP_RECORDS[self.workload]])
            spec.update(table=str(table), warmup_table=str(warmup), table_records=len(self.table_records))
            spec["traced_min_rounds"] = -(-TRACED_MIN_REPORTS // len(self.table_records))
        elif self.main == "cli":
            spec["traced_min_rounds"] = -(-TRACED_MIN_REPORTS // len(self.dataset_records))
        if self.main == "estimate":
            spec["estimate"] = self._estimate_set(gen.euler_curves(self.seed), gen.EULER_CUTOFF)
            spec["warmup_cutoff"] = WARMUP_CUTOFF
        if "estimate" in spec["side"]:
            spec["side_estimate"] = self._estimate_set(gen.side_estimate_curves(), gen.EULER_CUTOFF)
        if self.main == "table" and self.workload == "table-small-n":
            indices = range(len(self.table_records))
            self.period_sample = set(self.rng.sample(indices, PERIOD_SAMPLE))
            self.period_sample |= {i for i in indices if "deg_phi" in self.table_records[i]}
        elif self.main == "table":
            self.period_sample = set(range(len(self.table_records)))
        self.euler_sample = {
            key: set(self.rng.sample(range(len(spec[key]["curves"])), min(EULER_SAMPLE, len(spec[key]["curves"]))))
            for key in ("estimate", "side_estimate")
            if key in spec
        }
        return spec

    # ---- program processes --------------------------------------------

    def segment(self, index: int, seconds: float, dump_aps: bool) -> tuple[dict, dict]:
        """Start one program process; returns (its set-up as a timed sample,
        its result)."""
        seg_out = self.out / f"seg{index}"
        seg_out.mkdir()
        spec = dict(self.spec, out=str(seg_out), seconds=seconds, dump_aps=dump_aps)
        spec["result"] = str(seg_out / "result.json")
        spec_path = seg_out / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        # Program process i, and the CLI processes it starts, hash with
        # seed i: hash layouts move peak RSS by 4 MB on table-small-n, and
        # this way every run meets the same three.
        env = dict(program_env(), PYTHONHASHSEED=str(index))
        ref = refs.interpreter_start_seconds(env)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.communicate(timeout=WORKER_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"program process exited with code {proc.returncode}")
        result = json.loads((seg_out / "result.json").read_text(encoding="utf-8"))
        result["dir"] = seg_out
        return {"s": setup, "ref": ref}, result

    def import_probe(self) -> dict[str, float]:
        import spans

        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import moddeg"],
            env=program_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT,
        )
        if done.returncode != 0:
            raise RuntimeError("import moddeg failed")
        return spans.import_times(done.stderr)

    # ---- checks -------------------------------------------------------

    def _check_output(self, kind: str, data: bytes, aps: dict) -> int:
        """Failed operations in one output of the given kind."""
        oracle, where = self.oracle, f"{self.workload}/{kind}"
        base = kind.split(":")[0]
        if base == "table":
            return oracle.check_reports(data.decode().splitlines(), self.table_records, self.period_sample, where)
        if base in ("dataset", "cli.bound", "inproc.bound"):
            records = self.dataset_records
            return oracle.check_reports(data.decode().splitlines(), records, set(range(len(records))), where)
        if base.endswith("verify-lemmas"):
            return oracle.check_verify_lemmas(json.loads(data), where)
        if base.endswith("invariants"):
            return oracle.check_invariants_doc(json.loads(data), self.gen.INVARIANTS_A, where)
        key = "estimate" if base == "estimate" else "side_estimate"
        values = [float(v) for v in json.loads(data)]
        estimates = self.spec[key]
        return oracle.check_estimates(
            estimates["curves"], values, aps, self.euler_sample[key], estimates["cutoff"], where
        )

    def count(self, results: list[dict]) -> tuple[int, int]:
        """(attempted, failed) over every sample of every program process.

        One output of each kind is checked in full; every other output of
        that kind must be byte-identical to it, or all its operations fail.
        A sample whose call returned a nonzero exit code fails all its
        operations too.
        """
        aps: dict = {}
        for result in results:
            aps.update(result.get("aps", {}))
        reference: dict[str, tuple[str, int]] = {}
        checked: dict[tuple[str, str], int] = {}
        attempted = failed = 0
        for result in results:
            for kind, samples in result["samples"].items():
                if kind not in reference:
                    first = samples[0]
                    key = (kind.split(":")[0], first["sha"])
                    if key not in checked:
                        data = (result["dir"] / f"{kind}.first").read_bytes()
                        try:
                            checked[key] = self._check_output(kind, data, aps)
                        except (ValueError, KeyError, TypeError, IndexError) as exc:
                            self.oracle.complain(f"{self.workload}/{kind}", f"unreadable output: {exc!r}")
                            self.correct = False
                            checked[key] = first["n"]
                    reference[kind] = (first["sha"], checked[key])
                sha, bad = reference[kind]
                for sample in samples:
                    attempted += sample["n"]
                    failed += bad if sample["sha"] == sha and sample["rc"] == 0 else sample["n"]
        return attempted, failed

    # ---- metrics ------------------------------------------------------

    def end_to_end(self) -> tuple[dict, list[dict]]:
        setups, results = [], []
        for index in range(SEGMENTS):
            setup, result = self.segment(index, self.seconds / SEGMENTS, dump_aps=index == SEGMENTS - 1)
            setups.append(setup)
            results.append(result)

        def pooled(kind: str) -> list[dict]:
            return [s for r in results for s in r["samples"].get(kind, [])]

        # Every timed sample is scaled to the reference speed by the
        # reference timed beside it (refs.py): fresh processes, the CLI
        # calls and the set-ups, by a fresh interpreter's start, in-process
        # samples by the pure-Python routine.
        def nominal(kind: str) -> float:
            return refs.INTERPRETER_START_NOMINAL_S if kind.startswith("cli.") else refs.ROUTINE_NOMINAL_S

        def scaled_seconds(sample: dict, nominal_s: float) -> float:
            return sample["s"] * nominal_s / sample["ref"]

        def rate(kind: str) -> float:
            return statistics.median(s["n"] / scaled_seconds(s, nominal(kind)) for s in pooled(kind))

        def ms(kind: str) -> float:
            return statistics.median(scaled_seconds(s, nominal(kind)) for s in pooled(kind)) * 1000

        for kind in sorted({k for r in results for k in r["samples"]}):
            raw = statistics.median(s["n"] / s["s"] for s in pooled(kind))
            speed = statistics.median(nominal(kind) / s["ref"] for s in pooled(kind))
            print(f"bench: {kind}: raw median {raw:.6g} ops/s, host speed {speed:.3f} of reference", file=sys.stderr)

        rss_key = "rss_children_mb" if self.main == "cli" else "rss_self_mb"
        metrics = {
            "setup_s": statistics.median(scaled_seconds(s, refs.INTERPRETER_START_NOMINAL_S) for s in setups),
            "records_per_s": rate("table" if self.main == "table" else "dataset"),
            "peak_rss_mb": statistics.median(r[rss_key] for r in results),
            "verify_lemmas_ms": ms("cli.verify-lemmas"),
            "invariants_ms": ms("cli.invariants"),
            "bound_dataset_ms": ms("cli.bound"),
            "estimates_per_s": rate("estimate" if self.main == "estimate" else "side_estimate"),
        }
        return metrics, results

    def per_layer(self) -> tuple[dict, list[dict]]:
        import spans

        _, result = self.segment(0, self.seconds / 2, dump_aps=self.main == "estimate")
        metrics = spans.layer_metrics(spans.read_spans(str(result["dir"] / "spans.jsonl")), result["traced_rounds"])
        probes = [self.import_probe() for _ in range(IMPORT_PROBES)]
        for name in probes[0]:
            metrics[name] = statistics.median(p[name] for p in probes)

        def round_seconds(suffix: str) -> float:
            # Median time of one round of the workload's operation, in
            # units of the reference routine timed beside it.
            kinds = [k for k in result["samples"] if k.endswith(suffix) and (suffix or ":" not in k)]
            return sum(statistics.median(s["s"] / s["ref"] for s in result["samples"][k]) for k in kinds)

        metrics["trace.overhead_pct"] = (round_seconds(":traced") / round_seconds("") - 1) * 100
        return metrics, [result]


def main(argv: list[str] | None = None) -> int:
    # On SIGTERM, unwind so that the program process is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description="moddeg benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "moddeg" / "__init__.py").is_file() or not DATASET.is_file():
        return fail(f"no moddeg sources under {SRC}; run from a checkout of the repository")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    try:
        # Compile moddeg's bytecode once, so the first program process of
        # a fresh checkout does not pay for it in its set-up time.
        compileall.compile_dir(str(SRC / "moddeg"), quiet=1)
        marks = [time.perf_counter()]
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        marks.append(time.perf_counter())
        metrics, results = run.per_layer() if args.trace else run.end_to_end()
        marks.append(time.perf_counter())
        attempted, failed = run.count(results)
        marks.append(time.perf_counter())
        print(
            "bench: inputs %.1f s, program processes %.1f s, checks %.1f s"
            % tuple(b - a for a, b in zip(marks, marks[1:])),
            file=sys.stderr,
        )
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        return fail(str(exc))
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": run.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
