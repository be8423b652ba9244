"""Benchmark of the autodual library and CLI.

Runs one workload for a number of passes, each in a fresh process started
from `workloads.py`, and prints every metric with its unit.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
pass gives the per-layer ones.  Details of each run (passes, tail percentile,
failures, machine load) go to perfbench/out/.

Usage:
    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-goldens      # once, at a known-good commit
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "workloads.py"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("batch", "chain", "witness", "cli")
DEFAULT_SEED = 0
# Seconds of the run given to one pass.  The pass count of a run is
# seconds / PASS_SECONDS, fixed by these constants and not by the speed
# measured, so every run of a workload pools the same number of operations.
# A pass takes about this long at the commit the goldens were recorded at, on
# a 2-vCPU x86-64 sandbox, except for cli: its pass takes about 3 s, but ten
# passes put op_tail_ms in the middle of the twenty timings of its two
# slowest invocations, not on their edge.  See NOTE.md.
PASS_SECONDS = {"batch": 4.5, "chain": 0.85, "witness": 11.0, "cli": 2.0}
MIN_PASSES = 3
# Reported times are scaled to a machine on which workloads.reference() takes
# this long, about the quiet speed of the 2-vCPU sandbox the bounds were set on.
REFERENCE_S = 0.0022
UNTRACED_PASSES_IN_TRACE = 2
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "op_p50_ms": "ms", "op_tail_ms": "ms"}
RULES = ("zero_semigroup", "normalize", "whiskery", "rankill", "order_sensitivity",
         "single_letter", "two_state", "constant_letters", "all_loops",
         "letter_affine", "commuting_permutations", "unknown")


def _layer(prefix, stats):
    return {f"{prefix}.{s}": "s" if s.endswith("_s") else "count" for s in stats}


PER_LAYER = {
    **_layer("powers.enumerate_homs", ("calls", "self_s", "homs", "cap_hits")),
    **_layer("powers.find_embedding", ("calls", "hits")),
    **_layer("powers.hom_exists", ("calls", "self_s", "true")),
    **_layer("powers.generate_subuniverse", ("calls", "self_s", "elements")),
    **_layer("powers.Groupoid.from_power", ("calls", "self_s", "cells")),
    **_layer("powers.Groupoid.from_algebra", ("calls", "self_s")),
    **_layer("powers.pointwise_mul", ("calls",)),
    **_layer("algebras.mul", ("calls",)),
    **_layer("algebras.word", ("calls",)),
    **_layer("algebras.catalog", ("calls", "self_s")),
    **_layer("terms.check_quasi_identity", ("calls", "self_s")),
    **_layer("terms.check_identity", ("calls", "self_s")),
    **_layer("terms.order_sensitivity", ("calls", "self_s")),
    **_layer("structure.whiskery_check", ("calls", "self_s")),
    **_layer("structure.component_group", ("calls", "self_s")),
    **_layer("structure.rankill_check", ("self_s",)),
    **_layer("structure.permutation_profile", ("self_s",)),
    **_layer("structure.letter_affine_analysis", ("self_s",)),
    **_layer("structure.nondcomm_check", ("self_s",)),
    **_layer("abgroups.AbelianGroup", ("calls", "self_s")),
    **_layer("abgroups.cyclic_decomposition", ("calls", "self_s")),
    **_layer("classify.classify", ("calls", "self_s")),
    **_layer("classify.normalize_algebra", ("calls", "self_s")),
    **_layer("classify.verify_certificate", ("calls", "self_s")),
    **{f"classify.rule.{r}.count": "count" for r in RULES},
    **_layer("witness.build_truncation", ("calls", "self_s")),
    **_layer("witness.kernel_block_analysis", ("calls", "self_s", "restriction_mode")),
    **_layer("witness.verify_construction", ("calls", "self_s", "instances")),
    **_layer("cli", ("interpreter_s", "import_s")),
    **_layer("cli.main", ("calls", "self_s")),
    **_layer("cli.parse_algebra_file", ("calls", "self_s")),
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_worker(workload: str, seed: int, *flags: str) -> dict:
    """One pass in a fresh process; its last stdout line is its result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass of {workload} failed ({proc.returncode}):\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, count, deadline, flags=()) -> list:
    """Up to `count` passes; no new pass starts after the deadline."""
    results = []
    while len(results) < count and (not results or time.monotonic() < deadline):
        results.append(run_worker(workload, seed, *flags))
    return results


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    above it, but never below the upper median."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def check_passes(passes: list) -> list:
    """[pass, operation, reason] per failed operation: its own failure, or an
    output or input that differs from the first pass."""
    failed = {}
    first = passes[0]
    for k, p in enumerate(passes):
        for op, why in p["failures"]:
            failed.setdefault((k, op), why)
        for key in ("outputs", "inputs"):
            for op, d in p[key].items():
                if first[key].get(op, d) != d:
                    failed.setdefault((k, op), f"{key[:-1]} differs from pass 0")
    return [[k, op, why] for (k, op), why in failed.items()]


def scaled(p: dict, key: str) -> list:
    """The pass's time of each operation at the REFERENCE_S machine speed.

    On a shared machine the speed changes by tens of percent within a second
    and by more between runs.  `workloads.Clock` divides each stretch of an
    operation by the reference timings around it, which moved with it."""
    return [units * REFERENCE_S for units in p[key]]


def typical_pass(passes: list, key: str) -> list:
    """Each operation's median scaled time over the passes."""
    return [statistics.median(t) for t in zip(*(scaled(p, key) for p in passes))]


def end_to_end(passes: list) -> tuple:
    ops = [t for p in passes for t in scaled(p, "op_units")]
    typical = typical_pass(passes, "op_units")
    tail_s, pct = tail(ops)
    metrics = {
        "setup_s": REFERENCE_S * statistics.median(p["setup_units"] for p in passes),
        "wall_s": sum(typical),
        "cpu_s": sum(typical_pass(passes, "op_cpu_units")),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": 1000 * statistics.median_high(typical),
        "op_tail_ms": 1000 * tail_s,
    }
    return metrics, {"op_tail_percentile": pct, "op_samples": len(ops),
                     "passes": len(passes)}


def per_layer(traced: dict, untraced: list) -> dict:
    layers = {name: traced["layers"].get(name, 0) for name in PER_LAYER}
    layers["trace.overhead_ratio"] = (sum(scaled(traced, "op_units"))
                                      / sum(typical_pass(untraced, "op_units")))
    return layers


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def source_digest() -> str:
    """Identifies the code measured; a checkout need not be a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "source_sha256": source_digest(), "loadavg": loadavg()}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def bench(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    env = environment()
    flags = ("--smoke",) if smoke else ()
    start = time.monotonic()
    # a run may overrun its seconds only to reach MIN_PASSES, never past 4x
    deadline = start + 4 * seconds
    if trace:
        untraced = run_passes(workload, seed, UNTRACED_PASSES_IN_TRACE, deadline, flags)
        traced = run_worker(workload, seed, "--traced", *flags)
        passes = untraced + [traced]
        metrics = per_layer(traced, untraced)
        details = {}
    else:
        count = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
        passes = run_passes(workload, seed, count, deadline, flags)
        metrics, details = end_to_end(passes)
    failures = check_passes(passes)
    units = PER_LAYER if trace else END_TO_END
    env["loadavg_after"] = loadavg()
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "environment": env, **details,
        "elapsed_s": time.monotonic() - start,
        "reference_s": REFERENCE_S,
        "per_pass": [{k: p[k] for k in ("setup_s", "setup_units", "peak_rss_mb", "op_s",
                                        "op_cpu_s", "op_units", "op_cpu_units")}
                     for p in passes],
        "failures": failures,
        "outputs": passes[0]["outputs"], "inputs": passes[0]["inputs"],
        "result": {
            "correct": not failures,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        },
    }
    return report


def record_goldens() -> dict:
    """Digests of every input and output, and the rule counts, at DEFAULT_SEED."""
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        plain = run_worker(workload, DEFAULT_SEED, "--no-goldens")
        traced = run_worker(workload, DEFAULT_SEED, "--no-goldens", "--traced")
        problems = plain["failures"] + traced["failures"]
        if problems or plain["outputs"] != traced["outputs"]:
            raise RuntimeError(f"{workload}: not recording goldens: "
                               f"{problems or 'traced outputs differ'}")
        data["workloads"][workload] = {
            "inputs": plain["inputs"], "outputs": plain["outputs"],
            "rules": {k: v for k, v in traced["layers"].items()
                      if k.startswith("classify.rule.") and v}}
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size: a prefix of each operation list")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "autodual" / "__init__.py").is_file():
        print(f"error: no autodual sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_goldens:
        GOLDENS.write_text(json.dumps(record_goldens(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDENS}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    OUT.mkdir(exist_ok=True)
    report = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"result-{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    result = report["result"]
    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} "
          f"python={env['python']} source={env['source_sha256']} "
          f"loadavg={env['loadavg']!r}")
    for metric, m in result["metrics"].items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"# op_tail_ms is p{report['op_tail_percentile']:.2f} of "
              f"{report['op_samples']} operations over {report['passes']} passes")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio")
    for failure in report["failures"][:20]:
        print(f"# failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
