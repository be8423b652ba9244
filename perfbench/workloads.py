"""Inputs, operations and output checks of the benchmark workloads.

Run as a script, this file executes one pass of one workload in the fresh
process it starts in and prints one JSON line: set-up time, the time of each
operation, CPU time, peak memory, output and input digests and failures.
`run.py` starts one such process per pass.

Usage: python3 perfbench/workloads.py --workload batch --seed 0 [--traced]
"""

from __future__ import annotations

import time


def _queens(n: int) -> int:
    """Count the n-queens placements by backtracking over sets."""
    cols, up, down = set(), set(), set()

    def place(r):
        if r == n:
            return 1
        found = 0
        for c in range(n):
            if c not in cols and r + c not in up and r - c not in down:
                cols.add(c)
                up.add(r + c)
                down.add(r - c)
                found += place(r + 1)
                cols.discard(c)
                up.discard(r + c)
                down.discard(r - c)
        return found

    return place(0)


def reference() -> float:
    """Seconds a fixed pure-Python search (8 queens, about 2 ms) takes now.

    The speed of a shared machine changes by tens of percent within a
    second.  `Clock` times this all through each operation, to scale the
    operation by the machine's speed at that moment.  It uses nothing of
    autodual, so a change to the library cannot move it."""
    t0 = time.perf_counter()
    _queens(8)
    return time.perf_counter() - t0


_REF0 = reference()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import autodual  # noqa: E402
# autodual.classify is shadowed by the function of that name, hence importlib
algebras, classifier, cli, witness = (importlib.import_module(f"autodual.{m}") for m in
                                      ("algebras", "classify", "cli", "witness"))
from tracer import Tracer  # noqa: E402

if Path(autodual.__file__).resolve().parent != SRC / "autodual":
    raise SystemExit(f"autodual imported from {autodual.__file__}, not from {SRC}")

IMPORT_S = time.perf_counter() - _T0

SEEDLESS = ("chain", "witness")     # inputs do not depend on --seed
BATCH_SIZE = 400
# Stage 5 takes about 36 s alone, longer than one whole run; see NOTE.md.
CHAIN_STAGES = (1, 2, 3, 4)
WITNESS_SPECS = (("thm_wc", (0,)), ("thm_wc", (1,)), ("thm_pcomm_case1", ()),
                 ("ex_all4_L", ()), ("lem_2state2_N4", ()),
                 ("lem_2state3_N5", ()), ("thm_nondcomm", ()))
WITNESS_SIZES = (4, 6)
KERNEL_SIZE = 4
KERNEL_MAX_ELEMENTS = 512
# Seconds between the reference timings inside an operation (about 2% of it).
SAMPLE_PERIOD_S = 0.1
# Smoke size keeps a prefix of each operation list; goldens still apply.
SMOKE_OPS = {"batch": 20, "chain": 3, "witness": 1, "cli": 4}


def _group_elements(orders):
    if len(orders) == 1:
        return [(x,) for x in range(orders[0])]
    return [(x, y) for x in range(orders[0]) for y in range(orders[1])]


# Random half of `batch`: (states, letters) shapes, cycled so that every seed
# gets the same count of each shape.  Up to 12 states, the random half fills
# the gap between its cheap small automata and the group half, where the
# median operation lies; see NOTE.md.
RANDOM_SHAPES = tuple((nq, nl) for nq in range(1, 13) for nl in range(1, 4))
# Group half of `batch`: components, each an abelian group given by the
# orders of its cyclic factors, Z_a or Z_a x Z_2 with a <= 7, |Q| <= 12.
GROUPS = tuple([(a,) for a in range(2, 8)] + [(a, 2) for a in range(2, 7)])
GROUP_SHAPES = tuple([(g,) for g in GROUPS]
                     + [(g, h) for g in GROUPS for h in GROUPS
                        if g <= h and len(_group_elements(g)) + len(_group_elements(h)) <= 8])
# The group half is one fixed family, the same for every seed: its hom-search
# time depends on the order of the states, so drawing it from --seed would
# change the work from seed to seed.  See NOTE.md.
GROUP_FAMILY_SEED = 1210


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def algebra_digest(M) -> str:
    return digest(repr(M.table_key()))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def random_automaton(rng: random.Random, nq: int, nl: int):
    """Uniform random partial automaton: each (state, letter) pair goes to a
    uniform state or is undefined, with equal chances."""
    delta = {}
    for i in range(nq):
        for j in range(nl):
            t = rng.randint(0, nq)
            if t < nq:
                delta[(i, j)] = t
    return algebras.AutomaticAlgebra([f"q{i}" for i in range(nq)],
                                     [f"a{j}" for j in range(nl)], delta)


def group_family() -> list:
    """(components, shifts) per algebra of the group half: letter j translates
    component c by shifts[j][c]."""
    rng = random.Random(GROUP_FAMILY_SEED)
    family = []
    for k in range(BATCH_SIZE // 2):
        comps = GROUP_SHAPES[k % len(GROUP_SHAPES)]
        n_letters = 1 + (k // len(GROUP_SHAPES) + k) % 3
        shifts = [[tuple(rng.randrange(o) for o in orders) for orders in comps]
                  for _ in range(n_letters)]
        family.append((comps, shifts))
    return family


def group_action(comps, shifts):
    """Translation action of the shifts on the components, states in order."""
    states = [(c, e) for c, orders in enumerate(comps) for e in _group_elements(orders)]
    index = {s: k for k, s in enumerate(states)}
    delta = {}
    for j, shift in enumerate(shifts):
        for c, e in states:
            orders = comps[c]
            t = tuple((x + s) % o for x, s, o in zip(e, shift[c], orders))
            delta[(index[(c, e)], j)] = index[(c, t)]
    return algebras.AutomaticAlgebra([f"q{i}" for i in range(len(states))],
                                     [f"a{j}" for j in range(len(shifts))], delta)


def batch_inputs(seed: int) -> list:
    rng = random.Random(seed)
    family = group_family()
    out = []
    for i in range(BATCH_SIZE):
        k = i // 2
        if i % 2 == 0:
            out.append(random_automaton(rng, *RANDOM_SHAPES[k % len(RANDOM_SHAPES)]))
        else:
            out.append(group_action(*family[k]))
    return out


def cli_inputs(seed: int) -> dict:
    """Three small algebras for the CLI: random, group action, embed source."""
    rng = random.Random(seed * 7919 + 1)
    return {"r": random_automaton(rng, 4, 2),
            "g": group_action(((5,),), [[(1,)], [(rng.randrange(5),)]]),
            "s": random_automaton(rng, 2, 2)}


# ---------------------------------------------------------------------------
# operations: each returns (output text, problem or None)
# ---------------------------------------------------------------------------

def classify_and_verify(M):
    verdict = classifier.classify(M)
    text = json.dumps(verdict.to_json())
    ok, reason = classifier.verify_certificate(M, json.loads(text))
    return text, None if ok else f"certificate rejected: {reason}"


def construction(name, params, label, inputs):
    """Build and verify at every size, then analyse the kernels at KERNEL_SIZE."""
    parts, problems = [], []
    for N in WITNESS_SIZES:
        trunc = witness.build_truncation(name, params, N)
        report = witness.verify_construction(trunc)
        spec = trunc.spec
        inputs[f"{label}/N{N}"] = digest(repr((spec.algebra.table_key(), spec.a0,
                                               spec.b, spec.g)))
        parts.append(witness.format_report(report))
        bad = [i["identity"] for i in report["identities"] if not i["pass"]]
        if bad or report["g_in_A"] or not report.get("containment_ok", True):
            problems.append(f"N={N}: construction check failed: {bad or 'g in A'}")
        if N == KERNEL_SIZE:
            kr = witness.kernel_block_analysis(trunc, max_elements=KERNEL_MAX_ELEMENTS)
            parts.append(json.dumps(dataclasses.asdict(kr)))
            if kr.violations:
                problems.append(f"kernel violations: {kr.violations}")
    return "\n".join(parts), "; ".join(problems) or None


def run_cli(argv, traced, save_to=None, expect=(0,)):
    """One CLI invocation: a fresh process, or main() in this process when
    traced.  The output is stdout plus the exit code."""
    if traced:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        stdout = buf.getvalue()
    else:
        proc = subprocess.run([sys.executable, "-m", "autodual.cli", *argv],
                              capture_output=True, text=True, env=child_env(),
                              timeout=120)
        code, stdout = proc.returncode, proc.stdout
    if save_to is not None:
        Path(save_to).write_text(stdout)
    problem = None if code in expect else f"exit code {code}"
    if argv[0] == "verify-cert" and stdout != "certificate VALID\n":
        problem = f"verify-cert said {stdout.strip()!r}"
    return f"{stdout}exit={code}\n", problem


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_commands(workdir: Path) -> list:
    """(argv, file the stdout is saved to, accepted exit codes) per invocation."""
    f = {k: str(workdir / f"{k}.alg") for k in ("r", "g", "s")}
    return [
        (["classify", f["r"], "--json"], workdir / "r.json", (0,)),
        (["verify-cert", f["r"], str(workdir / "r.json")], None, (0,)),
        (["classify", f["g"], "--json"], workdir / "g.json", (0,)),
        (["verify-cert", f["g"], str(workdir / "g.json")], None, (0,)),
        (["classify", f["s"]], None, (0,)),
        (["analyze", f["r"]], None, (0,)),
        (["analyze", f["g"]], None, (0,)),
        (["normalize", f["r"]], None, (0,)),
        (["normalize", f["g"]], None, (0,)),
        (["embed", f["s"], f["r"]], None, (0, 1)),
        (["embed", f["s"], f["g"]], None, (0, 1)),
        (["check-eq", f["r"], "xy = xyyy"], None, (0,)),
        (["check-eq", f["g"], "vxx = wxx => vx = wx"], None, (0,)),
        (["chain", "3"], None, (0,)),
        (["witness", "thm_wc", "0", "--size", "4"], None, (0,)),
    ]


def make_ops(workload: str, seed: int, traced: bool, workdir: Path):
    """([(op id, function, input ids)], {input id: digest}) for one pass."""
    inputs = {}
    ops = []
    if workload == "batch":
        for i, M in enumerate(batch_inputs(seed)):
            inputs[f"alg{i}"] = algebra_digest(M)
            ops.append((f"alg{i}", lambda M=M: classify_and_verify(M), [f"alg{i}"]))
    elif workload == "chain":
        for k in CHAIN_STAGES:
            M = classifier.gen_chain(k)
            inputs[f"M{k}"] = algebra_digest(M)
            ops.append((f"M{k}", lambda M=M: classify_and_verify(M), [f"M{k}"]))
    elif workload == "witness":
        for name, params in WITNESS_SPECS:
            label = name + "".join(f"_{p}" for p in params)
            ops.append((label, lambda a=(name, params, label, inputs): construction(*a),
                        [f"{label}/N{N}" for N in WITNESS_SIZES]))
    elif workload == "cli":
        for key, M in cli_inputs(seed).items():
            (workdir / f"{key}.alg").write_text(M.emit())
            inputs[key] = algebra_digest(M)
        for n, (argv, save_to, expect) in enumerate(cli_commands(workdir)):
            used = [k for k in ("r", "g", "s") if any(a.endswith(f"/{k}.alg") for a in argv)]
            ops.append((f"{n}:{argv[0]}", lambda a=(argv, traced, save_to, expect):
                        run_cli(*a), used))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, inputs


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

class Clock:
    """Wall and CPU time of an operation, raw and in reference units.

    reference() is timed when the operation starts, when it ends and, from a
    timer signal, every `period` seconds in between.  Each stretch of the
    operation between two reference timings counts raw, and divided by their
    mean in reference units; the reference timings themselves count in
    neither.  CPU time includes that of child processes."""

    def __init__(self, period: float | None):
        self.period = period
        self.active = False
        if period:
            signal.signal(signal.SIGALRM, self._sample)

    @staticmethod
    def _now():
        return time.perf_counter(), time.process_time() + children_cpu()

    def _mark(self):
        wall, cpu = self._now()
        ref = reference()
        if self.last is not None:
            wall0, cpu0, ref0 = self.last
            speed = 2 / (ref0 + ref)
            self.wall += wall - wall0
            self.cpu += cpu - cpu0
            self.wall_units += (wall - wall0) * speed
            self.cpu_units += (cpu - cpu0) * speed
        self.last = (*self._now(), ref)

    def _sample(self, signum, frame):
        if self.active:
            self.active = False     # no nested sample if one overruns the period
            self._mark()
            self.active = True

    def run(self, fn):
        self.wall = self.cpu = self.wall_units = self.cpu_units = 0.0
        self.last = None
        self._mark()
        self.active = True
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            return fn()
        finally:
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.active = False
            self._mark()


def load_goldens(path: Path, workload: str, seed: int) -> dict:
    """The recorded digests that apply to this workload and seed, or {}."""
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    if seed != data["seed"] and workload not in SEEDLESS:
        return {}
    return data["workloads"].get(workload, {})


def run_pass(workload: str, seed: int, traced: bool = False, smoke: bool = False,
             goldens: dict | None = None) -> dict:
    """Set up and time one pass; return its measurements and checks."""
    t0 = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, inputs = make_ops(workload, seed, traced, workdir)
        if smoke:
            ops = ops[:SMOKE_OPS[workload]]
        if goldens is None:
            goldens = load_goldens(GOLDENS, workload, seed)
        setup_s = IMPORT_S + time.perf_counter() - t0
        setup_units = setup_s * 2 / (_REF0 + reference())
        # Set-up objects live to the end; frozen, the per-operation collections
        # skip them.  Collection stays enabled.
        gc.freeze()
        tracer = Tracer() if traced else contextlib.nullcontext()
        with tracer:
            # A traced pass is not sampled: the samples would land in its spans.
            # Nor is cli: a sample taken while a child runs measures the two
            # processes' contention, not the machine's speed.
            sampled = not traced and workload != "cli"
            result = execute(ops, inputs, goldens, Clock(SAMPLE_PERIOD_S if sampled else None))
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["setup_units"] = setup_units
    # cli measures its largest child (ru_maxrss is in KiB on Linux)
    who = resource.RUSAGE_CHILDREN if workload == "cli" and not traced else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    if traced:
        result["layers"] = tracer.layer_stats()
        result["spans"] = tracer.spans
        result["self_s"] = tracer.self_times()
        golden_rules = goldens.get("rules")
        rules = {k: v for k, v in result["layers"].items()
                 if k.startswith("classify.rule.") and v}
        if golden_rules is not None and not smoke and rules != golden_rules:
            result["failures"].append(["rules", f"rule counts {rules} differ "
                                                f"from golden {golden_rules}"])
    return result


def execute(ops, inputs, goldens, clock) -> dict:
    """Time each operation on the clock, with a garbage collection before
    each one that is not timed, and check its output and inputs against the
    goldens."""
    golden_out = goldens.get("outputs", {})
    golden_in = goldens.get("inputs", {})
    times = {"op_s": [], "op_cpu_s": [], "op_units": [], "op_cpu_units": []}
    failures, digests = [], {}
    for op_id, fn, input_ids in ops:
        gc.collect()
        try:
            text, problem = clock.run(fn)
        except Exception as exc:  # a failing operation is counted, not fatal
            text, problem = None, f"raised {type(exc).__name__}: {exc}"
        for key, value in zip(times, (clock.wall, clock.cpu, clock.wall_units,
                                      clock.cpu_units)):
            times[key].append(value)
        if text is not None:
            digests[op_id] = digest(text)
            if problem is None and op_id in golden_out and golden_out[op_id] != digests[op_id]:
                problem = "output differs from golden"
        for key in input_ids:
            if problem is None and key in golden_in and golden_in[key] != inputs.get(key):
                problem = f"input {key} differs from golden"
        if problem is not None:
            failures.append([op_id, problem])
    return {**times, "wall_s": sum(times["op_s"]), "attempted": len(ops),
            "failures": failures, "outputs": digests, "inputs": inputs}


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def interpreter_costs(repeat: int = 5) -> dict:
    """Median start-up of a bare interpreter, and what importing the CLI adds."""
    def timed(code):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    interp = timed("pass")
    return {"cli.interpreter_s": interp,
            "cli.import_s": timed("import autodual.cli") - interp}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=SMOKE_OPS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--no-goldens", action="store_true",
                        help="check nothing against goldens (used to record them)")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, traced=args.traced, smoke=args.smoke,
                      goldens={} if args.no_goldens else None)
    if args.traced:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"spans": [s + [own] for s, own in zip(result.pop("spans"),
                                                  result.pop("self_s"))],
             "fields": ["name", "start", "end", "parent", "self_s"]}))
        result["layers"].update(interpreter_costs())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
