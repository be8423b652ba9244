"""Command-line interface.

Subcommands: classify, analyze, normalize, catalog, chain, check-eq, embed,
witness, verify-cert.  Exit codes: 0 success, 1 usage (also: a query that
answers "no"), 2 parse error, 3 precondition violated, 4 internal-invariant
violation.

Each process pays for compiling what it imports, so at module level this
imports only `algebras` and `errors`; each `cmd_*` imports the modules it
runs when it runs.  `catalog` loads nothing more, `check-eq` loads `terms`,
`embed` loads `powers`, and only `witness` loads `witness`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebras import CATALOG_STATE_CAP, AutomaticAlgebra, catalog
from .errors import BadParams, CapExceeded, InputParseError, ToolError


class UsageError(ToolError):
    exit_code = 1


def parse_algebra_file(source) -> AutomaticAlgebra:
    """Parse the whitespace/line algebra format (`#` starts a comment) from the text or an
    open text file, a line at a time, into one dict keyed by (state, letter) index.  Lines
    are numbered as by `str.splitlines`; a conflict is raised once every line has passed."""
    names, index = {}, {"states": None, "letters": None}     # by head: names, name -> position
    delta, conflict = {}, None
    physical = source.splitlines(True) if isinstance(source, str) else source
    for lineno, raw in enumerate((part for line in physical for part in line.splitlines()), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "trans":
            sidx, lidx = index["states"], index["letters"]
            if sidx is None or lidx is None:
                raise InputParseError("trans before states/letters", line=lineno)
            if len(tokens) != 4:
                raise InputParseError("trans needs: state letter state", line=lineno)
            _, q, a, r = tokens
            if q not in sidx or r not in sidx:
                raise InputParseError(f"unknown state in {tokens[1:]}", line=lineno)
            if a not in lidx:
                raise InputParseError(f"unknown letter in {tokens[1:]}", line=lineno)
            if delta.setdefault((sidx[q], lidx[a]), sidx[r]) != sidx[r]:
                conflict = conflict or InputParseError(
                    f"conflicting transitions for ({q}, {a})", line=lineno)
        elif head in index:
            rest = tokens[1:]
            if len(rest) > CATALOG_STATE_CAP:
                raise CapExceeded(f"line {lineno} names {len(rest)} {head}, over the "
                                  f"cap {CATALOG_STATE_CAP}")
            if head in names:
                raise InputParseError(f"duplicate {head} line", line=lineno)
            names[head], index[head] = rest, {name: i for i, name in enumerate(rest)}
        else:
            raise InputParseError(f"unknown directive {head!r}", line=lineno)
    if len(names) < 2:
        raise InputParseError("missing states or letters line")
    if conflict:
        raise conflict
    return AutomaticAlgebra(names["states"], names["letters"], delta)


def _load(path: str) -> AutomaticAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_algebra_file(fh)
        except UnicodeDecodeError as exc:
            raise InputParseError(f"algebra file is not UTF-8 text ({exc.reason})")


def _reported_note(M: AutomaticAlgebra) -> str:
    # Non-normative annotation: published analysis settles some catalog
    # algebras that the rule engine honestly leaves open.
    if M == catalog("L"):
        return ("note (reported, not derived): the literature shows this "
                "algebra non-dualizable via a bespoke power construction; "
                "see `autodual witness ex_all4_L --size 6`.")
    return ""


def _algebra_by_token(token: str) -> AutomaticAlgebra:
    """A catalog token, B, L, L3star, R or a catalog name with its parameter
    (C5), else an algebra file."""
    match = re.fullmatch(r"(B|L|R|F|N|C|chain)(\d+)", token)
    if token in ("B", "L", "L3star", "R"):
        return catalog(token)
    if match:
        return catalog(match.group(1), int(match.group(2)))
    return _load(token)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    from .classify import classify
    M = _load(args.file)
    verdict = classify(M)
    if args.json:
        print(json.dumps(verdict.to_json()))
        return 0
    print(f"verdict: {verdict.outcome}")
    print(f"rule: {verdict.rule}")
    if verdict.certificate is not None:
        print("certificate: " + json.dumps(verdict.certificate))
    print("trace:")
    for entry in verdict.trace:
        mark = "*" if entry["fired"] else " "
        detail = f"  ({entry['detail']})" if entry["detail"] else ""
        print(f"  {mark} {entry['rule']}{detail}")
    if verdict.outcome == "unknown":
        note = _reported_note(M)
        if note:
            print(note)
    return 0


def cmd_analyze(args) -> int:
    from .structure import (components, letter_affine_analysis, permutation_profile,
                            whiskery_check)
    M = _load(args.file)
    print("== COMPONENTS ==")
    for comp in components(M):
        print("  {" + " ".join(M.state_names[i] for i in comp) + "}")
    def fmt(ss):
        return "{" + " ".join(M.state_names[i] for i in sorted(ss)) + "}"
    print("== LETTER SETS ==")
    for j, name in enumerate(M.letter_names):
        print(f"  {name}: dom {fmt(M.dom(j))} ran {fmt(M.ran(j))} ks {fmt(M.kills(j))}")
    print("== WHISKERY ==")
    wf = whiskery_check(M)
    if wf is None:
        print("  every letter acts as whiskery cycles")
    else:
        print(f"  FAILS: letter {M.letter_names[wf.letter]} at state "
              f"{M.state_names[wf.state]} (F_{wf.forbidden_m} embeds)")
    print("== PERMUTATION PROFILE ==")
    prof = permutation_profile(M)
    print(f"  permutational: {prof.permutational}")
    print(f"  commuting: {prof.commuting}")
    for ci, row in enumerate(prof.component_status):
        print(f"  component {ci}: "
              + " ".join(f"{M.letter_names[j]}={st}" for j, st in enumerate(row)))
    print("== LETTER-AFFINE ==")
    rep = letter_affine_analysis(M)
    print(f"  letter-affine: {rep.affine}")
    if rep.failure is not None:
        comp, kind, detail = rep.failure
        names = " ".join(M.state_names[i] for i in comp)
        print(f"  failure: {kind} on component {{{names}}}: {detail}")
    for cr in rep.components:
        names = " ".join(M.state_names[i] for i in cr.states)
        dropped = " ".join(M.letter_names[j] for j in cr.dropped) or "-"
        print(f"  component {{{names}}}: letters "
              + " ".join(M.letter_names[j] for j in cr.sigma_c)
              + f" dropped {dropped}")
    return 0


def cmd_normalize(args) -> int:
    from .classify import normalize_algebra
    M = _load(args.file)
    N, steps = normalize_algebra(M)
    for step in steps:
        print(f"# {step['kind']}: removed {step['removed']}")
    sys.stdout.write(N.emit())
    return 0


def cmd_catalog(args) -> int:
    M = catalog(args.name, *args.params)
    if not args.emit:
        print(f"{args.name}: {M.n_states} states, {M.n_letters} letters, "
              f"{len(M.transitions())} transitions")
    sys.stdout.write(M.emit())
    return 0


def cmd_chain(args) -> int:
    from .classify import check_chain_cap, classify, gen_chain
    check_chain_cap(args.n)
    for n in range(1, args.n + 1):
        M = gen_chain(n)
        verdict = classify(M)
        print(f"M_{n}: |Q| = {M.n_states}, |Sigma| = {M.n_letters}: "
              f"{verdict.outcome} ({verdict.rule})")
    return 0


def cmd_check_eq(args) -> int:
    from .terms import (check_identity, check_quasi_identity, parse_equation,
                        parse_quasi_identity)
    M = _load(args.file)
    if "=>" in args.expr:
        q = parse_quasi_identity(args.expr)
        cex = check_quasi_identity(M, q)
    else:
        lhs, rhs = parse_equation(args.expr)
        cex = check_identity(M, lhs, rhs)
    if cex is None:
        print("holds")
    else:
        parts = ", ".join(f"{v}={M.name(x)}" for v, x in sorted(cex.items()))
        print(f"counterexample: {parts}")
    return 0


def cmd_embed(args) -> int:
    from .powers import Groupoid, find_embedding
    A = _load(args.file1)
    B = _load(args.file2)
    G = Groupoid.from_algebra(A)
    hom = find_embedding(G, B, max_elements=args.max_elements)
    if hom is None:
        print("no embedding")
        return 1
    print("embedding: " + " ".join(f"{G.labels[i]}->{B.name(x)}"
                                   for i, x in enumerate(hom)))
    return 0


def _witness_param(token: str, default):
    """A witness parameter of its default's kind: integer, algebra or letter."""
    if isinstance(default, AutomaticAlgebra):
        return _algebra_by_token(token)
    if isinstance(default, int):
        try:
            return int(token)
        except ValueError:
            raise UsageError(f"expected an integer parameter, not {token!r}")
    return token


def cmd_witness(args) -> int:
    from .witness import (BUILD_CAP_DEFAULT, PARAM_DEFAULTS, build_truncation,
                          format_report, kernel_block_analysis, verify_construction)
    defaults = PARAM_DEFAULTS.get(args.name)
    if defaults is not None and len(args.params) > len(defaults):
        raise UsageError(f"{args.name} takes at most {len(defaults)} parameter(s), "
                         f"got {len(args.params)}")
    params = tuple(map(_witness_param, args.params, defaults or ()))
    build_cap = BUILD_CAP_DEFAULT if args.build_cap is None else args.build_cap
    trunc = build_truncation(args.name, params, args.size, max_elements=build_cap)
    report = verify_construction(trunc)
    print(format_report(report))
    if len(trunc.elements) <= args.max_elements:
        kr = kernel_block_analysis(trunc, nu=args.nu, max_elements=args.max_elements)
        counted = kr.hom_count if kr.hom_count is not None else "not enumerated"
        print(f"kernel analysis [{kr.mode}]: nu = {kr.nu}, homs = {counted}, "
              f"block patterns = {kr.block_multisets}, "
              f"violations = {len(kr.violations)}")
    else:
        print(f"kernel analysis: skipped (|A| = {len(trunc.elements)} exceeds "
              f"--max-elements {args.max_elements})")
    return 0 if not report["g_in_A"] else 4


def cmd_verify_cert(args) -> int:
    from .classify import verify_certificate
    M = _load(args.file)
    with open(args.cert_file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise InputParseError(f"certificate file is not JSON: {exc}")
    ok, reason = verify_certificate(M, data)
    if ok:
        print("certificate VALID")
        return 0
    print(f"certificate INVALID: {reason}")
    return 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FILE = ("file", {})
# 64 is powers.HOM_CAP_DEFAULT, which this module does not import at load
_MAX_ELEMENTS = ("--max-elements", {"type": int, "default": 64, "help": "hom-enumeration cap"})
_LEAST = {"--max-elements": 0, "--nu": 0, "--build-cap": 1}     # checked in `main`

# (name, handler, help, arguments): each argument is (name, add_argument options)
_SUBCOMMANDS = (
    ("classify", cmd_classify, "classify an algebra file",
     (_FILE, ("--json", {"action": "store_true"}))),
    ("analyze", cmd_analyze, "structural report", (_FILE,)),
    ("normalize", cmd_normalize, "apply quasi-variety-preserving reductions", (_FILE,)),
    ("catalog", cmd_catalog, "emit a named algebra",
     (("name", {}), ("params", {"nargs": "*", "type": int}),
      ("--emit", {"action": "store_true"}))),
    ("chain", cmd_chain, "classify the alternating chain M_1..M_N, N <= 7",
     (("n", {"type": int}),)),
    ("check-eq", cmd_check_eq, "check an identity or quasi-identity",
     (_FILE, ("expr", {}))),
    ("embed", cmd_embed, "search an embedding FILE1 -> FILE2",
     (("file1", {}), ("file2", {}), _MAX_ELEMENTS)),
    ("witness", cmd_witness, "build and verify a truncated construction",
     (("name", {}), ("params", {"nargs": "*"}), ("--size", {"type": int, "required": True}),
      ("--nu", {"type": int, "default": None}),
      ("--build-cap", {"type": int}),         # None: witness.BUILD_CAP_DEFAULT
      _MAX_ELEMENTS)),
    ("verify-cert", cmd_verify_cert, "re-check a verdict JSON against an algebra",
     (_FILE, ("cert_file", {}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autodual",
                     description="Dualizability toolkit for finite automatic algebras")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in _SUBCOMMANDS:
        sub = commands.add_parser(name, help=help_text)
        for arg, options in arguments:
            sub.add_argument(arg, **options)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, least in _LEAST.items():      # before any file is read
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value < least:
                raise BadParams(f"{flag} must be at least {least}, not {value}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
