"""Certificate-producing dualizability classification.

The rule pipeline (order is part of the external contract):

  1  zero_semigroup          Q or Σ empty                        -> dualizable
  2  normalize               quasi-variety-preserving reductions
  3  whiskery                some letter not whiskery cycles     -> non-dualizable
  4  rankill                 kill/range reachability             -> non-dualizable
  5  order_sensitivity       rearrangement kill flip             -> non-dualizable
  6  single_letter           |Σ| = 1 (whiskery already passed)   -> dualizable
  7  two_state               |Q| = 2 equational test             -> either
  8  constant_letters        total, all letters constant         -> dualizable
  9  all_loops               every edge a loop                   -> dualizable
 10  letter_affine           per-component coset actions         -> dualizable
 11  commuting_permutations  coset-free commuting permutations   -> non-dualizable
 12  unknown                 honest fall-through

Rules 3-11 are the ordered `RULES` table, the single source of the pipeline
order: `classify` runs it, `RULE_ORDER` is read off it, and the verifier of
an `unknown` verdict replays it.  Rules 1, 2 and 12 frame it in `classify`.

Certificates are JSON-shaped dicts tagged by "kind"; `verify_certificate`
re-derives every claim from the algebra alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import structure, terms
from .abgroups import AbelianGroup
from .algebras import ZERO, AutomaticAlgebra, _is_odd_prime, catalog
from .errors import (BadParams, CapExceeded, InternalInconsistency,
                     InternalInvariantViolation, UnknownName)
from .powers import constant_letter_values
from .structure import (component_actions, components, difference_order,
                        first_embedded, group_law_holds, letter_affine_analysis,
                        nondcomm_check, rankill_check, whiskery_check)
from .terms import LeftChain, check_identity

EQ_XY_XYYY = (LeftChain("x", ("y",)), LeftChain("x", ("y", "y", "y")))
EQ_WXYZ_WYXZ = (LeftChain("w", ("x", "y", "z")), LeftChain("w", ("y", "x", "z")))


@dataclass
class Verdict:
    outcome: str                  # dualizable | non_dualizable | unknown
    rule: str
    certificate: Optional[dict]
    trace: list

    def to_json(self) -> dict:
        return {"verdict": self.outcome, "rule": self.rule,
                "certificate": self.certificate, "trace": self.trace}


# ---------------------------------------------------------------------------
# normalization (quasi-variety-preserving reductions)
# ---------------------------------------------------------------------------

_REDUCTIONS = ("drop_undefined_letter", "drop_repeated_letter",
               "drop_isolated_state", "drop_redundant_state")


def _reduction_image(M: AutomaticAlgebra, kind: str, k: int) -> Optional[list]:
    """Where the embedding into the square of the reduced algebra sends the
    removed letter or state k, or None if the reduction does not apply."""
    if kind == "drop_undefined_letter":
        if M.n_states > 0 and not M.dom(k):
            return ["0", M.state_names[0]]
    elif kind == "drop_repeated_letter":
        for j1 in range(k):
            if M.action(j1) == M.action(k):
                return [M.letter_names[j1]] * 2
    elif kind == "drop_isolated_state":
        if M.n_letters > 0 and all(k not in M.dom(j) and k not in M.ran(j)
                                   for j in range(M.n_letters)):
            return ["0", M.letter_names[0]]
    elif not any(k in M.ran(j) for j in range(M.n_letters)):   # drop_redundant_state
        for r in range(M.n_states):
            if r != k and all(M.delta.get((k, j)) == M.delta.get((r, j))
                              for j in range(M.n_letters)):
                return [M.state_names[r]] * 2
    return None


def _reduce(M: AutomaticAlgebra, kind: str, k: int):
    """(reduced algebra, step record) if the reduction applies to k, else None."""
    image = _reduction_image(M, kind, k)
    if image is None:
        return None
    if kind.endswith("letter"):
        N, removed = M.drop_letter(k), M.letter_names[k]
    else:
        N, removed = M.drop_state(k), M.state_names[k]
    emb = {x: [x, "0"] for x in _names(N)}
    emb[removed] = image
    return N, {"kind": kind, "removed": removed, "embedding": emb}


def _find_reduction(M: AutomaticAlgebra):
    """First applicable reduction in `_REDUCTIONS` order, least index first."""
    for kind in _REDUCTIONS:
        for k in range(M.n_letters if kind.endswith("letter") else M.n_states):
            found = _reduce(M, kind, k)
            if found is not None:
                return found
    return None


def _names(M: AutomaticAlgebra) -> list:
    return list(M.state_names) + list(M.letter_names) + ["0"]


def check_embedding(A: AutomaticAlgebra, targets: list, emb: dict) -> Optional[str]:
    """None if `emb` is an injective hom A -> Π targets, else a reason.

    `emb` maps every element name of A, and nothing else, to a list of one
    element name per target.
    """
    names = _names(A)
    if set(emb) != set(names):
        return "embedding domain does not match the algebra's elements"
    if any(len(emb[n]) != len(targets) for n in names):
        return "embedding images have the wrong width"
    try:
        vec = {A.element_by_name(n): tuple(T.element_by_name(c)
                                           for T, c in zip(targets, emb[n]))
               for n in names}
    except UnknownName as exc:
        return f"embedding names invalid: {exc}"
    if len(set(vec.values())) != len(vec):
        return "embedding is not injective"
    for x in A.elements():
        for y in A.elements():
            lhs = vec[A.mul(x, y)]
            rhs = tuple(T.mul(a, b) for T, a, b in zip(targets, vec[x], vec[y]))
            if lhs != rhs:
                return (f"embedding is not a homomorphism at "
                        f"({A.name(x)}, {A.name(y)})")
    return None


def _replay_steps(M: AutomaticAlgebra, steps: list) -> tuple:
    """(reduced algebra, None) after checking every stated step, or (None, reason)."""
    cur = M
    for step in steps:
        kind, removed = step["kind"], step["removed"]
        if kind not in _REDUCTIONS:
            return None, f"unknown reduction step kind {kind!r}"
        names = cur.letter_names if kind.endswith("letter") else cur.state_names
        found = _reduce(cur, kind, names.index(removed))
        if found is None:
            return None, f"{kind} does not apply to {removed}"
        reason = check_embedding(cur, [found[0], found[0]], step["embedding"])
        if reason is not None:
            return None, reason
        cur = found[0]
    return cur, None


def normalize_algebra(M: AutomaticAlgebra):
    """Apply the four reductions to fixpoint; each step records an embedding
    into the square of the reduced algebra and is verified before use."""
    steps = []
    cur = M
    while True:
        found = _find_reduction(cur)
        if found is None:
            return cur, steps
        nxt, step = found
        reason = check_embedding(cur, [nxt, nxt], step["embedding"])
        if reason is not None:
            raise InternalInconsistency(f"reduction embedding invalid: {reason}")
        steps.append(step)
        cur = nxt


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------
#
# Each detector takes the normalized algebra N and returns None when its
# rule does not fire, or (outcome, certificate, trace detail) when it does.
# A rule that does not fire may still report a detail as (None, None, detail).
# Detectors call the structure/terms predicates through module globals, so
# wrappers installed on those names see every call.

def _detect_whiskery(N: AutomaticAlgebra):
    wf = whiskery_check(N)
    if wf is None:
        return None
    cert = {"kind": "whiskery_failure",
            "letter": N.letter_names[wf.letter],
            "state": N.state_names[wf.state],
            "m": wf.forbidden_m, "embedding": wf.embedding}
    return ("non_dualizable", cert,
            f"letter {cert['letter']} fails at {cert['state']}")


def _detect_rankill(N: AutomaticAlgebra):
    rk = rankill_check(N)
    if rk is None:
        return None
    cert = {"kind": "rankill", "case": rk.case,
            "letter": N.letter_names[rk.letter],
            "state": N.state_names[rk.state],
            "word": [N.letter_names[j] for j in rk.word]}
    return ("non_dualizable", cert, f"case {rk.case} at letter {cert['letter']}")


def _detect_order_sensitivity(N: AutomaticAlgebra):
    ow = terms.order_sensitivity(N)
    if ow is None:
        return None
    cert = {"kind": "order_sensitive", "state": N.state_names[ow.state],
            "w1": [N.letter_names[j] for j in ow.w1],
            "w2": [N.letter_names[j] for j in ow.w2]}
    return ("non_dualizable", cert, f"state {cert['state']}")


def _detect_single_letter(N: AutomaticAlgebra):
    if N.n_letters != 1:
        return None
    return ("dualizable", {"kind": "single_letter_whiskery"}, "single whiskery letter")


def _detect_two_state(N: AutomaticAlgebra):
    """The equational test, cross-asserted against the forbidden subalgebras."""
    if N.n_states != 2:
        return None
    cex1 = check_identity(N, *EQ_XY_XYYY)
    cex2 = check_identity(N, *EQ_WXYZ_WYXZ)
    holds = cex1 is None and cex2 is None
    forbidden = first_embedded(N, "N", range(6))
    if holds != (forbidden is None):
        raise InternalInconsistency(
            "two-state equations and forbidden-subalgebra tests disagree")
    if holds:
        cert = {"kind": "two_state_equations",
                "identities": ["x*y = x*y*y*y", "w*x*y*z = w*y*x*z"]}
        return ("dualizable", cert, "both equations hold")
    cert = {"kind": "two_state_forbidden", "which": f"N{forbidden[0]}",
            "embedding": forbidden[1]}
    return ("non_dualizable", cert, f"forbidden subalgebra {cert['which']}")


def _detect_constant_letters(N: AutomaticAlgebra):
    values = constant_letter_values(N)
    if values is None:
        return None
    cert = {"kind": "constant_letters",
            "values": {N.letter_names[j]: N.state_names[v] for j, v in enumerate(values)}}
    return ("dualizable", cert, "")


def _all_loops(M: AutomaticAlgebra) -> bool:
    return all(ti == si for (si, _), ti in M.delta.items())


def _detect_all_loops(N: AutomaticAlgebra):
    if not _all_loops(N):
        return None
    comps = components(N)
    split = None
    if len(comps) > 1:
        subs = [N.component_subalgebra(c) for c in comps]
        emb = {}
        for i, c in enumerate(comps):
            for s in c:
                vec = ["0"] * len(comps)
                vec[i] = N.state_names[s]
                emb[N.state_names[s]] = vec
        for name in list(N.letter_names) + ["0"]:
            emb[name] = [name] * len(comps)
        split = {"kind": "component_split",
                 "components": [[N.state_names[s] for s in c] for c in comps],
                 "embedding": emb}
        reason = check_embedding(N, subs, emb)
        if reason is not None:
            raise InternalInconsistency(f"component split invalid: {reason}")
    entries = []
    for c in comps:
        sub = N.component_subalgebra(c)
        final, steps = normalize_algebra(sub)
        if final.n_states != 1 or final.n_letters != 1 or \
                constant_letter_values(final) is None:
            raise InternalInconsistency("loop component did not reduce to a "
                                        "one-state constant-letter algebra")
        entries.append({"states": [N.state_names[s] for s in c],
                        "steps": steps,
                        "final": {"state": final.state_names[0],
                                  "letter": final.letter_names[0]}})
    return ("dualizable", {"kind": "all_loops", "split": split, "components": entries}, "")


def _detect_letter_affine(N: AutomaticAlgebra):
    report = letter_affine_analysis(N)
    if not report.affine:
        if report.failure is None:
            return None
        comp_names = " ".join(N.state_names[i] for i in report.failure[0])
        return (None, None, f"failure {report.failure[1]} on component {{{comp_names}}}")
    comps = []
    for cr in report.components:
        entry = {"states": [N.state_names[s] for s in cr.states],
                 "letters": [N.letter_names[j] for j in cr.sigma_c],
                 "dropped": [N.letter_names[j] for j in cr.dropped]}
        if cr.data is not None:
            data = cr.data
            names = [N.state_names[s] for s in data.states]
            entry.update({
                "e": N.state_names[data.e_state],
                "op": [[names[data.group.op(i, k)] for k in range(len(names))]
                       for i in range(len(names))],
                "letter_images": {N.letter_names[j]: names[g]
                                  for j, g in sorted(data.letter_images.items())},
                "H": [names[g] for g in sorted(data.subgroup_H)],
                "exponent": data.exponent,
                "decomposition": [[names[g], d] for g, d in data.decomposition],
            })
        comps.append(entry)
    return ("dualizable", {"kind": "letter_affine", "components": comps}, "")


def _detect_commuting_permutations(N: AutomaticAlgebra):
    nd = nondcomm_check(N)
    if nd is None:
        return None
    cert = {"kind": "commuting_permutations",
            "b": N.letter_names[nd.b], "c": N.letter_names[nd.c], "m": nd.m,
            "report": [{"states": [N.state_names[s] for s in comp],
                        "actions": count} for comp, count in nd.coset_report]}
    return ("non_dualizable", cert, f"pair ({cert['b']}, {cert['c']}), m = {nd.m}")


RULES = (
    ("whiskery", _detect_whiskery),
    ("rankill", _detect_rankill),
    ("order_sensitivity", _detect_order_sensitivity),
    ("single_letter", _detect_single_letter),
    ("two_state", _detect_two_state),
    ("constant_letters", _detect_constant_letters),
    ("all_loops", _detect_all_loops),
    ("letter_affine", _detect_letter_affine),
    ("commuting_permutations", _detect_commuting_permutations),
)

RULE_ORDER = (("zero_semigroup", "normalize") + tuple(name for name, _ in RULES)
              + ("unknown",))


def classify(M: AutomaticAlgebra) -> Verdict:
    """Run the rule pipeline and return a self-contained verdict."""
    trace = []

    def entry(rule, fired, detail=""):
        trace.append({"rule": rule, "fired": fired, "detail": detail})

    if M.n_states == 0 or M.n_letters == 0:
        entry("zero_semigroup", True, "empty state or letter set")
        return Verdict("dualizable", "zero_semigroup",
                       {"kind": "zero_semigroup"}, trace)
    entry("zero_semigroup", False)

    N, steps = normalize_algebra(M)
    entry("normalize", bool(steps),
          ", ".join(f"{s['kind']}:{s['removed']}" for s in steps) or "already normal")

    def wrap(cert):
        if steps:
            return {"kind": "reduction_chain", "steps": steps, "inner": cert}
        return cert

    if N.n_states == 0 or N.n_letters == 0:
        entry("zero_semigroup", True, "empty after normalization")
        return Verdict("dualizable", "zero_semigroup",
                       wrap({"kind": "zero_semigroup"}), trace)

    for name, detect in RULES:
        outcome, cert, detail = detect(N) or (None, None, "")
        entry(name, outcome is not None, detail)
        if outcome is not None:
            return Verdict(outcome, name, wrap(cert), trace)

    entry("unknown", True, "no rule applies; the problem is open here")
    return Verdict("unknown", "unknown", None, trace)


# ---------------------------------------------------------------------------
# certificate verification (independent re-derivation)
# ---------------------------------------------------------------------------

def verify_certificate(M: AutomaticAlgebra, verdict) -> tuple:
    """(ok, reason). Re-derives every claim in the certificate from M alone."""
    try:
        if isinstance(verdict, Verdict):
            outcome, cert = verdict.outcome, verdict.certificate
        else:
            outcome, cert = verdict["verdict"], verdict.get("certificate")
        if outcome not in ("dualizable", "non_dualizable", "unknown"):
            return (False, f"unrecognized verdict {outcome!r}")
        if outcome == "unknown":
            return _verify_unknown(M)
        if cert is None:
            return (False, "decided verdict without certificate")
        return _verify_cert(M, cert, outcome)
    except (InternalInvariantViolation, CapExceeded):
        raise     # a fault or an unfinished check, not an invalid certificate
    except Exception as exc:  # malformed certificates must not crash the verifier
        return (False, f"verification error: {exc}")


def _verify_cert(M: AutomaticAlgebra, cert: dict, outcome: str) -> tuple:
    kind = cert.get("kind")
    if kind == "reduction_chain":
        cur, reason = _replay_steps(M, cert["steps"])
        if reason is not None:
            return (False, reason)
        return _verify_cert(cur, cert["inner"], outcome)
    if kind not in _CERT_KINDS:
        return (False, f"unknown certificate kind {kind!r}")
    witnesses, checker = _CERT_KINDS[kind]
    if outcome != witnesses:
        return (False, f"{kind} cannot witness the verdict {outcome}")
    return checker(M, cert)


def _verify_zero(M, cert):
    if M.n_states == 0 or M.n_letters == 0:
        return (True, "")
    return (False, "both Q and Σ are nonempty")


def _verify_embeds(A: AutomaticAlgebra, M: AutomaticAlgebra, emb: dict) -> tuple:
    """Check an element-name embedding A -> M."""
    reason = check_embedding(A, [M], {name: [img] for name, img in emb.items()})
    return (reason is None, reason or "")


def _verify_whiskery_failure(M, cert):
    j = M.letter_names.index(cert["letter"])
    i = M.state_names.index(cert["state"])
    if structure._whiskery_at(M, i, j):
        return (False, "the letter passes at the state; no failure")
    m = cert["m"]
    # an embedded F_m has m + 2 distinct states, so m < |Q|; bound it before
    # building F_m
    if type(m) is not int or not 0 <= m < M.n_states:
        return (False, "stated m is not an integer in 0..|Q|-1")
    return _verify_embeds(catalog("F", m), M, cert["embedding"])


def _verify_rankill(M, cert):
    j = M.letter_names.index(cert["letter"])
    i = M.state_names.index(cert["state"])
    word = tuple(M.letter_names.index(a) for a in cert["word"])
    end = M.word(M.state(i), word)
    if end == ZERO:
        return (False, "witness word dies")
    ti = M.state_index(end)
    if cert["case"] == 1:
        if i in M.kills(j) and ti in M.dom(j):
            return (True, "")
        return (False, "case-1 conditions fail")
    if cert["case"] == 2:
        if i in M.ran(j) and ti in M.kills(j):
            return (True, "")
        return (False, "case-2 conditions fail")
    return (False, "unknown case")


def _verify_order_sensitive(M, cert):
    i = M.state_names.index(cert["state"])
    w1 = tuple(M.letter_names.index(a) for a in cert["w1"])
    w2 = tuple(M.letter_names.index(a) for a in cert["w2"])
    if sorted(w1) != sorted(w2):
        return (False, "words are not rearrangements of each other")
    if M.word(M.state(i), w1) != ZERO:
        return (False, "first word does not die")
    if M.word(M.state(i), w2) == ZERO:
        return (False, "second word dies too")
    return (True, "")


def _verify_single_letter(M, cert):
    if M.n_letters != 1:
        return (False, "more than one letter")
    if structure._whiskery_direct(M) is not None:
        return (False, "the letter does not act as whiskery cycles")
    return (True, "")


def _verify_two_state_equations(M, cert):
    if M.n_states != 2:
        return (False, "not a two-state algebra")
    if check_identity(M, *EQ_XY_XYYY) is not None:
        return (False, "xy = xyyy fails")
    if check_identity(M, *EQ_WXYZ_WYXZ) is not None:
        return (False, "wxyz = wyxz fails")
    return (True, "")


def _verify_two_state_forbidden(M, cert):
    which = cert["which"]
    if not which.startswith("N") or not which[1:].isdigit():
        return (False, "unknown forbidden algebra")
    return _verify_embeds(catalog("N", int(which[1:])), M, cert["embedding"])


def _verify_constant_letters(M, cert):
    found = _detect_constant_letters(M)
    if found is None:
        return (False, "not a total constant-letter algebra")
    if found[1]["values"] != cert["values"]:
        return (False, "stated constants disagree with the table")
    return (True, "")


def _verify_all_loops(M, cert):
    if not _all_loops(M):
        return (False, "some edge is not a loop")
    comps = components(M)
    stated = cert.get("components", [])
    if [e["states"] for e in stated] != [[M.state_names[s] for s in c] for c in comps]:
        return (False, "stated components do not match")
    split = cert.get("split")
    if len(comps) > 1:
        if split is None:
            return (False, "missing component split")
        subs = [M.component_subalgebra(c) for c in comps]
        reason = check_embedding(M, subs, split["embedding"])
        if reason is not None:
            return (False, reason)
    for comp, entry in zip(comps, stated):
        cur, reason = _replay_steps(M.component_subalgebra(comp), entry["steps"])
        if reason is not None:
            return (False, reason)
        if cur.n_states != 1 or cur.n_letters != 1 or constant_letter_values(cur) is None:
            return (False, "component does not reduce to the constant-letter case")
        if entry["final"] != {"state": cur.state_names[0],
                              "letter": cur.letter_names[0]}:
            return (False, "stated final algebra disagrees")
    return (True, "")


def _verify_letter_affine(M, cert):
    comps = components(M)
    stated = cert.get("components", [])
    if [e["states"] for e in stated] != [[M.state_names[s] for s in c] for c in comps]:
        return (False, "stated components do not match")
    for comp, entry in zip(comps, stated):
        sigma_c = sorted(j for js in component_actions(M, comp).values() for j in js)
        if entry["letters"] != [M.letter_names[j] for j in sigma_c]:
            return (False, "stated component letters do not match")
        if not sigma_c:
            continue
        names = entry["states"]
        pos = {n: k for k, n in enumerate(names)}
        op = entry["op"]
        if len(op) != len(names) or any(len(row) != len(names) for row in op):
            return (False, "stated table is not |C|×|C|")
        try:
            table = [[pos[v] for v in row] for row in op]
            G = AbelianGroup(table, labels=names)
        except Exception as exc:
            return (False, f"stated table is not an abelian group: {exc}")
        if names[G.identity] != entry["e"]:
            return (False, "stated identity disagrees with the table")
        images = {}
        for j in sigma_c:
            img_name = entry["letter_images"].get(M.letter_names[j])
            if img_name not in pos:
                return (False, f"no stated image for letter {M.letter_names[j]}")
            images[j] = pos[img_name]
        if not group_law_holds(M, comp, G, images):
            return (False, "table law q·a = q * a_img fails")
        H = G.difference_subgroup(images.values())
        if sorted(names[g] for g in H) != sorted(entry["H"]):
            return (False, "stated H is not the difference subgroup")
        image_set = set(images.values())
        if G.malcev_gap(sorted(image_set)) is not None:
            return (False, "letter images are not Mal'cev closed")
        least = images[sigma_c[0]]
        coset = {G.op(least, h) for h in H}
        if coset != image_set:
            return (False, "letter images are not a coset of H")
        if entry.get("exponent") != G.exponent:
            return (False, "stated exponent disagrees")
        total = 1
        for gen_name, order in entry.get("decomposition", []):
            if gen_name not in pos or G.order_of(pos[gen_name]) != order:
                return (False, "stated decomposition generator order is wrong")
            total *= order
        if total != G.n:
            return (False, "stated decomposition orders do not multiply to |C|")
    return (True, "")


def _verify_commuting_permutations(M, cert):
    profile = structure.permutation_profile(M)
    if not profile.permutational:
        return (False, "not permutational")
    if not profile.commuting:
        return (False, "letters do not commute")
    b = M.letter_names.index(cert["b"])
    c = M.letter_names.index(cert["c"])
    perms = profile.perms
    m = difference_order(perms, b, c)
    if m != cert["m"] or m <= 1:
        return (False, f"stated order m = {cert['m']} is wrong (actual {m})")
    for comp in components(M):
        if structure._coset_inside(component_actions(M, comp).keys(), m):
            return (False, "a component action set contains a qualifying coset")
    return (True, "")


# certificate kind -> (the verdict it witnesses, its checker)
_CERT_KINDS = {
    "zero_semigroup": ("dualizable", _verify_zero),
    "whiskery_failure": ("non_dualizable", _verify_whiskery_failure),
    "rankill": ("non_dualizable", _verify_rankill),
    "order_sensitive": ("non_dualizable", _verify_order_sensitive),
    "single_letter_whiskery": ("dualizable", _verify_single_letter),
    "two_state_equations": ("dualizable", _verify_two_state_equations),
    "two_state_forbidden": ("non_dualizable", _verify_two_state_forbidden),
    "constant_letters": ("dualizable", _verify_constant_letters),
    "all_loops": ("dualizable", _verify_all_loops),
    "letter_affine": ("dualizable", _verify_letter_affine),
    "commuting_permutations": ("non_dualizable", _verify_commuting_permutations),
}


def _verify_unknown(M: AutomaticAlgebra) -> tuple:
    """An unknown verdict claims no rule decides: replay the pipeline."""
    if M.n_states == 0 or M.n_letters == 0:
        return (False, "zero semigroup decides")
    N, _ = normalize_algebra(M)
    if N.n_states == 0 or N.n_letters == 0:
        return (False, "normalizes to a zero semigroup")
    for name, detect in RULES:
        found = detect(N)
        if found is not None and found[0] is not None:
            return (False, f"rule {name} decides")
    return (True, "")


# ---------------------------------------------------------------------------
# the alternating chain
# ---------------------------------------------------------------------------

def _least_prime_above(x: int) -> int:
    """Least prime above x, for x >= 2 (so the prime is odd)."""
    p = x + 1
    while not _is_odd_prime(p):
        p += 1
    return p


# Stage 8 would close its letters to Z_3×Z_7×Z_29×Z_613: 373,317
# permutations of 652 points.
CHAIN_CAP = 7


def check_chain_cap(n: int) -> None:
    """BadParams for a chain stage below 1 and CapExceeded for one past
    `CHAIN_CAP`, before any work."""
    if n < 1:
        raise BadParams("chain index must be >= 1")
    if n > CHAIN_CAP:
        raise CapExceeded(f"chain stage {n} exceeds the chain cap {CHAIN_CAP}")


def gen_chain(n: int) -> AutomaticAlgebra:
    """Stage n of the alternating chain: odd stages append a fresh prime
    cycle pair, even stages close the letter actions into an abelian
    permutation group."""
    check_chain_cap(n)
    M = catalog("C", 3)
    g_counter = 1
    for stage in range(2, n + 1):
        states = list(M.state_names)
        letters = list(M.letter_names)
        actions = {letters[j]: M.action(j) for j in range(M.n_letters)}
        if stage % 2 == 0:
            closure = structure.generated_group(set(actions.values()), len(states))
            for perm in sorted(closure - set(actions.values())):
                name = f"g{g_counter}"
                g_counter += 1
                letters.append(name)
                actions[name] = perm
        else:
            p = _least_prime_above(len(letters) + 3)
            offset = len(states)
            new_states = [f"s{stage}_{i}" for i in range(1, p + 1)]
            states += new_states
            for name in list(actions):
                actions[name] = actions[name] + tuple(range(offset, offset + p))
            ident_old = tuple(range(offset))
            fwd = tuple(offset + ((i + 1) % p) for i in range(p))
            back = tuple(offset + ((i - 1) % p) for i in range(p))
            actions[f"b_{stage}"] = ident_old + fwd
            actions[f"c_{stage}"] = ident_old + back
            letters += [f"b_{stage}", f"c_{stage}"]
        delta = {}
        for j, name in enumerate(letters):
            for i, t in enumerate(actions[name]):
                delta[(i, j)] = t
        M = AutomaticAlgebra(states, letters, delta)
    return M
