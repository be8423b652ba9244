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

Rules 3-11 are the ordered `RULES` table, one `Rule` record each: its
detector, and each certificate kind it emits with the verdict that kind
witnesses and its checker.  `classify` frames the table with rules 1, 2 and
12 (rule 1 has a record for its kind); `RULE_ORDER` and the verifier's kind
lookup are read off the records, and the check of `unknown` replays `classify`.

Certificates are JSON-shaped dicts tagged by "kind"; `verify_certificate`
re-derives every claim from the algebra alone.
"""

from __future__ import annotations

from math import prod
from operator import getitem
from typing import Callable, NamedTuple, Optional, Sequence

from . import structure, terms
from .abgroups import AbelianGroup, cyclic_decomposition
from .algebras import ZERO, AutomaticAlgebra, _is_odd_prime, catalog
from .errors import BadParams, CapExceeded, InternalInconsistency, NotAbelian
from .structure import (components, difference_order, group_law_holds,
                        letter_affine_analysis, nondcomm_check, rankill_check,
                        whiskery_check)
from .terms import LeftChain, check_identity

EQ_XY_XYYY = (LeftChain("x", ("y",)), LeftChain("x", ("y", "y", "y")))
EQ_WXYZ_WYXZ = (LeftChain("w", ("x", "y", "z")), LeftChain("w", ("y", "x", "z")))
_TWO_STATE_EQUATIONS = (EQ_XY_XYYY, EQ_WXYZ_WYXZ)
_TWO_STATE_IDENTITIES = tuple(f"{lhs} = {rhs}" for lhs, rhs in _TWO_STATE_EQUATIONS)
_FORBIDDEN_N = range(6)     # the forbidden two-state subalgebras N0..N5


class Verdict(NamedTuple):
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


def _names(M: AutomaticAlgebra) -> list:
    return list(M.state_names) + list(M.letter_names) + ["0"]


def check_embedding(A: AutomaticAlgebra, targets: list, emb: dict) -> Optional[str]:
    """None if `emb` is an injective hom A -> Π targets, else a reason.

    `emb` maps every element name of A, and nothing else, to a list of one
    element name per target.  A failed hom is named by its least pair in
    the canonical order.  Only state·letter is ever nonzero, so a pair
    (x, y) where neither x nor an image of x is a state, or neither y nor
    an image of y is a letter, compares the image of 0 with the all-zero
    tuple; (first, first) is the least such pair.  The others are compared
    a right factor y at a time, from the action rows.
    """
    names = _names(A)
    if set(emb) != set(names):
        return "embedding domain does not match the algebra's elements"
    if any(type(emb[n]) is not list or len(emb[n]) != len(targets) for n in names):
        return "embedding images are not lists of one name per target"
    codes = [dict(zip(_names(T), T.elements())) for T in targets]
    try:
        vec = {x: tuple(map(getitem, codes, emb[n])) for x, n in zip(A.elements(), names)}
    except (KeyError, TypeError):       # a name no target has, or no string
        c = next(c for n in names for code, c in zip(codes, emb[n])
                 if not isinstance(c, str) or c not in code)
        return f"embedding names invalid: no element named {c!r}"
    if len(set(vec.values())) != len(vec):
        return "embedding is not injective"
    first = A.elements()[0]
    if any(vec[ZERO]):
        return f"embedding is not a homomorphism at ({A.name(first)}, {A.name(first)})"
    algebras, img = [A, *targets], {x: (x, *v) for x, v in vec.items()}
    xs = [x for x, i in img.items() if any(map(AutomaticAlgebra.is_state, algebras, i))]
    ys = [y for y, i in img.items() if any(map(AutomaticAlgebra.is_letter, algebras, i))]
    columns = [[img[x][k] for x in xs] for k in range(len(algebras))]
    failed = []         # the least failing x of each y, by code: no pair holds 0
    for y in ys:
        xy, *images = map(_right_products, algebras, columns, img[y])
        failed += [(x, y) for x, p, q in zip(xs, xy, zip(*images)) if vec[p] != q][:1]
    for x, y in sorted(failed)[:1]:
        return f"embedding is not a homomorphism at ({A.name(x)}, {A.name(y)})"
    return None


def _right_products(M: AutomaticAlgebra, xs: list, y: int) -> list:
    """x·y for each x in xs, read off y's action row."""
    n = M.n_states
    act = M.action(M.letter_index(y)) if M.is_letter(y) else (None,) * n
    return [1 + act[x - 1] if 1 <= x <= n and act[x - 1] is not None else ZERO for x in xs]


def normalize_algebra(M: AutomaticAlgebra):
    """Apply the four reductions to fixpoint: (reduced algebra, steps).

    Each step removes the least letter or state k of the first reduction in
    `_REDUCTIONS` order that applies, from an algebra A to N.  It records
    the lemma's embedding: x -> (x, 0) for the elements of N, and k -> its
    image below, is an injective hom A -> N × N.

      reduction               k                                     image
      drop_undefined_letter   a letter that is 0 on every state
                              (and there is one)                    (0, q)
      drop_repeated_letter    a letter whose row is that of an
                              earlier letter, b the least           (b, b)
      drop_isolated_state     a state in no range, on which every
                              letter is 0 (and there is one)        (0, a)
      drop_redundant_state    a state in no range whose column is
                              that of another state, r the least    (r, r)

    Here q is N's first state and a its first letter.  Proof: only
    state·letter is nonzero, so the products of N's elements are the same
    in A, and k's only nonzero products are s·k = s·b for a letter k and
    k·c = r·c for a state k.  An image (0, y) multiplies every (x, 0) to
    (0, 0), as the undefined letter or isolated state does, and (b, b) and
    (r, r) multiply as b and r do.  The images are nonzero and distinct
    from each (x, 0).  So no step runs `check_embedding`: the tests run it
    on every step, and the verifier on any embedding other than the lemma's.

    No reduction makes another apply: ranges, undefined letters and the
    twins of what is left stay as they were (see `structure.Reduction`).
    So one pass, kind by kind in index order, meets the steps in the order
    that taking the first applicable reduction each time does.  The reduced
    algebra is built once, at the end; with no step it is M itself.
    """
    red, steps = structure.Reduction(M), []
    for kind in _REDUCTIONS:
        for k in list(red.letters if kind.endswith("letter") else red.states):
            image = red.image(kind, k)
            if image is not None:
                steps.append(red.step(kind, k, image))
                red.drop(kind, k)
    return (red.algebra() if steps else M), steps


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------
#
# Each detector takes the normalized algebra N and returns None when its
# rule does not fire, or (certificate, trace detail) when it does.  A rule
# that does not fire may still report a detail as (None, detail).
# Detectors call the structure/terms predicates through module globals, so
# wrappers installed on those names see every call.

def _confirmed(name: str, p: int, N: AutomaticAlgebra, emb: dict) -> dict:
    """emb, a built embedding of catalog(name, p) into N, once
    `check_embedding` accepts it; InternalInconsistency if it does not."""
    reason = check_embedding(catalog(name, p), [N], {x: [y] for x, y in emb.items()})
    if reason is not None:
        raise InternalInconsistency(f"built {name}{p} embedding invalid: {reason}")
    return emb


def _detect_whiskery(N: AutomaticAlgebra):
    wf = whiskery_check(N)
    if wf is None:
        return None
    cert = {"kind": "whiskery_failure",
            "letter": N.letter_names[wf.letter],
            "state": N.state_names[wf.state],
            "m": wf.forbidden_m,
            "embedding": _confirmed("F", wf.forbidden_m, N, wf.embedding)}
    return cert, f"letter {cert['letter']} fails at {cert['state']}"


def _detect_rankill(N: AutomaticAlgebra):
    rk = rankill_check(N)
    if rk is None:
        return None
    cert = {"kind": "rankill", "case": rk.case,
            "letter": N.letter_names[rk.letter],
            "state": N.state_names[rk.state],
            "word": [N.letter_names[j] for j in rk.word]}
    return cert, f"case {rk.case} at letter {cert['letter']}"


def _detect_order_sensitivity(N: AutomaticAlgebra):
    ow = terms.order_sensitivity(N)
    if ow is None:
        return None
    cert = {"kind": "order_sensitive", "state": N.state_names[ow.state],
            "w1": [N.letter_names[j] for j in ow.w1],
            "w2": [N.letter_names[j] for j in ow.w2]}
    return cert, f"state {cert['state']}"


def _detect_single_letter(N: AutomaticAlgebra):
    if N.n_letters != 1:
        return None
    return {"kind": "single_letter_whiskery"}, "single whiskery letter"


def _forbidden_two_state(N: AutomaticAlgebra) -> Optional[tuple]:
    """(k, embedding dict) for the least k with N_k embeddable in the
    two-state N, with its least embedding, else None; built as
    `_detect_two_state` argues."""
    least = {N.action(j): j for j in reversed(range(N.n_letters))}  # action -> least letter
    for k in _FORBIDDEN_N:
        A = catalog("N", k)
        for pi in ((0, 1), (1, 0)):     # h on the states, least first
            images = [least.get(tuple(None if act[p] is None else pi[act[p]] for p in pi))
                      for act in map(A.action, range(A.n_letters))]
            if None not in images:
                emb = dict(zip(A.state_names, (N.state_names[t] for t in pi)))
                emb.update(zip(A.letter_names, (N.letter_names[j] for j in images)))
                return k, {**emb, "0": "0"}
    return None


def _detect_two_state(N: AutomaticAlgebra):
    """The equational test, cross-asserted against the forbidden subalgebras.

    Their least embedding is built, not searched for.  Only state·letter is
    ever nonzero, so an embedding h has h(0) = h(0)·h(0) = 0.  In every N_k,
    q·a = r is not 0, so h sends q and r to states, and onto the two states
    of N by one of the two bijections π, tried least first.  Every letter ℓ
    of N_k is defined somewhere, so h(ℓ) is a letter of N, and h is a hom
    exactly when h(ℓ) acts as π ℓ π⁻¹, definedness included.  The
    letters of N_k act in pairwise distinct ways, so h is then injective,
    and the least h(ℓ) is the least letter with that action: one lookup per
    letter, with no enumeration of letter maps.  `check_embedding` confirms
    the embedding built.
    """
    if N.n_states != 2:
        return None
    holds = [check_identity(N, *eq) for eq in _TWO_STATE_EQUATIONS] == [None, None]
    forbidden = _forbidden_two_state(N)
    if holds != (forbidden is None):
        raise InternalInconsistency(
            "two-state equations and forbidden-subalgebra tests disagree")
    if holds:
        cert = {"kind": "two_state_equations", "identities": list(_TWO_STATE_IDENTITIES)}
        return cert, "both equations hold"
    cert = {"kind": "two_state_forbidden", "which": f"N{forbidden[0]}",
            "embedding": _confirmed("N", forbidden[0], N, forbidden[1])}
    return cert, f"forbidden subalgebra {cert['which']}"


def constant_letter_values(M: AutomaticAlgebra) -> Optional[list]:
    """State index of each letter's value if every letter is total and
    constant, else None."""
    values = []
    for j in range(M.n_letters):
        imgs = set(M.action(j))
        if len(imgs) != 1 or None in imgs:
            return None
        values.append(imgs.pop())
    return values


def _detect_constant_letters(N: AutomaticAlgebra):
    values = constant_letter_values(N)
    if values is None:
        return None
    cert = {"kind": "constant_letters",
            "values": {N.letter_names[j]: N.state_names[v] for j, v in enumerate(values)}}
    return cert, ""


def _all_loops(M: AutomaticAlgebra) -> bool:
    return all(ti in (si, None) for act in map(M.action, range(M.n_letters))
               for si, ti in enumerate(act))


def _detect_all_loops(N: AutomaticAlgebra):
    if not _all_loops(N):
        return None
    comps = components(N)
    subs, split = [N.component_subalgebra(c) for c in comps], None
    if len(comps) > 1:
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
    for c, sub in zip(comps, subs):
        final, steps = normalize_algebra(sub)
        if final.n_states != 1 or final.n_letters != 1 or \
                constant_letter_values(final) is None:
            raise InternalInconsistency("loop component did not reduce to a "
                                        "one-state constant-letter algebra")
        entries.append({"states": [N.state_names[s] for s in c],
                        "steps": steps,
                        "final": {"state": final.state_names[0],
                                  "letter": final.letter_names[0]}})
    return {"kind": "all_loops", "split": split, "components": entries}, ""


def _detect_letter_affine(N: AutomaticAlgebra):
    report = letter_affine_analysis(N)
    if not report.affine:
        comp_names = " ".join(N.state_names[i] for i in report.failure[0])
        return None, f"failure {report.failure[1]} on component {{{comp_names}}}"
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
                "exponent": data.group.exponent,
                "decomposition": [[names[g], d] for g, d in cyclic_decomposition(data.group)],
            })
        comps.append(entry)
    return {"kind": "letter_affine", "components": comps}, ""


def _detect_commuting_permutations(N: AutomaticAlgebra):
    nd = nondcomm_check(N)
    if nd is None:
        return None
    cert = {"kind": "commuting_permutations",
            "b": N.letter_names[nd.b], "c": N.letter_names[nd.c], "m": nd.m,
            "report": [{"states": [N.state_names[s] for s in comp],
                        "actions": count} for comp, count in nd.coset_report]}
    return cert, f"pair ({cert['b']}, {cert['c']}), m = {nd.m}"


# ---------------------------------------------------------------------------
# certificate verification (independent re-derivation)
# ---------------------------------------------------------------------------
#
# Checkers read a certificate only through `_field`, which checks each field
# before anything is built from it.  A failed check raises `_Invalid`, which
# `verify_certificate` alone turns into its reason.  CapExceeded and
# InternalInvariantViolation propagate: neither says the certificate is wrong.

class _Invalid(Exception):
    """A certificate claim that does not check; the message is the reason."""


_JSON_TYPES = {str: "a string", int: "an integer", list: "a list",
               dict: "an object", type(None): "null"}


def _field(obj, key: str, kind: type = str, names: Optional[Sequence[str]] = None):
    """obj[key], which must be present and of the JSON type `kind` (a bool
    is no integer); what is no object has no fields.  With `names`, the
    field holds one of `names`, read as its index, or a list of them, read
    as a tuple of indices: a letter, a state or a word."""
    if type(obj) is not dict or key not in obj:
        raise _Invalid(f"missing field {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise _Invalid(f"field {key!r} is not {_JSON_TYPES[kind]}")
    if names is None:
        return value
    stated = value if kind is list else [value]
    if any(type(x) is not str or x not in names for x in stated):
        raise _Invalid(f"field {key!r} holds an unknown name")
    indices = tuple(map(names.index, stated))
    return indices if kind is list else indices[0]


def verify_certificate(M: AutomaticAlgebra, verdict) -> tuple:
    """(ok, reason). Re-derives every claim of the verdict from M alone: the
    certificate of a decided outcome, or that no rule decides an unknown
    one.  A stated rule must be the one the certificate's kind comes from."""
    if isinstance(verdict, Verdict):
        verdict = verdict.to_json()
    try:
        outcome = _field(verdict, "verdict")
        rule = _field(verdict, "rule") if "rule" in verdict else None
        cert = verdict.get("certificate")
        if outcome not in ("dualizable", "non_dualizable", "unknown"):
            raise _Invalid(f"unrecognized verdict {outcome!r}")
        if outcome == "unknown":
            if rule not in (None, "unknown") or cert is not None:
                raise _Invalid("an unknown verdict states a rule or a certificate")
            _verify_unknown(M)
        elif cert is None:
            raise _Invalid("decided verdict without certificate")
        else:
            _verify_cert(M, _field(verdict, "certificate", dict), outcome, rule)
    except _Invalid as exc:
        return (False, str(exc))
    return (True, "")


def _verify_cert(M: AutomaticAlgebra, cert: dict, outcome: str, rule) -> None:
    kind = _field(cert, "kind")
    while kind == "reduction_chain":
        if not _field(cert, "steps", list):
            raise _Invalid("a reduction chain states no step")
        M, cert = _replay_steps(M, cert), _field(cert, "inner", dict)
        kind = _field(cert, "kind")
    if kind not in _KINDS:
        raise _Invalid(f"unknown certificate kind {kind!r}")
    kind_rule, witnesses, checker = _KINDS[kind]
    if outcome != witnesses:
        raise _Invalid(f"{kind} cannot witness the verdict {outcome}")
    if rule not in (None, kind_rule):
        raise _Invalid(f"{kind} cannot come from the rule {rule}")
    checker(M, cert)


def _replay_steps(M: AutomaticAlgebra, obj: dict) -> AutomaticAlgebra:
    """The algebra that obj["steps"] reduce M to, each step checked.

    A step must name a letter or state that its reduction removes from the
    algebra at hand (see `normalize_algebra`).  Its embedding is accepted
    at once when it is exactly the lemma's map for that step, which is an
    injective hom by the lemma.  Any other embedding is checked by building
    the algebras before and after the step and running `check_embedding`
    into the square of the second.  So a step costs O(|M|) unless its
    embedding differs from the lemma's map, and the certificates accepted
    and the reasons for refusing the others are those of checking every
    step by `check_embedding`.
    """
    steps = _field(obj, "steps", list)
    if not steps:
        return M
    red = structure.Reduction(M)
    for step in steps:
        kind = _field(step, "kind")
        if kind not in _REDUCTIONS:
            raise _Invalid(f"unknown reduction step kind {kind!r}")
        left = red.letters if kind.endswith("letter") else red.states
        k = list(left)[_field(step, "removed", names=list(left.values()))]
        image = red.image(kind, k)
        if image is None:
            raise _Invalid(f"{kind} does not apply to {step['removed']}")
        lemma = red.step(kind, k, image)["embedding"]
        A = None if step.get("embedding") == lemma else red.algebra()
        red.drop(kind, k)
        if A is not None:
            N = red.algebra()
            _verify_embedding(A, [N, N], step)
    return red.algebra()


def _verify_embedding(A: AutomaticAlgebra, targets: list, obj: dict) -> None:
    """Check obj["embedding"], an injective hom A -> Π targets; into a single
    target it maps each element name to a name, not a list of one."""
    emb = _field(obj, "embedding", dict)
    if len(targets) == 1:
        emb = {name: [image] for name, image in emb.items()}
    reason = check_embedding(A, targets, emb)
    if reason is not None:
        raise _Invalid(reason)


def _stated_components(M: AutomaticAlgebra, cert: dict) -> list:
    """cert["components"], one object per component, stating its states."""
    stated = _field(cert, "components", list)
    if [_field(e, "states", list) for e in stated] != \
            [[M.state_names[s] for s in c] for c, _ in structure._component_index(M)]:
        raise _Invalid("stated components do not match")
    return stated


def _verify_zero(M, cert):
    if M.n_states > 0 and M.n_letters > 0:
        raise _Invalid("both Q and Σ are nonempty")


def _verify_whiskery_failure(M, cert):
    j = _field(cert, "letter", names=M.letter_names)
    if structure._whiskery_at(M, _field(cert, "state", names=M.state_names), j):
        raise _Invalid("the letter passes at the state; no failure")
    m = _field(cert, "m", int)
    # an embedded F_m has m + 2 distinct states, so m < |Q|; bound it before
    # building F_m
    if not 0 <= m < M.n_states:
        raise _Invalid("stated m is not an integer in 0..|Q|-1")
    _verify_embedding(catalog("F", m), [M], cert)


def _verify_rankill(M, cert):
    case = _field(cert, "case", int)
    if case not in (1, 2):
        raise _Invalid("unknown case")
    j = _field(cert, "letter", names=M.letter_names)
    i = _field(cert, "state", names=M.state_names)
    end = M.word(M.state(i), _field(cert, "word", list, names=M.letter_names))
    if end == ZERO:
        raise _Invalid("witness word dies")
    ti = M.state_index(end)
    if (case == 1 and not (i in M.kills(j) and ti in M.dom(j))
            or case == 2 and not (i in M.ran(j) and ti in M.kills(j))):
        raise _Invalid(f"case-{case} conditions fail")


def _verify_order_sensitive(M, cert):
    s = M.state(_field(cert, "state", names=M.state_names))
    w1, w2 = (_field(cert, key, list, names=M.letter_names) for key in ("w1", "w2"))
    if sorted(w1) != sorted(w2):
        raise _Invalid("words are not rearrangements of each other")
    if M.word(s, w1) != ZERO:
        raise _Invalid("first word does not die")
    if M.word(s, w2) == ZERO:
        raise _Invalid("second word dies too")


def _verify_single_letter(M, cert):
    if M.n_letters != 1:
        raise _Invalid("more than one letter")
    if structure._whiskery_direct(M) is not None:
        raise _Invalid("the letter does not act as whiskery cycles")


def _verify_two_state_equations(M, cert):
    if M.n_states != 2:
        raise _Invalid("not a two-state algebra")
    if _field(cert, "identities", list) != list(_TWO_STATE_IDENTITIES):
        raise _Invalid("stated identities are not the two-state equations")
    for equation, text in zip(_TWO_STATE_EQUATIONS, _TWO_STATE_IDENTITIES):
        if check_identity(M, *equation) is not None:
            raise _Invalid(f"{text} fails")


def _verify_two_state_forbidden(M, cert):
    k = _field(cert, "which", names=[f"N{k}" for k in _FORBIDDEN_N])
    _verify_embedding(catalog("N", _FORBIDDEN_N[k]), [M], cert)


def _verify_constant_letters(M, cert):
    found = _detect_constant_letters(M)
    if found is None:
        raise _Invalid("not a total constant-letter algebra")
    if _field(cert, "values", dict) != found[0]["values"]:
        raise _Invalid("stated constants disagree with the table")


def _verify_all_loops(M, cert):
    if not _all_loops(M):
        raise _Invalid("some edge is not a loop")
    comps, stated = components(M), _stated_components(M, cert)
    if len(comps) == 1:
        _field(cert, "split", type(None))
    else:
        split = _field(cert, "split", dict)
        if _field(split, "kind") != "component_split" or \
                _field(split, "components", list) != [e["states"] for e in stated]:
            raise _Invalid("the split is not the component split")
        _verify_embedding(M, [M.component_subalgebra(c) for c in comps], split)
    for comp, entry in zip(comps, stated):
        cur = _replay_steps(M.component_subalgebra(comp), entry)
        if cur.n_states != 1 or cur.n_letters != 1 or constant_letter_values(cur) is None:
            raise _Invalid("component does not reduce to the constant-letter case")
        if _field(entry, "final", dict) != {"state": cur.state_names[0],
                                            "letter": cur.letter_names[0]}:
            raise _Invalid("stated final algebra disagrees")


def _verify_letter_affine(M, cert):
    for (comp, index), entry in zip(structure._component_index(M), _stated_components(M, cert)):
        sigma_c = sorted(j for js in index.values() for j in js)
        if _field(entry, "letters", list) != [M.letter_names[j] for j in sigma_c]:
            raise _Invalid("stated component letters do not match")
        acting = {M.letter_names[j] for j in sigma_c}
        if _field(entry, "dropped", list) != [a for a in M.letter_names if a not in acting]:
            raise _Invalid("stated dropped letters do not match")
        if sigma_c:
            _verify_component_group(M, comp, sigma_c, entry)


def _verify_component_group(M, comp, sigma_c, entry):
    """A letter-affine component's group, its law, the coset of the letter
    images and the decomposition; the states and letters are checked."""
    names = entry["states"]
    pos = {name: k for k, name in enumerate(names)}
    op = _field(entry, "op", list)
    if len(op) != len(names) or any(type(row) is not list or len(row) != len(names)
                                    for row in op):
        raise _Invalid("stated table is not |C|×|C|")
    # a cell naming no state of the component reads -1: a malformed table.  A
    # row converts at once, or cell by cell if a cell names no state or is
    # unhashable (only a string can equal a name)
    table = []
    for row in op:
        try:
            table.append(list(map(pos.__getitem__, row)))
        except (KeyError, TypeError):
            table.append([pos.get(v, -1) if type(v) is str else -1 for v in row])
    try:
        G = AbelianGroup(table, labels=names)
    except NotAbelian as exc:
        raise _Invalid(f"stated table is not an abelian group: {exc}")
    if _field(entry, "e", names=names) != G.identity:
        raise _Invalid("stated identity disagrees with the table")
    stated = _field(entry, "letter_images", dict)
    if len(stated) != len(sigma_c):
        raise _Invalid("stated letter images do not match the component letters")
    images = {j: _field(stated, M.letter_names[j], names=names) for j in sigma_c}
    if not group_law_holds(M, comp, G, images):
        raise _Invalid("table law q·a = q * a_img fails")
    H = G.difference_subgroup(images.values())
    if sorted(_field(entry, "H", list, names=names)) != sorted(H):
        raise _Invalid("stated H is not the difference subgroup")
    image_set = set(images.values())
    if G.malcev_gap(sorted(image_set)) is not None:
        raise _Invalid("letter images are not Mal'cev closed")
    least = images[sigma_c[0]]
    if {G.op(least, h) for h in H} != image_set:
        raise _Invalid("letter images are not a coset of H")
    if _field(entry, "exponent", int) != G.exponent:
        raise _Invalid("stated exponent disagrees")
    # cyclic factors whose orders multiply to |C| and that generate the group
    pairs = _field(entry, "decomposition", list)
    if any(type(p) is not list or len(p) != 2 or p[0] not in names or type(p[1]) is not int
           for p in pairs):
        raise _Invalid("field 'decomposition' holds no [generator, order] pair")
    gens = [names.index(g) for g, _ in pairs]
    if [G.order_of(g) for g in gens] != [d for _, d in pairs]:
        raise _Invalid("stated decomposition generator order is wrong")
    if prod(d for _, d in pairs) != G.n or len(G.subgroup_generated(gens)) != G.n:
        raise _Invalid("stated decomposition is not a direct sum of cyclic groups")


def _verify_commuting_permutations(M, cert):
    profile = structure.permutation_profile(M)
    if not profile.permutational:
        raise _Invalid("not permutational")
    if not profile.commuting:
        raise _Invalid("letters do not commute")
    b, c = (_field(cert, key, names=M.letter_names) for key in ("b", "c"))
    m, stated = difference_order(profile.perms, b, c), _field(cert, "m", int)
    if m != stated or m <= 1:
        raise _Invalid(f"stated order m = {stated} is wrong (actual {m})")
    report = []
    for comp, actions in structure._component_index(M):
        if structure._coset_inside(actions, m):
            raise _Invalid("a component action set contains a qualifying coset")
        report.append(([M.state_names[s] for s in comp], len(actions)))
    if [(_field(e, "states", list), _field(e, "actions", int))
            for e in _field(cert, "report", list)] != report:
        raise _Invalid("stated coset report disagrees")


# ---------------------------------------------------------------------------
# the rule table and the pipeline
# ---------------------------------------------------------------------------

class Rule(NamedTuple):
    name: str
    detect: Optional[Callable]  # None: decided in the frame of `classify`
    kinds: dict                 # certificate kind -> (verdict it witnesses, checker)


_ZERO_RULE = Rule("zero_semigroup", None, {"zero_semigroup": ("dualizable", _verify_zero)})

RULES = (
    Rule("whiskery", _detect_whiskery,
         {"whiskery_failure": ("non_dualizable", _verify_whiskery_failure)}),
    Rule("rankill", _detect_rankill, {"rankill": ("non_dualizable", _verify_rankill)}),
    Rule("order_sensitivity", _detect_order_sensitivity,
         {"order_sensitive": ("non_dualizable", _verify_order_sensitive)}),
    Rule("single_letter", _detect_single_letter,
         {"single_letter_whiskery": ("dualizable", _verify_single_letter)}),
    Rule("two_state", _detect_two_state,
         {"two_state_equations": ("dualizable", _verify_two_state_equations),
          "two_state_forbidden": ("non_dualizable", _verify_two_state_forbidden)}),
    Rule("constant_letters", _detect_constant_letters,
         {"constant_letters": ("dualizable", _verify_constant_letters)}),
    Rule("all_loops", _detect_all_loops, {"all_loops": ("dualizable", _verify_all_loops)}),
    Rule("letter_affine", _detect_letter_affine,
         {"letter_affine": ("dualizable", _verify_letter_affine)}),
    Rule("commuting_permutations", _detect_commuting_permutations,
         {"commuting_permutations": ("non_dualizable", _verify_commuting_permutations)}),
)

RULE_ORDER = (_ZERO_RULE.name, "normalize", *(rule.name for rule in RULES), "unknown")

# certificate kind -> (rule, verdict, checker); a reduction_chain wraps one of these
_KINDS = {kind: (rule.name, outcome, checker) for rule in (_ZERO_RULE, *RULES)
          for kind, (outcome, checker) in rule.kinds.items()}


def classify(M: AutomaticAlgebra) -> Verdict:
    """Run the rule pipeline and return a self-contained verdict."""
    return _classify(M)


def _classify(M: AutomaticAlgebra) -> Verdict:
    """`classify`, replayed by the unknown check under a name no wrapper sees."""
    trace, steps = [], []

    def entry(rule, fired, detail=""):
        trace.append({"rule": rule, "fired": fired, "detail": detail})

    def decide(rule, cert, detail):
        entry(rule.name, True, detail)
        outcome = rule.kinds[cert["kind"]][0]
        chain = {"kind": "reduction_chain", "steps": steps, "inner": cert}
        return Verdict(outcome, rule.name, chain if steps else cert, trace)

    if M.n_states == 0 or M.n_letters == 0:
        return decide(_ZERO_RULE, {"kind": "zero_semigroup"}, "empty state or letter set")
    entry("zero_semigroup", False)

    N, steps = normalize_algebra(M)
    entry("normalize", bool(steps),
          ", ".join(f"{s['kind']}:{s['removed']}" for s in steps) or "already normal")
    if N.n_states == 0 or N.n_letters == 0:
        return decide(_ZERO_RULE, {"kind": "zero_semigroup"}, "empty after normalization")

    for rule in RULES:
        cert, detail = rule.detect(N) or (None, "")
        if cert is not None:
            return decide(rule, cert, detail)
        entry(rule.name, False, detail)

    entry("unknown", True, "no rule applies; the problem is open here")
    return Verdict("unknown", "unknown", None, trace)


def _verify_unknown(M: AutomaticAlgebra) -> None:
    """An unknown verdict claims that no rule decides: replay `classify`."""
    v = _classify(M)
    if v.outcome != "unknown":
        raise _Invalid(f"rule {v.rule} decides" if v.rule != "zero_semigroup" else
                       "normalizes to a zero semigroup" if "inner" in v.certificate else
                       "zero semigroup decides")


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
        M = AutomaticAlgebra(states, letters, {(i, j): t for j, name in enumerate(letters)
                                               for i, t in enumerate(actions[name])})
    return M
