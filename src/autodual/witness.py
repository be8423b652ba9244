"""Finite truncations of the non-dualizability constructions.

Each construction is declared once, by its `_spec_*` builder: the
generators of A0 and B, the forbidden element g, and the displayed
product identities, each as (name, index tuples, instance) where
`instance(*indices)` returns the two sides built from the builder's own
elements.  `verify_construction` checks every declared identity at every
admissible index tuple, the non-membership of g in the generated
subalgebra, and any containment the builder declares; the hom-kernel
block shape is checked at truncation scale by `kernel_block_analysis`.
The congruence-index conditions quantify over infinite algebras and are
out of reach; every report says so in its header.

Report indices are 1-based; internal coordinates are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import lcm
from typing import Callable, Optional

from .algebras import ZERO, AutomaticAlgebra, catalog
from .errors import (BadParams, CapExceeded, InternalInconsistency,
                     ProofIdentityFailed, UnknownName)
from .powers import (Groupoid, enumerate_homs, generate_power_groupoid,
                     pointwise_mul)
from .structure import difference_order, permutation_profile, _perm_order

SCOPE_NOTE = ("finite truncation: displayed identities and hom-kernel blocks "
              "only; congruence-index conditions over infinite algebras are "
              "not finitely checkable")

BUILD_CAP_DEFAULT = 4096


@dataclass
class ConstructionSpec:
    name: str
    params: tuple
    N: int
    algebra: AutomaticAlgebra
    width: int                # number of coordinates of the power
    a0: list                  # (label, tuple) pairs
    b: list                   # (label, tuple) pairs
    g: tuple                  # (label, tuple)
    nu: int
    identities: list          # (name, index tuples, instance) triples
    containment: Optional[Callable] = None   # elements -> bool


@dataclass
class Truncation:
    spec: ConstructionSpec
    elements: list            # generated subuniverse, deterministic order
    groupoid: Groupoid
    a0_indices: list          # positions of the A0 elements in `elements`


def _ov(base: int, n: int, *pairs) -> tuple:
    """Constant tuple overridden at 1-based positions (overline notation)."""
    vals = [base] * n
    for idx, v in pairs:
        vals[idx - 1] = v
    return tuple(vals)


def _gen(M: AutomaticAlgebra, n: int, base: int, *pairs) -> tuple:
    """A labelled generator: (label, overline tuple), e.g. "q|s@2|r@3"."""
    label = M.name(base) + "".join(f"|{M.name(v)}@{i}" for i, v in pairs)
    return label, _ov(base, n, *pairs)


def _distinct(lo: int, n: int, k: int) -> list:
    """Every k-tuple of pairwise distinct indices in lo..n, in nested-loop order."""
    return list(permutations(range(lo, n + 1), k))


def _mulchain(M, first, *rest):
    out = first
    for x in rest:
        out = pointwise_mul(M, out, x)
    return out


# ---------------------------------------------------------------------------
# the constructions
# ---------------------------------------------------------------------------

def _spec_thm_wc(params, N):
    m = params[0] if params else 0
    M = catalog("F", m)
    q, r, a = (M.element_by_name(x) for x in "qra")
    a0 = [_gen(M, N, ZERO, (1, r), (i, r)) for i in range(2, N + 1)]
    pairs = list(combinations(range(2, N + 1), 2))
    gens = [_gen(M, N, ZERO, (1, q), (i, q), (j, q)) for i, j in pairs]
    gens += [_gen(M, N, a, (i, ZERO)) for i in range(2, N + 1)]
    g = _gen(M, N, ZERO, (1, r))
    identities = [
        ("0|r@1,r@j = 0|q@1,q@j,q@k . a|0@k", _distinct(2, N, 2),
         lambda j, k: (_ov(ZERO, N, (1, r), (j, r)),
                       pointwise_mul(M, _ov(ZERO, N, (1, q), (j, q), (k, q)),
                                     _ov(a, N, (k, ZERO))))),
        ("0|q@1,q@j,q@k . a|0@l = 0|r@1,r@j,r@k", _distinct(2, N, 3),
         lambda j, k, l: (pointwise_mul(M, _ov(ZERO, N, (1, q), (j, q), (k, q)),
                                        _ov(a, N, (l, ZERO))),
                          _ov(ZERO, N, (1, r), (j, r), (k, r)))),
    ]

    def containment(elements):
        """A sits inside A0 ∪ B ∪ {0|r@1,r@i,r@j} ∪ {0,s1..sm}^N."""
        allowed = {t for _, t in a0 + gens}
        allowed |= {_ov(ZERO, N, (1, r), (i, r), (j, r)) for i, j in pairs}
        cycle = {ZERO} | {M.element_by_name(f"s{i}") for i in range(1, m + 1)}
        return all(t in allowed or all(v in cycle for v in t) for t in elements)

    return ConstructionSpec("thm_wc", (m,), N, M, N, a0, gens, g, 1,
                            identities, containment)


def _spec_ex_all4_L(params, N):
    M = AutomaticAlgebra.build(
        "qrs", "ac",
        [("q", "a", "q"), ("q", "c", "q"), ("r", "a", "q"), ("r", "c", "s"),
         ("s", "a", "s"), ("s", "c", "s")])
    q, r, s, a, c = (M.element_by_name(x) for x in "qrsac")
    a0 = [_gen(M, N, q, (i, s)) for i in range(1, N + 1)]
    gens = [_gen(M, N, q, (i, s), (k, r)) for i, k in _distinct(1, N, 2)]
    gens += [_gen(M, N, c, (k, a)) for k in range(1, N + 1)]
    identities = [
        ("q|s@i,r@k . c|a@k = q|s@i", _distinct(1, N, 2),
         lambda i, k: (pointwise_mul(M, _ov(q, N, (i, s), (k, r)), _ov(c, N, (k, a))),
                       _ov(q, N, (i, s)))),
        ("q|s@i,r@k . c|a@l = q|s@i,s@k", _distinct(1, N, 3),
         lambda i, k, l: (pointwise_mul(M, _ov(q, N, (i, s), (k, r)),
                                        _ov(c, N, (l, a))),
                          _ov(q, N, (i, s), (k, s)))),
    ]
    return ConstructionSpec("ex_all4_L", (), N, M, N, a0, gens,
                            _gen(M, N, q), 1, identities)


def _spec_lem_2state2(params, N):
    M = catalog("N", 4)
    q, r, a, b = (M.element_by_name(x) for x in "qrab")
    a0 = [_gen(M, N, q, (i, r)) for i in range(1, N + 1)]
    gens = [_gen(M, N, b, (i, a)) for i in range(1, N + 1)]
    identities = [
        ("q|r@k . b|a@k . b|a@j = q|r@j", _distinct(1, N, 2),
         lambda j, k: (_mulchain(M, _ov(q, N, (k, r)), _ov(b, N, (k, a)),
                                 _ov(b, N, (j, a))),
                       _ov(q, N, (j, r)))),
        ("q|r@k . b|a@l . b|a@j = q|r@j,r@k", _distinct(1, N, 3),
         lambda j, k, l: (_mulchain(M, _ov(q, N, (k, r)), _ov(b, N, (l, a)),
                                    _ov(b, N, (j, a))),
                          _ov(q, N, (j, r), (k, r)))),
    ]
    return ConstructionSpec("lem_2state2_N4", (), N, M, N, a0, gens,
                            _gen(M, N, q), 1, identities)


def _spec_lem_2state3(params, N):
    M = catalog("N", 5)
    q, r, a, b, c = (M.element_by_name(x) for x in "qrabc")
    a0 = [_gen(M, N, q, (i, r)) for i in range(1, N + 1)]
    gens = [_gen(M, N, b, (i, c), (k, a)) for i, k in _distinct(1, N, 2)]
    identities = [
        ("q|r@j . b|c@i,a@k = q|r@k", _distinct(1, N, 3),
         lambda i, j, k: (pointwise_mul(M, _ov(q, N, (j, r)),
                                        _ov(b, N, (i, c), (k, a))),
                          _ov(q, N, (k, r)))),
        ("q|r@i . b|c@i,a@k = q|r@i,r@k", _distinct(1, N, 2),
         lambda i, k: (pointwise_mul(M, _ov(q, N, (i, r)), _ov(b, N, (i, c), (k, a))),
                       _ov(q, N, (i, r), (k, r)))),
    ]
    return ConstructionSpec("lem_2state3_N5", (), N, M, N, a0, gens,
                            _gen(M, N, q), 1, identities)


def _derive_pcomm_params(M: AutomaticAlgebra):
    """Search the case-1 parameters (q, a, b, c…, p, s, t) in a failing algebra."""
    n = M.n_states
    for m in range(0, n + 2):
        for qi in range(n):
            q = M.state(qi)
            for aj in range(M.n_letters):
                for bj in range(M.n_letters):
                    if aj == bj:
                        continue
                    for cs in product(range(M.n_letters), repeat=m):
                        if M.word(q, (aj, bj) + cs) == ZERO and \
                                M.word(q, (bj, aj) + cs) != ZERO:
                            got = _finish_pcomm(M, qi, aj, bj, cs)
                            if got is not None:
                                return got
    raise BadParams("algebra does not fail the transposition quasi-equation")


def _finish_pcomm(M, qi, aj, bj, cs):
    q = M.state(qi)
    r = M.word(q, (bj, aj) + cs)
    for p in range(1, 2 * M.n_states + 2):
        cond1 = M.word(q, (bj,) * (p + 1) + (aj,) + cs) == r
        cond3 = M.word(q, (aj,) + (bj,) * p + (aj,) + cs) == ZERO
        if not (cond1 and cond3):
            continue
        for si in range(M.n_states):
            s = M.state(si)
            if M.word(s, (aj,) * (p + 2) + cs) == r:
                t = M.word(s, (bj,) + (aj,) * (p + 1) + cs)
                return (qi, aj, bj, cs, p, si, t, M.state_index(r))
    return None


def _spec_thm_pcomm(params, N):
    M = params[0] if params else catalog("N", 1)
    qi, aj, bj, cs, p, si, t, ri = _derive_pcomm_params(M)
    q, s, r = M.state(qi), M.state(si), M.state(ri)
    a, b = M.letter(aj), M.letter(bj)
    consts = [M.letter(c) for c in cs]
    a0 = [_gen(M, N, r, (i, ZERO)) for i in range(1, N + 1)]
    gens = [_gen(M, N, q, (i, ZERO), (k, s)) for i, k in _distinct(1, N, 2)]
    for i, k, l in _distinct(1, N, 3):
        gens.append(_gen(M, N, q, (i, ZERO), (k, s), (l, ZERO)))
        gens.append(_gen(M, N, q, (i, ZERO), (k, ZERO), (l, ZERO)))
    for i in range(1, N + 1):
        gens.append(_gen(M, N, b, (i, a)))
        gens.append(_gen(M, N, b, (i, ZERO)))
    gens += [_gen(M, N, x) for x in [a, b] + consts]
    tail = [_ov(x, N) for x in [a] + consts]

    def bk(k):
        return [_ov(b, N, (k, a))] * p

    identities = [
        ("q|0@i,s@k . (b|a@k)^{p+1} . a~. c~ = r|0@i", _distinct(1, N, 2),
         lambda i, k: (_mulchain(M, _ov(q, N, (i, ZERO), (k, s)),
                                 _ov(b, N, (k, a)), *bk(k), *tail),
                       _ov(r, N, (i, ZERO)))),
        ("q|0@i,s@k . b|a@l . (b|a@k)^p . a~. c~ = r|0@i,t@k,0@l", _distinct(1, N, 3),
         lambda i, k, l: (_mulchain(M, _ov(q, N, (i, ZERO), (k, s)),
                                    _ov(b, N, (l, a)), *bk(k), *tail),
                          _ov(r, N, (i, ZERO), (k, t), (l, ZERO)))),
        ("q|0@i,s@k,0@l . b|0@l . (b|a@k)^p . a~. c~ = r|0@i,t@k,0@l",
         _distinct(1, N, 3),
         lambda i, k, l: (_mulchain(M, _ov(q, N, (i, ZERO), (k, s), (l, ZERO)),
                                    _ov(b, N, (l, ZERO)), *bk(k), *tail),
                          _ov(r, N, (i, ZERO), (k, t), (l, ZERO)))),
        ("q|0@i,s@k,0@l . b|0@k . (b|a@k)^p . a~. c~ = r|0@i,0@k,0@l",
         _distinct(1, N, 3),
         lambda i, k, l: (_mulchain(M, _ov(q, N, (i, ZERO), (k, s), (l, ZERO)),
                                    _ov(b, N, (k, ZERO)), *bk(k), *tail),
                          _ov(r, N, (i, ZERO), (k, ZERO), (l, ZERO)))),
        ("q|0@i,0@k,0@l . b|0@i . b~^p . a~. c~ = r|0@i,0@k,0@l", _distinct(1, N, 3),
         lambda i, k, l: (_mulchain(M, _ov(q, N, (i, ZERO), (k, ZERO), (l, ZERO)),
                                    _ov(b, N, (i, ZERO)), *[_ov(b, N)] * p, *tail),
                          _ov(r, N, (i, ZERO), (k, ZERO), (l, ZERO)))),
        ("q|0@i,0@k,0@l . b|0@j . b~^p . a~. c~ = r|0@i,0@j,0@k,0@l",
         _distinct(1, N, 4),
         lambda i, j, k, l: (_mulchain(M, _ov(q, N, (i, ZERO), (k, ZERO), (l, ZERO)),
                                       _ov(b, N, (j, ZERO)), *[_ov(b, N)] * p, *tail),
                             _ov(r, N, (i, ZERO), (j, ZERO), (k, ZERO), (l, ZERO)))),
    ]
    return ConstructionSpec("thm_pcomm_case1", (M.name(q), M.name(a), M.name(b)),
                            N, M, N, a0, gens, _gen(M, N, r), 1, identities)


def _spec_thm_nondcomm(params, N):
    M, bname, cname = params or (catalog("C", 3), "b", "c")
    for letter in (bname, cname):
        if letter not in M.letter_names:
            raise UnknownName(f"{letter!r} is not a letter of the algebra; "
                              f"letters: {' '.join(M.letter_names)}")
    profile = permutation_profile(M)
    if not profile.permutational or not profile.commuting:
        raise BadParams("needs a permutational algebra with commuting letters")
    bj = M.letter_names.index(bname)
    cj = M.letter_names.index(cname)
    perms = profile.perms
    if difference_order(perms, bj, cj) <= 1:
        raise BadParams("chosen letters have equal action")
    lam = lcm(_perm_order(perms[bj]), _perm_order(perms[cj]))
    s_idx = None
    for i in range(M.n_states):
        r0 = M.word(M.state(i), (bj,) + (cj,) * (lam - 1))
        if r0 != M.state(i):
            s_idx, r_idx = i, M.state_index(r0)
            break
    if s_idx is None:
        raise InternalInconsistency("difference permutation has a fixed point only")
    nu = M.n_letters - 1
    b_elem, c_elem = M.letter(bj), M.letter(cj)
    s_elem, r_elem = M.state(s_idx), M.state(r_idx)
    block = [(kind, i) for i in range(M.n_states) for kind in "bc"]

    def v(i):
        vals = [r_elem if n == i else s_elem for n in range(1, N + 1)]
        for kind, st in block:
            vals.append(M.state(st))
        return tuple(vals)

    def w(I):
        vals = [b_elem if n in I else c_elem for n in range(1, N + 1)]
        for kind, st in block:
            vals.append(b_elem if kind == "b" else c_elem)
        return tuple(vals)

    # Index sets of size nu+1: the unique-block argument interpolates between
    # two (nu+1)-blocks through w's on (nu+1)-sized sets, so they must be
    # generators (the displayed size-nu family cannot support that step, and
    # at finite scale it indeed admits kernels with two non-trivial blocks).
    a0 = [(f"v{i}", v(i)) for i in range(1, N + 1)]
    bgen = [("w{" + ",".join(map(str, I)) + "}", w(set(I)))
            for I in combinations(range(1, N + 1), nu + 1)]
    gvals = [s_elem] * N + [M.state(st) for _, st in block]
    family = [(i, j) + K for i, j in _distinct(1, N, 2)
              for K in combinations([x for x in range(1, N + 1) if x not in (i, j)], nu)]

    def instance(i, j, *K):
        wj = w(set(K) | {j})
        return _mulchain(M, v(j), w(set(K) | {i}), *[wj] * (lam - 1)), v(i)

    identities = [("v_i = v_j . w_{K+i} . w_{K+j}^{lam-1}", family, instance)]
    return ConstructionSpec("thm_nondcomm", (M.name(M.state(s_idx)), bname, cname),
                            N, M, N + len(block), a0, bgen, ("g", tuple(gvals)), nu,
                            identities)


_SPEC_BUILDERS = {
    "thm_wc": _spec_thm_wc,
    "thm_pcomm_case1": _spec_thm_pcomm,
    "ex_all4_L": _spec_ex_all4_L,
    "lem_2state2_N4": _spec_lem_2state2,
    "lem_2state3_N5": _spec_lem_2state3,
    "thm_nondcomm": _spec_thm_nondcomm,
}

CONSTRUCTION_NAMES = tuple(_SPEC_BUILDERS)


def build_truncation(name: str, params=(), N: int = 4,
                     max_elements: int = BUILD_CAP_DEFAULT) -> Truncation:
    """Materialize the generated subalgebra of the named construction."""
    if name not in _SPEC_BUILDERS:
        raise UnknownName(f"unknown construction {name!r}; "
                          f"choose from {CONSTRUCTION_NAMES}")
    if N < 3:
        raise BadParams("truncation size must be at least 3")
    spec = _SPEC_BUILDERS[name](params, N)
    gens = [t for _, t in spec.a0] + [t for _, t in spec.b]
    elements, groupoid = generate_power_groupoid(spec.algebra, spec.width, gens,
                                                 max_elements=max_elements)
    pos = {t: i for i, t in enumerate(elements)}
    a0_indices = [pos[t] for _, t in spec.a0]
    return Truncation(spec, elements, groupoid, a0_indices)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def verify_construction(trunc: Truncation) -> dict:
    """Check every declared identity and the non-membership of g.

    A failing identity raises ProofIdentityFailed: it would mean the
    transcription of the construction is wrong.  An identity with no
    admissible index tuple at this N is left out of the report.
    """
    spec = trunc.spec
    identities = []
    for name, family, instance in spec.identities:
        for indices in family:
            lhs, rhs = instance(*indices)
            if lhs != rhs:
                raise ProofIdentityFailed(name, indices)
        if family:
            identities.append({"identity": name, "instances": len(family),
                               "pass": True})
    report = {
        "name": spec.name,
        "params": [str(p) for p in spec.params],
        "N": spec.N,
        "scope": SCOPE_NOTE,
        "identities": identities,
        "A_size": len(trunc.elements),
        "g_label": spec.g[0],
        "g_in_A": spec.g[1] in set(trunc.elements),
    }
    if spec.containment is not None:
        report["containment_ok"] = spec.containment(trunc.elements)
    return report


# ---------------------------------------------------------------------------
# kernel block analysis
# ---------------------------------------------------------------------------

@dataclass
class KernelReport:
    nu: int
    mode: str                 # "homs" or "restrictions"
    hom_count: Optional[int]  # None when only restrictions were enumerated
    block_multisets: list     # distinct sorted block-size tuples of ker(x|A0)
    violations: list          # A0-value profiles with two or more blocks > nu


def kernel_block_analysis(trunc: Truncation, nu: Optional[int] = None,
                          max_elements: int = 64,
                          hom_budget: int = 20000) -> KernelReport:
    """Block structure of ker(x|A0) over all homs x: A -> M.

    An A with more than `max_elements` elements raises CapExceeded.  Full
    hom enumeration is attempted first, capped at `hom_budget` homs.  When
    that cap is hit (degenerate collapse maps can make the hom set
    exponential even for small A), the analysis switches to restriction
    mode: one search with `distinct_on` set to A0 returns one hom per
    achievable restriction x|A0, which is its extension witness, and the
    profiles are listed in canonical element order (states, letters, then
    0).  The flagged condition -- some hom whose kernel on A0 has two blocks
    larger than nu -- is decided exactly in both modes.
    """
    spec = trunc.spec
    M = spec.algebra
    if nu is None:
        nu = spec.nu
    try:
        homs = enumerate_homs(trunc.groupoid, M,
                              max_elements=max_elements, limit=hom_budget)
        count, mode, key = len(homs), "homs", None
    except CapExceeded:
        homs = enumerate_homs(trunc.groupoid, M, max_elements=max_elements,
                              distinct_on=trunc.a0_indices)
        rank = {x: k for k, x in enumerate(M.elements())}
        count, mode, key = None, "restrictions", lambda prof: [rank[v] for v in prof]
    profiles = sorted({tuple(h[p] for p in trunc.a0_indices) for h in homs}, key=key)
    multisets = set()
    violations = []
    for prof in profiles:
        blocks = {}
        for v in prof:
            blocks[v] = blocks.get(v, 0) + 1
        sizes = tuple(sorted(blocks.values(), reverse=True))
        multisets.add(sizes)
        if len([s for s in sizes if s > nu]) >= 2:
            violations.append([M.name(v) for v in prof])
    return KernelReport(nu, mode, count, sorted(multisets), violations)


# ---------------------------------------------------------------------------
# k-local evaluation probe
# ---------------------------------------------------------------------------

def local_eval_probe(M: AutomaticAlgebra, A: Groupoid, k: int,
                     hom_cap: int = 64, node_cap: int = 10 ** 6) -> dict:
    """Classify maps hom(A,M) -> M as evaluations / k-local / neither.

    The k-local maps (k >= 2) are enumerated by depth-first search with
    subset-witness pruning, which is complete for the k-local set without
    enumerating all |M|^|hom| maps; "neither" is counted by arithmetic.
    For k >= 3 the run asserts that every k-local map whose range contains
    a letter is an evaluation, and aborts loudly otherwise.
    """
    homs = enumerate_homs(A, M, max_elements=hom_cap)
    H = len(homs)
    evals = {tuple(h[a_idx] for h in homs) for a_idx in range(A.n)}
    candidates = [sorted(set(homs[x])) for x in range(H)]
    one_local = 1
    for c in candidates:
        one_local *= len(c)
    total_maps = M.size() ** H
    report = {"hom_count": H, "k": k, "evaluation_count": len(evals),
              "one_local_count": one_local, "total_maps": total_maps}
    if k == 1:
        report["k_local_count"] = one_local
        report["k_local_non_eval"] = one_local - len(evals)
        report["neither_count"] = total_maps - one_local
        return report

    agree = [{} for _ in range(H)]
    for x in range(H):
        for a_idx in range(A.n):
            agree[x].setdefault(homs[x][a_idx], set()).add(a_idx)

    found = []
    assignment = [None] * H
    nodes = 0

    def extend(pos):
        nonlocal nodes
        if pos == H:
            found.append(tuple(assignment))
            return
        for value in candidates[pos]:
            nodes += 1
            if nodes > node_cap:
                raise CapExceeded("local evaluation search exceeded node cap")
            base = agree[pos][value]
            ok = True
            for subset in combinations(range(pos), min(k, pos + 1) - 1):
                wit = base
                for x in subset:
                    wit = wit & agree[x][assignment[x]]
                    if not wit:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                assignment[pos] = value
                extend(pos + 1)
                assignment[pos] = None

    extend(0)
    k_local = set(found)
    letters = set(M.letters())
    bad = [f for f in k_local
           if f not in evals and set(f) & letters]
    report["k_local_count"] = len(k_local)
    report["k_local_non_eval"] = len(k_local - evals)
    report["neither_count"] = total_maps - len(k_local)
    report["letter_range_non_eval"] = len(bad)
    if k >= 3 and bad:
        raise InternalInconsistency(
            "a k-local map with a letter in its range is not an evaluation")
    return report


def format_report(report: dict) -> str:
    """Human-readable construction report with a machine-readable block."""
    lines = [f"construction {report['name']}"
             + (f" params {','.join(report['params'])}" if report["params"] else "")
             + f" N={report['N']}",
             f"scope: {report['scope']}",
             f"|A| = {report['A_size']}"]
    for item in report["identities"]:
        status = "PASS" if item["pass"] else "FAIL"
        lines.append(f"  [{status}] {item['identity']}  ({item['instances']} instances)")
    membership = "in A (UNEXPECTED)" if report["g_in_A"] else "not in A"
    lines.append(f"  g = {report['g_label']}: {membership}")
    if "containment_ok" in report:
        lines.append(f"  containment: {'PASS' if report['containment_ok'] else 'FAIL'}")
    lines.append("machine: " + json.dumps({k: v for k, v in report.items()
                                           if k != "scope"}))
    return "\n".join(lines)
