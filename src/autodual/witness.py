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
from .powers import (HOM_CAP_DEFAULT, Groupoid, generate_subuniverse, pointwise_mul,
                     restriction_counts)
from .structure import commuting_groups
from .terms import order_sensitivity

SCOPE_NOTE = ("finite truncation: displayed identities and hom-kernel blocks "
              "only; congruence-index conditions over infinite algebras are "
              "not finitely checkable")

BUILD_CAP_DEFAULT = 2 ** 18     # the most elements; no default-parameter run tops 1 GB RSS
SIZE_CAP = 16                   # the largest N; at 16 an index family holds 43,680 tuples
PCOMM_WORD_CAP = 10 ** 6        # the most words the thm_pcomm_case1 parameter search tries


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

def _spec_thm_wc(N, m):
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


def _spec_ex_all4_L(N):
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


def _spec_lem_2state2(N):
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


def _spec_lem_2state3(N):
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
    """Search the case-1 parameters (q, a, b, c…, p, s, t) in a failing algebra,
    trying at most PCOMM_WORD_CAP words q·a·b·c…  The failing algebras are
    exactly the order-sensitive ones, so the others are refused at once."""
    if order_sensitivity(M) is None:
        raise BadParams("algebra does not fail the transposition quasi-equation")
    n, k = M.n_states, M.n_letters
    words = ((qi, aj, bj, cs) for m in range(n + 2) for qi in range(n)
             for aj, bj in permutations(range(k), 2) for cs in product(range(k), repeat=m))
    for tried, (qi, aj, bj, cs) in enumerate(words, 1):
        if tried > PCOMM_WORD_CAP:
            raise CapExceeded(f"case-1 parameter search exceeded {PCOMM_WORD_CAP} words")
        q = M.state(qi)
        if M.word(q, (aj, bj) + cs) == ZERO and M.word(q, (bj, aj) + cs) != ZERO:
            got = _finish_pcomm(M, qi, aj, bj, cs)
            if got is not None:
                return got
    raise BadParams("algebra fails the transposition quasi-equation but has no "
                    "case-1 parameters with |c...| <= |Q| + 1")


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


def _spec_thm_pcomm(N, M):
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


def _spec_thm_nondcomm(N, M, bname, cname):
    for letter in (bname, cname):
        if letter not in M.letter_names:
            raise UnknownName(f"{letter!r} is not a letter of the algebra; "
                              f"letters: {' '.join(M.letter_names)}")
    groups = commuting_groups(M)
    if groups is None:
        raise BadParams("needs a permutational algebra with commuting letters")
    bj = M.letter_names.index(bname)
    cj = M.letter_names.index(cname)
    if all(data.letter_images[bj] == data.letter_images[cj] for data in groups):
        raise BadParams("chosen letters have equal action")
    # a letter acts on each component as the translation by its code, of
    # that element's order
    lam = lcm(*(data.group.order_of(data.letter_images[j]) for data in groups
                for j in (bj, cj)))
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
    "thm_wc": (_spec_thm_wc, (0,)),
    "thm_pcomm_case1": (_spec_thm_pcomm, (catalog("N", 1),)),
    "ex_all4_L": (_spec_ex_all4_L, ()),
    "lem_2state2_N4": (_spec_lem_2state2, ()),
    "lem_2state3_N5": (_spec_lem_2state3, ()),
    "thm_nondcomm": (_spec_thm_nondcomm, (catalog("C", 3), "b", "c")),
}

CONSTRUCTION_NAMES = tuple(_SPEC_BUILDERS)
PARAM_DEFAULTS = {name: defaults for name, (_, defaults) in _SPEC_BUILDERS.items()}


def build_truncation(name: str, params=(), N: int = 4,
                     max_elements: int = BUILD_CAP_DEFAULT) -> Truncation:
    """Materialize the generated subalgebra of the named construction.  The
    `params` must have the types of its `PARAM_DEFAULTS`, which fill the rest."""
    if name not in _SPEC_BUILDERS:
        raise UnknownName(f"unknown construction {name!r}; "
                          f"choose from {CONSTRUCTION_NAMES}")
    if N < 3:
        raise BadParams("truncation size must be at least 3")
    if N > SIZE_CAP:
        raise CapExceeded(f"truncation size {N} exceeds size cap {SIZE_CAP}")
    builder, defaults = _SPEC_BUILDERS[name]
    if len(params) > len(defaults) or not all(map(isinstance, params, map(type, defaults))):
        raise BadParams(f"{name} takes at most {len(defaults)} parameter(s), of types "
                        f"({', '.join(type(d).__name__ for d in defaults)})")
    spec = builder(N, *params, *defaults[len(params):])
    gens = [t for _, t in spec.a0] + [t for _, t in spec.b]
    elements = generate_subuniverse(spec.algebra, spec.width, gens, max_elements=max_elements)
    pos = {t: i for i, t in enumerate(elements)}
    a0_indices = [pos[t] for _, t in spec.a0]
    return Truncation(spec, elements, a0_indices)


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

def a0_swaps(spec: ConstructionSpec) -> list:
    """The pairs p < q of A0 positions whose generators a transposition of
    two coordinates exchanges, while it fixes the other A0 generators and
    maps the generators of A onto themselves, and so A onto A.  Each
    transposition of two of the width coordinates is checked on the
    generators, not on A."""
    a0 = [t for _, t in spec.a0]
    gens = set(a0).union(t for _, t in spec.b)
    found = set()
    for c, d in combinations(range(spec.width), 2):
        def sigma(t):
            return t[:c] + (t[d],) + t[c + 1:d] + (t[c],) + t[d + 1:]

        moved = [p for p, t in enumerate(a0) if sigma(t) != t]
        if (len(moved) == 2 and sigma(a0[moved[0]]) == a0[moved[1]]
                and all(sigma(t) in gens for t in gens)):
            found.add(tuple(moved))
    return sorted(found)


@dataclass
class KernelReport:
    nu: int
    mode: str                 # "homs" or "restrictions"
    hom_count: Optional[int]  # None when only restrictions were enumerated
    block_multisets: list     # distinct sorted block-size tuples of ker(x|A0)
    violations: list          # A0-value profiles with two or more blocks > nu


def kernel_block_analysis(trunc: Truncation, nu: Optional[int] = None,
                          max_elements: int = HOM_CAP_DEFAULT,
                          hom_budget: int = 20000) -> KernelReport:
    """Block structure of ker(x|A0) over all homs x: A -> M.

    An A with more than `max_elements` elements raises CapExceeded before
    its groupoid is built from the elements (`Groupoid.from_power`).  One
    walk (`restriction_counts`) gives the restrictions x|A0 that extend to
    a hom and |hom(A, M)| when that is at most `hom_budget`.  The report is
    in "homs" mode, with `hom_count` the count, when there is one, and in
    "restrictions" mode, with no count, otherwise (degenerate collapse maps
    can make the hom set exponential even for small A).  Homs mode lists
    the profiles in code order, restriction mode in canonical element
    order (states, letters, then 0).  The flagged condition -- some hom
    whose kernel on A0 has two blocks larger than nu -- is decided exactly
    in both modes.

    The walk skips the mirror images the truncation's symmetry makes
    (`a0_swaps`).  A coordinate permutation σ commutes with the pointwise
    product, so it is an automorphism of M^width; when it maps the
    generators onto themselves, it maps A onto A.  So a transposition that
    exchanges the A0 generators at positions p < q and fixes the others
    gives a swap (p, q) of `restriction_counts`.
    """
    spec, M = trunc.spec, trunc.spec.algebra
    nu = spec.nu if nu is None else nu
    if len(trunc.elements) > max_elements:
        raise CapExceeded(f"|A| = {len(trunc.elements)} exceeds hom-enumeration cap "
                          f"{max_elements}")
    A = Groupoid.from_power(M, trunc.elements)
    profiles, count = restriction_counts(A, M, trunc.a0_indices, a0_swaps(spec),
                                         hom_budget, max_elements)
    if count is not None:
        mode, key = "homs", None
    else:
        rank = {x: k for k, x in enumerate(M.elements())}
        mode, key = "restrictions", lambda prof: [rank[v] for v in prof]
    profiles = sorted(profiles, key=key)
    multisets, violations = set(), []
    for prof in profiles:
        sizes = tuple(sorted(map(prof.count, set(prof)), reverse=True))
        multisets.add(sizes)
        if len([s for s in sizes if s > nu]) >= 2:
            violations.append([M.name(v) for v in prof])
    return KernelReport(nu, mode, count, sorted(multisets), violations)


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
