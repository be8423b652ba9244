"""The compatible partial operations of the paper's dualizability
arguments, each tabulated on an automatic algebra M, the test that a
relation is compatible with M, and the k-local evaluation probe on
hom(A, M).  With them, the abelian-group oracles and constructions of the
letter-affine case: the isomorphism types, every endomorphism and
character, the character-with-endomorphisms construction (self-verified),
annihilator systems over Z_m, and the zero-column fact with its hypothesis
checkers.  Neither the rule engine nor the CLI loads this module: the
tests check each operation against its definition.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from math import gcd, prod
from operator import and_, mul
from typing import Callable, Iterable, NamedTuple, Optional

from .abgroups import (AbelianGroup, _prime_factors, closure, coordinate_maps,
                       cyclic_decomposition)
from .algebras import ZERO, AutomaticAlgebra
from .errors import (BadParams, CapExceeded, ConstructionFailed, ExponentMismatch,
                     HypothesisFailed, IndexOutOfRange, InternalInconsistency,
                     NotSubgroup, PreconditionViolated, PropositionViolated)
from .powers import Groupoid, enumerate_homs, pointwise_mul

PROBE_HOM_CAP = 256             # the most homs A -> M that local_eval_probe takes
PROBE_WORK_CAP = 2 * 10 ** 7    # the most agreement-set intersections it takes


def is_compatible(M: AutomaticAlgebra, relation: Iterable[tuple]) -> bool:
    """True iff the relation is closed under the pointwise product."""
    rel = set(relation)
    return all(pointwise_mul(M, u, v) in rel for u in rel for v in rel)


class PartialOperation(NamedTuple):
    name: str
    table: dict  # argument tuple -> value

    @property
    def domain(self):
        return self.table.keys()

    def __call__(self, *args):
        return self.table[args]

    def graph(self) -> set:
        return {args + (value,) for args, value in self.table.items()}


def _tabulate(name: str, M: AutomaticAlgebra, arity: int, value,
              keep=None) -> PartialOperation:
    """The operation sending each `arity`-tuple of elements of M that `keep`
    accepts (every tuple, without `keep`) to value(*args), the tuples taken
    in `product` order."""
    args = product(M.elements(), repeat=arity)
    return PartialOperation(name, {a: value(*a) for a in args
                                   if keep is None or keep(*a)})


def op_g_uv(M: AutomaticAlgebra, u: int, v: int) -> PartialOperation:
    """Binary total op: u on the single pair (u, v), 0 elsewhere.

    Needs a letter among {u, v}, else the pair (u, v) could be hit by a
    product and the operation would not be a homomorphism.
    """
    if not (M.is_letter(u) or M.is_letter(v)):
        raise PreconditionViolated("g_uv needs a letter among its parameters")
    return _tabulate("g_uv", M, 2, lambda x, y: u if (x, y) == (u, v) else ZERO)


def op_join(M: AutomaticAlgebra) -> PartialOperation:
    """Partial join of the flat order (0 below every state)."""
    table = {}
    for x in M.elements():
        table[(x, x)] = x
    for s in M.states():
        table[(ZERO, s)] = s
        table[(s, ZERO)] = s
    return PartialOperation("join", table)


def op_quasi_meet(M: AutomaticAlgebra) -> PartialOperation:
    """Total quasi-meet: first argument if both are states or both letters.

    Only a homomorphism on total algebras.
    """
    if not M.is_total():
        raise PreconditionViolated("quasi-meet needs a total algebra")
    Q, S = set(M.states()), set(M.letters())
    return _tabulate("quasi_meet", M, 2,
                     lambda x, y: x if {x, y} <= Q or {x, y} <= S else ZERO)


def op_chain_meet(M: AutomaticAlgebra) -> PartialOperation:
    """Total meet for the constant-letter setting.

    Requires: total, every letter constant, and the letter-value map a
    bijection onto the states.  States and their letters are ranked by
    state index; the meet of two states (or two letters) is the one with
    the larger index, mixed pairs meet at 0.
    """
    from .classify import constant_letter_values
    values = constant_letter_values(M)
    if values is None:
        raise PreconditionViolated("chain meet needs total constant letters")
    if sorted(values) != list(range(M.n_states)):
        raise PreconditionViolated("chain meet needs letter values to enumerate Q")
    letter_rank = {M.letter(j): values[j] for j in range(M.n_letters)}
    state_rank = {M.state(i): i for i in range(M.n_states)}

    def meet(x, y):
        for rank in (state_rank, letter_rank):
            if x in rank and y in rank:
                return x if rank[x] >= rank[y] else y
        return ZERO
    return _tabulate("chain_meet", M, 2, meet)


def op_h(M: AutomaticAlgebra, state_index: int = 0) -> PartialOperation:
    """Ternary partial op from the constant-letter dualizability argument.

    Domain excludes the distinguished state's letter in the first slot;
    the value is the join of y, z over {0, q} when x = q, else 0.
    """
    from .classify import constant_letter_values
    values = constant_letter_values(M)
    if values is None:
        raise PreconditionViolated("h needs total constant letters")
    q1 = M.state(state_index)
    with_value = [j for j in range(M.n_letters) if values[j] == state_index]
    if len(with_value) != 1:
        raise PreconditionViolated("h needs exactly one letter with the chosen value")
    a1 = M.letter(with_value[0])
    joins = {(ZERO, q1), (q1, ZERO), (q1, q1)}     # the (y, z) that join to q1
    return _tabulate("h", M, 3, lambda x, y, z: q1 if x == q1 and (y, z) in joins else ZERO,
                     keep=lambda x, y, z: x != a1)


def op_lambda(M: AutomaticAlgebra, g: int) -> PartialOperation:
    """Unary total translation by g on g's component, identity elsewhere."""
    from .structure import component_group, components
    if not M.is_state(g):
        raise PreconditionViolated(f"lambda_g needs a state g, got {M.name(g)}")
    comp = next(c for c in components(M) if M.state_index(g) in c)
    data = component_group(M, comp)
    table = {(x,): x for x in M.elements()}
    for s in comp:
        table[(M.state(s),)] = M.state(data.op_states(M.state_index(g), s))
    return PartialOperation("lambda_g", table)


def op_diamond(M: AutomaticAlgebra) -> PartialOperation:
    """Binary partial op separating same-coset pairs from cross-coset ones."""
    from .structure import components, component_group
    table = {(ZERO, ZERO): ZERO}
    for a in M.letters():
        for b in M.letters():
            table[(a, b)] = a
    for comp in components(M):
        data = component_group(M, comp)
        for u in comp:
            for v in comp:
                diff = data.op_states(data.inv_state(u), v)
                in_H = data.group_index(diff) in data.subgroup_H
                table[(M.state(u), M.state(v))] = ZERO if not in_H else M.state(u)
    return PartialOperation("diamond", table)


def _letter_component(M: AutomaticAlgebra, component_index: int) -> tuple:
    """(component, its group data), for a component every letter acts on."""
    from .structure import components, component_group
    comps = components(M)
    if not 0 <= component_index < len(comps):
        raise IndexOutOfRange(f"no component {component_index}")
    data = component_group(M, comps[component_index])
    for j in range(M.n_letters):
        if j not in data.letter_images:
            raise PreconditionViolated(
                f"letter {M.letter_names[j]} is undefined on this component")
    return comps[component_index], data


def op_pbar(M: AutomaticAlgebra, component_index: int = 0) -> PartialOperation:
    """Mal'cev operation xy⁻¹z on one component, extended to letter triples.

    Needs the letter images on the component to be closed under the Mal'cev
    operation (the letter-affine condition there).
    """
    comp, data = _letter_component(M, component_index)
    G = data.group
    image_of = {a: data.letter_images[M.letter_index(a)] for a in M.letters()}
    if G.malcev_gap(list(image_of.values())) is not None:
        raise PreconditionViolated("letter images are not Mal'cev closed on this component")
    # the operation itself: x·y⁻¹·z in the group, on states and on letters
    carriers = (({M.state(s): k for k, s in enumerate(comp)},
                 lambda g: M.state(comp[g])),
                (image_of, lambda g: _least_letter_with_image(M, data, g)))
    table = {(ZERO, ZERO, ZERO): ZERO}
    for index_of, element in carriers:
        for x, y, z in product(index_of, repeat=3):
            table[(x, y, z)] = element(G.op(G.op(index_of[x], G.inv(index_of[y])),
                                            index_of[z]))
    return PartialOperation("pbar", table)


def _least_letter_with_image(M: AutomaticAlgebra, data, group_index: int) -> int:
    for j in range(M.n_letters):
        if data.letter_images.get(j) == group_index:
            return M.letter(j)
    raise PreconditionViolated("no letter realizes the required image")


def op_psi(M: AutomaticAlgebra, endo: dict, component_index: int = 0) -> PartialOperation:
    """Unary partial op extending an endomorphism of H that fixes u.

    `endo` maps group indices of H to group indices of H; it must fix
    u = a^{|G/H|} where a is the image of the least letter.  The extension
    sends a^t·h to a^t·endo(h) on the component and acts on letters through
    their images; it is defined on C ∪ Σ ∪ {0}.
    """
    comp, data = _letter_component(M, component_index)
    if not data.letter_images:
        raise PreconditionViolated("no letter acts on this component")
    G, H = data.group, data.subgroup_H
    for h in H:
        if endo.get(h) not in H:
            raise PreconditionViolated("endo must map H into H")
    for h1 in H:
        for h2 in H:
            if endo[G.op(h1, h2)] != G.op(endo[h1], endo[h2]):
                raise PreconditionViolated("endo is not a homomorphism on H")
    a_i = data.letter_images[min(data.letter_images)]
    n_i = G.n // len(H)
    u_i = G.power(a_i, n_i)
    if endo[u_i] != u_i:
        raise PreconditionViolated("endo must fix u = a^{|G/H|}")

    def xi(g: int) -> int:
        for t in range(n_i):
            h = G.op(G.inv(G.power(a_i, t)), g)
            if h in H:
                return G.op(G.power(a_i, t), endo[h])
        raise PreconditionViolated("G/H is not generated by the chosen letter image")

    images = set(data.letter_images.values())
    table = {(ZERO,): ZERO}
    for s in comp:
        table[(M.state(s),)] = M.state(data.state_of_group_index(xi(data.group_index(s))))
    for a in M.letters():
        gi = xi(data.letter_images[M.letter_index(a)])
        if gi not in images:
            raise PreconditionViolated(
                "extension leaves the letter images; component is not letter-affine")
        table[(a,)] = _least_letter_with_image(M, data, gi)
    return PartialOperation("psi", table)


# ---------------------------------------------------------------------------
# k-local evaluation probe
# ---------------------------------------------------------------------------

def local_eval_probe(M: AutomaticAlgebra, A: Groupoid, k: int) -> dict:
    """Classify maps hom(A,M) -> M as evaluations / k-local / neither.

    A map f is k-local when any k homs x agree with f at some element a of
    A, f(x) = x(a).  The k-local maps (k >= 2) are enumerated depth first,
    one hom at a time: a value f(x) is kept only when every k - 1 earlier
    homs leave an element in common, the bitmasks of the a with x(a) = f(x)
    intersected.  This is complete for the k-local set without enumerating
    all |M|^|hom| maps; "neither" is counted by arithmetic.  More than
    PROBE_HOM_CAP homs, or more than PROBE_WORK_CAP intersections, raise
    CapExceeded.  For k >= 3 the run asserts that every k-local map whose
    range contains a letter is an evaluation, and aborts loudly otherwise.
    """
    if k < 1:
        raise BadParams("locality k must be at least 1")
    homs = enumerate_homs(A, M, limit=PROBE_HOM_CAP)
    H = len(homs)
    evals = {tuple(h[a] for h in homs) for a in range(A.n)}
    agree = [{} for _ in homs]      # agree[x][v]: the a with x(a) = v, a bitmask
    for masks, h in zip(agree, homs):
        for a, v in enumerate(h):
            masks[v] = masks.get(v, 0) | 1 << a
    one_local = prod(map(len, agree))
    total_maps = M.size() ** H
    if k == 1:
        count, non_eval = one_local, one_local - len(evals)
    else:
        k_local, work = set(), 0
        stack = [()]    # partial k-local maps: the values of the first homs
        while stack:
            f = stack.pop()
            if len(f) == H:
                k_local.add(f)
                continue
            chosen = [agree[x][v] for x, v in enumerate(f)]
            for v, mask in agree[len(f)].items():
                for subset in combinations(chosen, min(k - 1, len(f))):
                    work += 1
                    if work > PROBE_WORK_CAP:
                        raise CapExceeded(f"local evaluation search exceeded "
                                          f"{PROBE_WORK_CAP} intersections")
                    if not reduce(and_, subset, mask):
                        break
                else:
                    stack.append(f + (v,))
        count, non_eval = len(k_local), len(k_local - evals)
        bad = [f for f in k_local - evals if any(map(M.is_letter, f))]
    report = {"hom_count": H, "k": k, "evaluation_count": len(evals),
              "one_local_count": one_local, "total_maps": total_maps,
              "k_local_count": count, "k_local_non_eval": non_eval,
              "neither_count": total_maps - count}
    if k >= 2:
        report["letter_range_non_eval"] = len(bad)
    if k >= 3 and bad:
        raise InternalInconsistency(
            "a k-local map with a letter in its range is not an evaluation")
    return report


# ---------------------------------------------------------------------------
# abelian groups: isomorphism types
# ---------------------------------------------------------------------------

def abelian_group_isomorphism_types(max_order: int) -> list:
    """All isomorphism types of abelian groups of order 1..max_order.

    Each type is returned as ("C2xC4"-style name, AbelianGroup built as a
    product of prime-power cyclic factors).
    """
    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    out = []
    for order in range(1, max_order + 1):
        per_prime = []
        for p, e in sorted(_prime_factors(order).items()):
            per_prime.append([(p, part) for part in partitions(e)])
        if not per_prime:
            out.append(("C1", AbelianGroup.trivial()))
            continue
        for combo in product(*per_prime):
            factors = []
            for p, part in combo:
                factors.extend(p ** e for e in sorted(part))
            name = "x".join(f"C{d}" for d in factors)
            out.append((name, AbelianGroup.of_orders(*factors)))
    return out


# ---------------------------------------------------------------------------
# endomorphism / character oracles
# ---------------------------------------------------------------------------

def _basis_maps(G: AbelianGroup, candidates: Callable, value: Callable) -> list:
    """Every map out of G fixed by images of the basis generators, as a tuple
    of values over G.elements(), in product order of the images.

    `candidates(d)` lists the images allowed for a generator of order d;
    `value(images, coords)` is the map's value at the element with these
    coordinates.  The trivial group has the empty basis and one map.
    """
    basis = cyclic_decomposition(G)
    coords_of, _ = coordinate_maps(G, basis)
    return [tuple(value(images, coords_of[x]) for x in G.elements())
            for images in product(*[candidates(d) for _, d in basis])]


def all_endomorphisms(G: AbelianGroup) -> list:
    """Every endomorphism, as a tuple image vector (brute-force oracle)."""
    return _basis_maps(
        G, lambda d: [x for x in G.elements() if d % G.order_of(x) == 0],
        lambda images, coords: reduce(G.op, map(G.power, images, coords),
                                      G.identity))


def _check_modulus(m: int) -> None:
    if m < 1:
        raise BadParams(f"modulus m = {m} must be positive")


def all_characters(G: AbelianGroup, m: int) -> list:
    """Every homomorphism G -> Z_m, as a tuple of values (oracle)."""
    _check_modulus(m)
    return _basis_maps(G, lambda d: range(0, m, m // gcd(m, d)),
                       lambda images, coords: sum(map(mul, images, coords)) % m)


# ---------------------------------------------------------------------------
# the character-with-endomorphisms construction
# ---------------------------------------------------------------------------

class CharacterWitness(NamedTuple):
    chi: dict                    # element -> value in Z_m
    endo_provider: Callable      # element h -> endomorphism image tuple
    modulus: int

    def verify(self, H: AbelianGroup, u: int) -> None:
        m = self.modulus
        for x in H.elements():
            for y in H.elements():
                if (self.chi[x] + self.chi[y]) % m != self.chi[H.op(x, y)]:
                    raise ConstructionFailed("chi is not a homomorphism")
        for h in H.elements():
            if h == H.identity:
                continue
            phi = self.endo_provider(h)
            for x in H.elements():
                for y in H.elements():
                    if phi[H.op(x, y)] != H.op(phi[x], phi[y]):
                        raise ConstructionFailed("provided map is not an endomorphism")
            if phi[u] != u:
                raise ConstructionFailed("endomorphism does not fix u")
            if self.chi[phi[h]] % m == 0:
                raise ConstructionFailed(f"chi(phi(h)) = 0 for h = {h}")


def _vp(x: int, p: int, cap: int) -> int:
    """p-adic valuation of x in Z_{p^cap} (valuation of 0 is cap)."""
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def huc_character(H: AbelianGroup, m: int, u: int) -> CharacterWitness:
    """Character chi: H -> Z_m with, per h ≠ e, an endomorphism fixing u
    that pushes h out of ker chi.

    Constructive: per prime, reindex coordinates so the last one carries a
    maximal-order component of u, project; the per-h endomorphisms come from
    the explicit two-coordinate formulas.  The result is self-verified.
    """
    if u not in H.elements():
        raise IndexOutOfRange(f"u = {u} is not an element of H")
    _check_modulus(m)
    if m % H.exponent != 0:
        raise ExponentMismatch(f"exponent {H.exponent} does not divide m = {m}")
    basis = cyclic_decomposition(H)
    coords_of, _ = coordinate_maps(H, basis)
    coords = {x: list(coords_of[x]) for x in H.elements()}

    exps = []          # coordinate i is cyclic of order p ** exps[i]
    by_prime = {}      # p -> its coordinate indices, orders ascending
    for idx, (_, d) in enumerate(basis):
        (p, e), = _prime_factors(d).items()
        exps.append(e)
        by_prime.setdefault(p, []).append(idx)

    # the last coordinate of each prime is the one chi projects onto
    for p, idxs in by_prime.items():
        dvals = [exps[i] - _vp(coords[u][i], p, exps[i]) for i in idxs]
        if dvals[-1] != max(dvals):
            cj, ck = idxs[dvals.index(max(dvals))], idxs[-1]
            shift, mod = p ** (exps[ck] - exps[cj]), p ** exps[ck]
            for x in H.elements():
                coords[x][ck] = (coords[x][ck] + shift * coords[x][cj]) % mod

    # the adjustments re-choose the coordinate isomorphism; rebuild its inverse
    elem_of = {tuple(c): x for x, c in coords.items()}

    chi = {}
    for x in H.elements():
        chi[x] = sum((m // p ** exps[idxs[-1]]) * coords[x][idxs[-1]]
                     for p, idxs in by_prime.items()) % m

    def shear_target(h: int) -> Optional[tuple]:
        """(p, j) with p the first prime where h has a nonzero coordinate,
        j the first such coordinate, and h's projected coordinate at p zero;
        None when the identity serves (h = e, or chi(h) ≠ 0 already)."""
        for p, idxs in by_prime.items():
            if coords[h][idxs[-1]] != 0:
                return None
            for j in idxs[:-1]:
                if coords[h][j] != 0:
                    return p, j
        return None

    def endo_provider(h: int):
        """The identity, unless h must be sheared off ker chi."""
        table = [list(coords[x]) for x in H.elements()]
        target = shear_target(h)
        if target is not None:
            p, cj = target
            ck = by_prime[p][-1]
            nj, nk = exps[cj], exps[ck]
            mODk = p ** nk
            uj, uk = coords[u][cj], coords[u][ck]
            d1 = nj - _vp(uj, p, nj)
            d2 = nk - _vp(uk, p, nk)
            aj = uj // (p ** (nj - d1)) if uj else 1
            ak = uk // (p ** (nk - d2)) if uk else 1
            d = d2 - d1
            b = pow(ak, -1, mODk)
            c = ((aj * (p ** d) - ak) * b) % mODk
            for row in table:
                mu = (p ** (nk - nj)) * row[cj]
                row[ck] = (mu - c * row[ck]) % mODk
        return tuple(elem_of[tuple(row)] for row in table)

    witness = CharacterWitness(chi, endo_provider, m)
    witness.verify(H, u)
    return witness


# ---------------------------------------------------------------------------
# annihilators over Z_m
# ---------------------------------------------------------------------------

def annihilator_system(m: int, H: Iterable[tuple]) -> list:
    """Generating rows of {c : c·x ≡ 0 (mod m) for all x in H}.

    The returned system is round-trip verified: its solution set in Z_m^k
    is exactly H (the double annihilator of a subgroup of Z_m^k is itself).
    """
    H = {tuple(x % m for x in row) for row in H}
    k = len(next(iter(H), ()))
    if not H or any(len(x) != k for x in H):
        raise NotSubgroup("need nonempty subset of Z_m^k")
    witness = rows_form_subgroup(MatrixZm(m, tuple(sorted(H))))
    if witness is not None:
        raise NotSubgroup(f"not a subgroup of Z_m^k: {witness} is missing")
    if m ** k > 10 ** 6:
        raise CapExceeded("annihilator enumeration too large")
    # c·x = x·c, so the annihilator is the solution set of H as a system
    ann = sorted(solve_system(m, k, H))
    rows = []
    span = {tuple([0] * k)}
    for c in ann:
        if c not in span:
            rows.append(c)
            span = closure([tuple([0] * k)], rows, lambda x, g: tuple(
                (a + b) % m for a, b in zip(x, g)))
            if len(span) == len(ann):
                break
    if solve_system(m, k, rows) != H:
        raise InternalInconsistency("annihilator round trip failed")
    return rows


def solve_system(m: int, k: int, rows: list) -> set:
    return {x for x in product(range(m), repeat=k)
            if all(sum(c * xi for c, xi in zip(row, x)) % m == 0 for row in rows)}


# ---------------------------------------------------------------------------
# the zero-column proposition
# ---------------------------------------------------------------------------

class MatrixZm(NamedTuple):
    modulus: int
    rows: tuple  # of row tuples

    @property
    def k(self):
        return len(self.rows[0]) if self.rows else 0

    def columns(self):
        return [tuple(row[c] for row in self.rows) for c in range(self.k)]


def rows_form_subgroup(mat: MatrixZm) -> Optional[tuple]:
    """None if the distinct rows form a subgroup of Z_m^k, else a witness."""
    m = mat.modulus
    S = set(mat.rows)
    zero = tuple([0] * mat.k)
    if zero not in S:
        return zero
    for x in S:
        for y in S:
            s = tuple((a + b) % m for a, b in zip(x, y))
            if s not in S:
                return s
    return None


def columns_form_coset(mat: MatrixZm) -> Optional[tuple]:
    """None if the distinct columns are Mal'cev closed (x−y+z), else a witness.

    A subset of an abelian group is a coset of a subgroup iff it is closed
    under x−y+z.
    """
    m = mat.modulus
    C = set(mat.columns())
    for x in C:
        for y in C:
            for z in C:
                w = tuple((a - b + c) % m for a, b, c in zip(x, y, z))
                if w not in C:
                    return w
    return None


def every_row_has_zero(mat: MatrixZm) -> Optional[tuple]:
    for row in mat.rows:
        if 0 not in row:
            return row
    return None


def find_zero_column(mat: MatrixZm) -> int:
    """Least index of an all-zero column; hypotheses are checked first.

    Under the verified hypotheses a zero column must exist; its absence
    would falsify the underlying proposition and aborts loudly.
    """
    for which, check in (("rows-subgroup", rows_form_subgroup),
                         ("columns-coset", columns_form_coset),
                         ("row-zero", every_row_has_zero)):
        witness = check(mat)
        if witness is not None:
            raise HypothesisFailed(which, witness)
    for c, col in enumerate(mat.columns()):
        if all(v == 0 for v in col):
            return c
    raise PropositionViolated(
        "matrix satisfies all hypotheses but has no zero column")
