"""The compatible partial operations of the paper's dualizability
arguments, each tabulated on an automatic algebra M, the test that a
relation is compatible with M, and the k-local evaluation probe on
hom(A, M).  Neither the rule engine nor the CLI loads this module: the
tests check each operation against its definition.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from math import prod
from operator import and_
from typing import Iterable, NamedTuple

from .algebras import ZERO, AutomaticAlgebra
from .errors import (BadParams, CapExceeded, IndexOutOfRange, InternalInconsistency,
                     PreconditionViolated)
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
