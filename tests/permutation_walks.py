"""The commuting-permutation rule's helpers on whole permutations, kept as
references for the group codes of `autodual.structure`.

A permutation of range(n) is a tuple p with p[i] the image of i.  These walk
every point: an inverse, a composition and an order each cost O(n), where
`structure.difference_order` and `structure._coset_inside` read one entry of
a component's group table per code.
"""

from itertools import accumulate, repeat
from math import lcm

from autodual.abgroups import AbelianGroup, _prime_factors
from autodual.structure import _compose, generated_group


def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_order(p: tuple) -> int:
    """The order of the permutation p: the lcm of its cycle lengths."""
    order, seen = 1, [False] * len(p)
    for start in range(len(p)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def difference_order(perms, b: int, c: int) -> int:
    """The order of ρ_b ρ_c⁻¹ for the letter permutations `perms`."""
    return perm_order(_compose(perms[b], perm_inverse(perms[c])))


def coset_inside(actions: set, m: int) -> bool:
    """True iff the set of commuting permutations contains a coset of a
    nontrivial subgroup whose order divides m: for k in the set, a g of
    prime order p | m in k⁻¹·set with g, …, g^(p−1) in k⁻¹·set."""
    primes = set(_prime_factors(m))
    for k in actions:
        kinv = perm_inverse(k)
        D = {_compose(kinv, a) for a in actions}
        for g in D:
            p = perm_order(g)
            if p in primes and all(x in D for x in accumulate(repeat(g, p - 1), _compose)):
                return True
    return False


def as_group(actions, n: int):
    """(G, codes): the group that the commuting permutations `actions` of
    range(n) generate, as an `AbelianGroup` on the indices of its sorted
    elements, and the set of the indices of `actions`."""
    elements = sorted(generated_group(actions, n))
    at = {p: i for i, p in enumerate(elements)}
    G = AbelianGroup([[at[_compose(p, q)] for q in elements] for p in elements])
    return G, {at[a] for a in actions}
