"""The backtracking complement search that `abgroups.cyclic_decomposition`
once used, kept as a reference for its one-pass complement.

`cyclic_decomposition(G)` peels off the least element of maximal order of
each p-part and searches depth first, over the elements in order, for a
complement of its cyclic subgroup.  The tests check that the one-pass
decomposition returns the same basis, generator for generator.
"""

from typing import Optional

from autodual.abgroups import AbelianGroup, _is_p_power, _prime_factors, _verify_decomposition
from autodual.algebras import CATALOG_STATE_CAP
from autodual.errors import CapExceeded, InternalInconsistency


def _complement(G: AbelianGroup, inside: set, avoid: set, target: int) -> Optional[set]:
    """A subgroup K of `inside` with K ∩ avoid = {e} and |K| = target."""

    def extend(K: set) -> Optional[set]:
        if len(K) == target:
            return K
        for x in sorted(inside):
            if x in K:
                continue
            K2 = G.subgroup_generated(K | {x})
            if len(K2) <= target and target % len(K2) == 0 \
                    and K2 <= inside and len(K2 & avoid) == 1:
                got = extend(K2)
                if got is not None:
                    return got
        return None

    return extend({G.identity})


def cyclic_decomposition(G: AbelianGroup) -> list:
    """Primary decomposition into cyclic p-groups.

    Returns (generator, prime-power order) pairs with primes ascending and
    orders ascending within each prime.  Correctness is established by
    reconstruction: the coordinate map must be a bijection onto G.
    """
    if G.n > CATALOG_STATE_CAP:
        raise CapExceeded(f"|G| = {G.n} exceeds the catalog state cap {CATALOG_STATE_CAP}")
    basis = []
    for p in sorted(_prime_factors(G.n)):
        primary = {x for x in G.elements() if _is_p_power(G.order_of(x), p)}
        part = []
        while len(primary) > 1:
            best = max(G.order_of(x) for x in primary)
            g = min(x for x in primary if G.order_of(x) == best)
            g_span = set(G.subgroup_generated([g]))
            K = _complement(G, primary, g_span, len(primary) // best)
            if K is None:
                raise InternalInconsistency("no complement for a maximal cyclic factor")
            part.append((g, best))
            primary = K
        basis.extend(sorted(part, key=lambda t: t[1]))
    _verify_decomposition(G, basis)
    return basis
