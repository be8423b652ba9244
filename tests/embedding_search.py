"""The pruned embedding search, kept as a reference for the constructions
that `classify` builds its forbidden-subalgebra embeddings with.

`first_embedded(M, name, params)` searches each catalog algebra of a family
for its least embedding into M.  The tests check it against the unpruned
loop, and the constructions against both.

It breaks symmetry (Gent, Petrie and Puget, "Symmetry in constraint
programming", 2006): an automorphism of M that fixes every letter and 0
maps embeddings to embeddings, so the first element of each source needs
only the least state of each orbit, besides the letters and 0.
`state_orbit_roots` finds the orbits one component at a time, from the maps
`structure._tree_maps` reads off one breadth-first tree from its least
state, each checked directly to be an automorphism before it merges
anything.  The small catalog sources are built once and kept, with their
search index.
"""

from typing import Optional, Sequence

from autodual.algebras import ZERO, AutomaticAlgebra, catalog
from autodual.powers import HOM_CAP_DEFAULT, Groupoid, find_embedding
from autodual.structure import _component_index, _find, _tree_maps


def state_orbit_roots(M: AutomaticAlgebra) -> list:
    """The least state index of each state's orbit, indexed by state index.

    The orbits are those of the automorphisms of M that fix every letter
    and 0 and map a component C onto itself, for each C whose least state
    q0 reaches all of C by letter edges; the other states are orbits of
    their own.  Such a σ is fixed by s = σ(q0), as σ(q0·w) = s·w for every
    word w.  For each s not yet merged with q0, that map from `_tree_maps`
    is a candidate, used only if it is a bijection of C that commutes with
    every action on C, definedness included: then it is an automorphism,
    and x is merged with σ(x) for every x of C.  Every automorphism of C
    takes q0 into its class, so the classes are the orbits of all of them.
    """
    parent = list(range(M.n_states))
    for comp, index in _component_index(M):
        n, q0, acts = len(comp), comp[0], list(index)     # positions in comp
        for s, sigma in enumerate(_tree_maps(acts, n)):
            if sigma is None or _find(parent, comp[s]) == q0:
                continue
            if len(set(sigma)) == n and all(
                    [act[t] for t in sigma] == [None if y is None else sigma[y] for y in act]
                    for act in acts):
                for x, t in zip(comp, sigma):
                    a, b = _find(parent, x), _find(parent, comp[t])
                    parent[max(a, b)] = min(a, b)
    return [_find(parent, i) for i in range(M.n_states)]


_sources = {}   # (name, p) -> Groupoid of catalog(name, p), if small


def _catalog_source(name: str, p) -> Groupoid:
    """Groupoid.from_algebra(catalog(name, p)), kept when it has at most
    HOM_CAP_DEFAULT elements, so a family scan over many targets builds
    each small source and its search index once; larger ones are built
    each time, so their tables and indexes are not held."""
    A = _sources.get((name, p))
    if A is None:
        A = Groupoid.from_algebra(catalog(name, p))
        if A.n <= HOM_CAP_DEFAULT:
            _sources[name, p] = A
    return A


def first_embedded(M: AutomaticAlgebra, name: str, params: Sequence) -> Optional[tuple]:
    """(p, element-name map) for the first p in `params` with catalog(name, p)
    embeddable in M, with its least embedding, else None.  Each search is
    capped at its own source's size.

    Each search tries for the first element of the source only the states
    least in their `state_orbit_roots` orbit, the letters and 0.  That
    keeps the least embedding h*: an automorphism σ of M that fixes every
    letter and 0 makes σ∘h* an embedding too, so if σ(h*(0)) < h*(0) then
    σ∘h* would be less than h*.  Hence h*(0) is least in its orbit, and
    whether a source embeds, the least p and its embedding are those of
    the search without the restriction.  The orbits are found only once
    some source is searched.
    """
    first = None
    for p in params:
        if first is None:
            first = {M.state(i) for i, r in enumerate(state_orbit_roots(M)) if r == i}
            first.update(M.letters(), (ZERO,))
        A = _catalog_source(name, p)
        hom = find_embedding(A, M, max_elements=A.n, preassigned={0: first})
        if hom is not None:
            return p, {A.labels[i]: M.name(x) for i, x in enumerate(hom)}
    return None
