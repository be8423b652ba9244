"""Structural predicates: components, kill sets, whiskery cycles,
permutation profiles, per-component abelian groups, the letter-affine test,
and the commuting-permutation non-dualizability conditions.

`Reduction` is the one mutable copy of the action rows that
`classify.normalize_algebra` and its verifier shrink, step by step.

The per-component data has one home each: M keeps its components, each
with its `component_actions` index, as `M._components`, built on first use
like its product table.  `components` copies them out; every per-component
scan here, in `terms.order_sensitivity` and in the `classify` verifiers
reads that copy.  An index maps each distinct action of the letters on a
component to the ascending list of letters with it, in least-letter order.
The scans run over its keys and name least letters.  That finds what a
scan over all letters finds, since a letter's failure and a pair's
commuting depend only on their actions there.  M keeps each component's
group too, or its refusal, as `M._groups`, built by `component_group` on
first use.  Commuting permutations of a component act regularly, so a
letter acts there as the translation by its code, the image of the least
state: `difference_order` (the order of ρ_b ρ_c⁻¹) is the lcm over the
components of the order of a code difference, and the coset test reads
codes.  With `group_law_holds` (q·a = q * a_img) they complete it.  The
detectors here and the certificate verifiers in `classify` both call
them, and the Mal'cev and difference-subgroup computations live on
`abgroups.AbelianGroup`.

Whiskery's F_m vote builds its embedding from the letters' tails instead of
searching for one.  Only state·letter is ever nonzero, so an embedding h of
F_m has h(0) = h(0)·h(0) = 0, and as q·a = r ≠ 0, h(q) is a state x and
h(a) a letter b.  The nonzero products of F_m are its a-transitions, so h is
a hom exactly when y = h(r) is x·b and the h(s_i) = y·b^i close into an
m-cycle of b, or, for m = 0, y·b is undefined.  It is injective exactly when
y is on no cycle of b, which keeps x off b's cycles and x ≠ y.  So the
embeddings of F_m are the tails (b, x): y = x·b on no cycle of b, and y·b
on an m-cycle of b, or undefined for m = 0.  `least_tail_embedding` reads
the least m and its least code tuple (h(q), h(r), h(s1), …, h(s_m), h(a))
off them.  Following y under b to its last state off every cycle finds a
tail wherever the direct vote fails, so the two fail together.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, combinations, repeat
from math import lcm
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .abgroups import AbelianGroup, _prime_factors, closure
from .algebras import ZERO, AutomaticAlgebra
from .errors import (BadParams, InternalInconsistency, NotAbelian, NotCommuting,
                     NotPermutational)
from .terms import WHISKERY_QUASI, check_quasi_identity, shortest_word


# ---------------------------------------------------------------------------
# components and the per-component action index
# ---------------------------------------------------------------------------

def _find(parent: list, x: int) -> int:
    """The root of x in the union-find forest `parent`, halving its path.
    Every union links the greater root to the lesser, so a root is the
    least member of its class."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _component_index(M: AutomaticAlgebra) -> tuple:
    """((component, its `component_actions` index), ...) in `components`
    order, a component as a tuple; built on first use and kept on M."""
    if M._components is None:
        parent = list(range(M.n_states))
        for act in map(M.action, range(M.n_letters)):
            for si, ti in enumerate(act):
                if ti is not None and parent[si] != parent[ti]:     # else one set already
                    a, b = _find(parent, si), _find(parent, ti)
                    parent[max(a, b)] = min(a, b)
        blocks = {}
        for i in range(M.n_states):
            blocks.setdefault(_find(parent, i), []).append(i)
        M._components = tuple((tuple(comp), component_actions(M, comp))
                              for _, comp in sorted(blocks.items()))
    return M._components


def components(M: AutomaticAlgebra) -> list:
    """Connected components of the underlying undirected graph, as sorted
    lists of state indices, ordered by least member; fresh lists each call."""
    return [list(comp) for comp, _ in _component_index(M)]


def component_actions(M: AutomaticAlgebra, comp: Sequence[int]) -> dict:
    """Each distinct action on the component of a letter defined there ->
    the ascending list of letters with that action, in least-letter order.
    An action is a tuple of positions in `comp`, None where undefined."""
    pos = {s: k for k, s in enumerate(comp)}
    index = {}
    for j in range(M.n_letters):
        act = M.action(j)
        images = tuple(pos.get(act[s]) for s in comp)
        if images.count(None) < len(comp):
            index.setdefault(images, []).append(j)
    return index


def _is_perm(images: tuple) -> bool:
    return None not in images and len(set(images)) == len(images)


# ---------------------------------------------------------------------------
# the rows that normalization reduces
# ---------------------------------------------------------------------------

class Reduction:
    """One mutable copy of an algebra M's action rows and names, which the
    four reductions of `classify.normalize_algebra` shrink in place.

    `letters` and `states` map the indices in M of those left, in order, to
    their names.  A reduction removes only a letter or a state in no range,
    so the products of the elements left stay as they are.  `cover[s]`
    counts the (state, letter) pairs left whose product is s: s is in no
    range exactly when it is 0.

    A removed state never told two rows apart: an isolated state's column
    is all 0, and a redundant state's equals its twin's.  A removed letter
    never told two columns apart, for the same reasons.  So two letters
    left have equal rows exactly when their rows in M are equal, and two
    states left equal columns exactly when their columns in M are:
    `row_class[j]` lists the letters left with j's row in M, and
    `column_class[s]` the states left with s's column, in order.
    """

    def __init__(self, M: AutomaticAlgebra):
        self.rows = list(map(M.action, range(M.n_letters)))
        self.letters = dict(enumerate(M.letter_names))
        self.states = dict(enumerate(M.state_names))
        counts = Counter(chain.from_iterable(self.rows))
        self.cover = [counts[s] for s in self.states]
        self.row_class = _classes(self.letters, self.rows)

    @cached_property
    def column_class(self) -> list:
        return _classes(self.states, list(zip(*self.rows)) or [()] * len(self.cover))

    def image(self, kind: str, k: int) -> Optional[list]:
        """Where the lemma of `classify.normalize_algebra` sends k, a letter
        or state of M, if the reduction `kind` removes k now; else None."""
        rows, letters, states = self.rows, self.letters, self.states
        if kind == "drop_undefined_letter":
            if states and all(rows[k][s] is None for s in states):
                return ["0", next(iter(states.values()))]
        elif kind == "drop_repeated_letter":
            b = self.row_class[k][0]
            if b != k:
                return [letters[b]] * 2
        elif self.cover[k]:
            return None
        elif kind == "drop_isolated_state":
            if letters and all(rows[j][k] is None for j in letters):
                return ["0", next(iter(letters.values()))]
        elif (r := next((r for r in self.column_class[k] if r != k), None)) is not None:
            return [states[r]] * 2
        return None

    def step(self, kind: str, k: int, image: list) -> dict:
        """The step record removing k: the lemma's embedding, x -> (x, 0) for
        the elements left in the canonical order, then k -> image."""
        removed = (self.letters if kind.endswith("letter") else self.states)[k]
        emb = {x: [x, "0"] for x in chain(self.states.values(), self.letters.values(), ["0"])
               if x != removed}
        emb[removed] = image
        return {"kind": kind, "removed": removed, "embedding": emb}

    def drop(self, kind: str, k: int) -> None:
        """Remove k, a letter or state of M, keeping `cover` and the classes."""
        if kind.endswith("letter"):
            self.row_class[k].remove(k)
            del self.letters[k]
            values = [self.rows[k][s] for s in self.states]
        else:
            self.column_class[k].remove(k)
            del self.states[k]
            values = [self.rows[j][k] for j in self.letters]
        for t in values:
            if t is not None:
                self.cover[t] -= 1

    def algebra(self) -> AutomaticAlgebra:
        """The algebra on the letters and states left."""
        at = {s: i for i, s in enumerate(self.states)}
        return AutomaticAlgebra(self.states.values(), self.letters.values(), {
            (at[s], lj): at[t] for lj, j in enumerate(self.letters)
            for s in self.states if (t := self.rows[j][s]) is not None})


def _classes(members, keys: list) -> list:
    """For each index i, the list of the members whose key is keys[i]; one
    list is shared by all of them."""
    lists = {}
    for i in members:
        lists.setdefault(keys[i], []).append(i)
    return [lists.get(key) for key in keys]


# ---------------------------------------------------------------------------
# range/kill reachability
# ---------------------------------------------------------------------------

class RanKillWitness(NamedTuple):
    case: int            # 1: kill -> dom path, 2: ran -> kill path
    letter: int          # letter index
    state: int           # starting state index
    word: tuple          # letter-index word


def rankill_check(M: AutomaticAlgebra) -> Optional[RanKillWitness]:
    """Path witness from ran a to ks a (case 2) or from ks a to dom a (case 1).

    Case 2 is searched first across all letters, then case 1; within a case,
    the letters with targets in index order, each by `shortest_word`.  Case
    2's targets and case 1's sources are the letter's kill set, so a letter
    defined everywhere is passed over in both.
    """
    for case, sources, targets in ((2, M.ran, M.kills), (1, M.kills, M.dom)):
        for j in range(M.n_letters):
            if None not in M.action(j):
                continue
            goal = targets(j)
            hit = shortest_word(sorted(sources(j)), M.n_letters, lambda p: M.action(p[1])[p[0]],
                                goal.__contains__) if goal else None
            if hit is not None:
                return RanKillWitness(case, j, *hit)
    return None


# ---------------------------------------------------------------------------
# whiskery cycles, three ways
# ---------------------------------------------------------------------------

class WhiskeryFailure(NamedTuple):
    letter: int           # letter index failing
    state: int            # state index with qa != qa^{n+1} for all n
    forbidden_m: int      # the m for which F_m embeds
    embedding: dict       # F_m element name -> M element name


def _whiskery_at(M: AutomaticAlgebra, i: int, j: int) -> bool:
    """Whether letter j passes at state q = i: q·a is 0 or returns to itself
    within |Q| further steps of a (the orbit of q·a has period at most |Q|).
    """
    x = M.mul(M.state(i), M.letter(j))
    if x == ZERO:
        return True
    y = x
    for _ in range(M.n_states):
        y = M.mul(y, M.letter(j))
        if y == x:
            return True
    return False


def _whiskery_direct(M: AutomaticAlgebra) -> Optional[tuple]:
    """(letter, state) of the first failure, scanning letters then states:
    letter a fails at q when q·a is a state on no cycle of a.  One O(|Q|)
    pass per letter marks a's cycles: each walk stops at a state walked
    before, and closes a cycle when that state is on the walk itself."""
    for j in range(M.n_letters):
        act = M.action(j)
        on_cycle = [False] * M.n_states
        walked = [-1] * M.n_states      # the start of the walk that reached a state
        for start in range(M.n_states):
            x, path = start, []
            while x is not None and walked[x] < 0:
                walked[x] = start
                path.append(x)
                x = act[x]
            if x is not None and walked[x] == start:
                for y in path[path.index(x):]:
                    on_cycle[y] = True
        for i, x in enumerate(act):
            if x is not None and not on_cycle[x]:
                return (j, i)
    return None


def _cycle_lengths(act: tuple) -> list:
    """For each state, the length of the cycle of the action `act` that holds
    it, or 0 if none does.  Each walk stops at a state walked before, and
    closes a cycle when that state is on the walk itself."""
    length, walked = [0] * len(act), [-1] * len(act)
    for start in range(len(act)):
        x, path = start, []
        while x is not None and walked[x] < 0:
            walked[x] = start
            path.append(x)
            x = act[x]
        if x is not None and walked[x] == start:
            loop = path[path.index(x):]
            for y in loop:
                length[y] = len(loop)
    return length


def least_tail_embedding(M: AutomaticAlgebra) -> Optional[tuple]:
    """(m, embedding dict) for the least m with F_m embeddable in M, with its
    least embedding, else None; built from the letters' tails as the module
    docstring argues.  One cycle pass per distinct action, kept for its least
    letter, gives that letter's least tail (m, x, y); the letters whose tail
    is the least are then told apart by their walks y·b, …, y·b^m, then by b.
    """
    least = {M.action(j): j for j in reversed(range(M.n_letters))}  # action -> least letter
    tails = {}                          # letter -> its least tail (m, x, y)
    for act, b in least.items():
        length = _cycle_lengths(act)
        tail = min(((0 if act[y] is None else length[act[y]], x, y)
                    for x, y in enumerate(act) if y is not None and not length[y]
                    and (act[y] is None or length[act[y]])), default=None)
        if tail is not None:
            tails[b] = tail
    if not tails:
        return None
    m, x, y = min(tails.values())

    def walk(b):
        act, s = M.action(b), [y]
        for _ in range(m):
            s.append(act[s[-1]])
        return s[1:]

    s, b = min((walk(b), b) for b, tail in tails.items() if tail == (m, x, y))
    names = M.state_names
    return m, {"q": names[x], "r": names[y], **{f"s{i}": names[t] for i, t in enumerate(s, 1)},
               "a": M.letter_names[b], "0": "0"}


def whiskery_check(M: AutomaticAlgebra) -> Optional[WhiskeryFailure]:
    """None if every letter acts as whiskery cycles, else a failure witness.

    Computes all three equivalent conditions (direct orbit check, the
    vxx≈wxx ⟹ vx≈wx quasi-identity, F_m-embedding-freeness) and insists
    they agree before answering.  The F_m vote is built from the letters'
    tails, with no search; `classify` confirms the embedding it reports with
    `check_embedding`.
    """
    direct = _whiskery_direct(M)
    quasi = check_quasi_identity(M, WHISKERY_QUASI)
    embed = least_tail_embedding(M)
    votes = (direct is None, quasi is None, embed is None)
    if len(set(votes)) != 1:
        raise InternalInconsistency(
            f"whiskery conditions disagree on {M!r}: "
            f"direct={direct}, quasi={quasi}, embedding={embed}")
    if direct is None:
        return None
    return WhiskeryFailure(direct[0], direct[1], embed[0], embed[1])


# ---------------------------------------------------------------------------
# permutation profile
# ---------------------------------------------------------------------------

class PermProfile(NamedTuple):
    permutational: bool
    commuting: bool
    component_status: tuple       # per component: per letter 'total'/'undefined'/'partial'


def permutation_profile(M: AutomaticAlgebra) -> PermProfile:
    commuting, status = True, []
    for _, index in _component_index(M):
        kind = {j: "total" if _is_perm(act) else "partial"
                for act, letters in index.items() for j in letters}
        status.append(tuple(kind.get(j, "undefined") for j in range(M.n_letters)))
        commuting = commuting and all(_compose(x, y) == _compose(y, x)
                                      for x, y in combinations(index, 2))
    permutational = all(st == "total" for row in status for st in row)
    return PermProfile(permutational, commuting, tuple(status))


# ---------------------------------------------------------------------------
# per-component abelian group
# ---------------------------------------------------------------------------

class AbelianGroupData:
    """Group structure carried by one component of a permutational,
    commuting algebra, read off `_tree_maps`.  A plain class, not a tuple, so
    that it is never mistaken for an (error type, message) pair.  Group
    element k is the state states[k]; a letter acts as the translation by its
    image, so the image is the letter's code.  H is built on first use."""

    __slots__ = ("states", "e_state", "group", "letter_images", "_subgroup_H")

    def __init__(self, states: tuple, e_state: int, group: AbelianGroup, letter_images: dict):
        self.states = states                  # sorted state indices of the component
        self.e_state = e_state                # identity's state index (least in the component)
        self.group = group                    # op table on positions 0..|C|-1
        self.letter_images = letter_images    # letter index -> group index of its image
        self._subgroup_H = None

    @property
    def subgroup_H(self) -> frozenset:
        """Group indices: ⟨g⁻¹h : g, h letter images⟩."""
        if self._subgroup_H is None:
            self._subgroup_H = self.group.difference_subgroup(self.letter_images.values())
        return self._subgroup_H

    def group_index(self, state_index: int) -> int:
        return self.states.index(state_index)

    def state_of_group_index(self, gi: int) -> int:
        return self.states[gi]

    def op_states(self, s1: int, s2: int) -> int:
        return self.states[self.group.op(self.group_index(s1), self.group_index(s2))]

    def inv_state(self, s: int) -> int:
        return self.states[self.group.inv(self.group_index(s))]


def _compose(p: tuple, q: tuple) -> tuple:
    """The map q then p, None where either is undefined."""
    return tuple(None if i is None else p[i] for i in q)


def generated_group(gens, n: int) -> set:
    """The group of permutations of range(n) generated by `gens`; for finite
    permutations this is also their closure under composition."""
    return closure([tuple(range(n))], list(gens), lambda p, g: _compose(g, p))


def group_law_holds(M: AutomaticAlgebra, comp: Sequence[int], G: AbelianGroup,
                    images: dict) -> bool:
    """Whether q·a = q * a_img for every state q of the component and every
    letter a in `images`; group element k is the state comp[k].  Checked a
    letter at a time: a's action on the component against the states of the
    column of a_img, which is its row, as G is abelian."""
    return all(list(map(M.action(j).__getitem__, comp)) == list(map(comp.__getitem__, G.table[g]))
               for j, g in images.items())


def _tree_maps(acts: Sequence[tuple], n: int) -> list:
    """For each position s of a component, the map σ_s of its positions
    with σ_s(0·w) = s·w for every word w over `acts`, or None if some s·w
    is undefined or 0 does not reach every position: the candidate rows of
    `component_group`'s table.  Once the breadth-first
    tree from 0 spans, one `itemgetter` per edge x -> y = act[x] gives the
    column σ_s(y) = act[σ_s(x)] of every s (a tuple, as an edge means n > 1).
    Undefined is position n, which each action keeps."""
    exts = [tuple(n if t is None else t for t in act) + (n,) for act in acts]
    cols, reached = [range(n)] + [None] * (n - 1), [0]    # cols[y]: y's tree edge first
    for x in reached:
        for act in exts:
            y = act[x]
            if y < n and cols[y] is None:
                reached.append(y)
                cols[y] = act, x
    if len(reached) < n:
        return [None] * n
    for y in reached[1:]:
        act, x = cols[y]
        cols[y] = itemgetter(*cols[x])(act)
    return [None if n in sigma else sigma for sigma in zip(*cols)]


def component_group(M: AutomaticAlgebra, comp: Sequence[int]) -> AbelianGroupData:
    """The abelian group that the component `comp` of M, in any order,
    carries under a transitive commuting permutation action of its letters.

    The identity is the least state, and row s of the table is the σ_s of
    `_tree_maps`.  It passes when each letter's action is the row of its
    image (q·a = q * a_img) and the rows pass `AbelianGroup`'s checks.
    Commuting permutations of a component act transitively, so regularly,
    with σ_s the one taking the least state to s (Dixon and Mortimer,
    1996, §4.2); so where it fails, the pairwise scan names two letters.
    """
    comp = tuple(sorted(comp))
    index = dict(_component_index(M)).get(comp)
    if index is None:
        raise BadParams(f"states {list(comp)} are not a component")
    return _kept_group(M, comp, index)


def _kept_group(M: AutomaticAlgebra, comp: tuple, index: dict) -> AbelianGroupData:
    """`component_group` of the component comp of M with its index, built
    once and kept on M as `M._groups`; a refusal is kept as its (error type,
    message) and raised again."""
    found = M._groups.get(comp)
    if found is None:
        try:
            found = _build_group(M, comp, index)
        except (NotPermutational, NotCommuting) as exc:
            found = (type(exc), str(exc))
        M._groups[comp] = found
    if isinstance(found, tuple):
        raise found[0](found[1])
    return found


def _build_group(M: AutomaticAlgebra, comp: tuple, index: dict) -> AbelianGroupData:
    for act, letters in index.items():
        if not _is_perm(act):
            raise NotPermutational(f"letter {M.letter_names[letters[0]]} "
                                   "is not a permutation of the component")
    rows = _tree_maps(index, len(comp))
    try:
        if any(act != rows[act[0]] for act in index):
            raise NotAbelian("a letter is not the row of its image")
        group = AbelianGroup(rows)
    except NotAbelian:
        for (p1, js1), (p2, js2) in combinations(index.items(), 2):
            if _compose(p1, p2) != _compose(p2, p1):
                raise NotCommuting(f"letters {M.letter_names[js1[0]]}, "
                                   f"{M.letter_names[js2[0]]} do not commute") from None
        raise InternalInconsistency("commuting letters are not translations of their rows")
    letter_images = dict(sorted((j, p[0]) for p, letters in index.items()
                                for j in letters))
    return AbelianGroupData(comp, comp[0], group, letter_images)


def commuting_groups(M: AutomaticAlgebra) -> Optional[list]:
    """Each component's `component_group`, in `components` order, when every
    letter acts on every component and no component refuses, else None.
    That is exactly when the letters are commuting permutations of Q."""
    groups = []
    for comp, index in _component_index(M):
        if sum(map(len, index.values())) < M.n_letters:
            return None
        try:
            groups.append(_kept_group(M, comp, index))
        except (NotPermutational, NotCommuting):
            return None
    return groups


def difference_order(groups: Sequence[AbelianGroupData], b: int, c: int) -> int:
    """The order of ρ_b ρ_c⁻¹ for letters acting on every component of
    `groups`: on each it is the translation by b's code times the inverse of
    c's, of that element's order, and the order is their lcm."""
    m = 1
    for data in groups:
        G, images = data.group, data.letter_images
        m = lcm(m, G.order_of(G.op(images[b], G.inv(images[c]))))
    return m


# ---------------------------------------------------------------------------
# letter-affine analysis
# ---------------------------------------------------------------------------

class ComponentAffineReport(NamedTuple):
    states: tuple
    sigma_c: tuple            # letter indices acting on this component
    dropped: tuple            # letters undefined on this component
    data: Optional[AbelianGroupData]


class LetterAffineReport:
    __slots__ = ("affine", "components", "failure")     # no tuple, as AbelianGroupData

    def __init__(self, affine: bool, components: list, failure: Optional[tuple] = None):
        self.affine = affine
        self.components = components
        self.failure = failure                # (component states, kind, detail)


def letter_affine_analysis(M: AutomaticAlgebra) -> LetterAffineReport:
    """Per-component coset test for the letter actions.

    Per component C only the letters with domain meeting C count; each must
    act as a total permutation of C, the actions must commute, and the
    letter images must be closed under xy⁻¹z in the component group (that
    closure is exactly being a coset of the difference subgroup).  Letters
    undefined on C are recorded, not errors.
    """
    reports = []
    for comp, index in _component_index(M):
        sigma_c = sorted(j for letters in index.values() for j in letters)
        dropped = tuple(sorted(set(range(M.n_letters)) - set(sigma_c)))
        for act, letters in index.items():
            if not _is_perm(act):
                failure = (comp, "not-permutational", M.letter_names[letters[0]])
                return LetterAffineReport(False, reports, failure)
        try:
            data = _kept_group(M, comp, index) if sigma_c else None
        except NotCommuting as exc:
            return LetterAffineReport(False, reports, (comp, "not-commuting", str(exc)))
        reports.append(ComponentAffineReport(comp, tuple(sigma_c), dropped, data))
        if data is not None:
            least = [letters[0] for letters in index.values()]   # distinct images
            gap = data.group.malcev_gap([data.letter_images[j] for j in least])
            if gap is not None:
                return LetterAffineReport(False, reports,
                                          (comp, "malcev",
                                           tuple(M.letter_names[least[i]] for i in gap)))
    return LetterAffineReport(True, reports)


# ---------------------------------------------------------------------------
# commuting-permutation non-dualizability conditions
# ---------------------------------------------------------------------------

class NondcommWitness(NamedTuple):
    b: int                   # letter index
    c: int                   # letter index
    m: int                   # order of ρ_b ρ_c⁻¹
    coset_report: list       # per component: (states, action count)


def _coset_inside(G: AbelianGroup, codes: set, m: int) -> bool:
    """True iff the codes, a set of elements of G, contain a coset of a
    nontrivial subgroup whose order divides m.

    A coset kH inside the set forces H = k⁻¹(kH), and by Cauchy's theorem
    H contains a subgroup ⟨g⟩ of some prime order p dividing |H|, so
    dividing m, with k⟨g⟩ ⊆ kH; conversely any such ⟨g⟩ is itself a
    qualifying subgroup.  So it is enough to look for k in the set and g in
    k⁻¹·set of prime order p | m with g, g², …, g^(p−1) in k⁻¹·set, which
    holds e = k⁻¹k; the walk stops at the first power outside it.  Each
    k⁻¹·set is |set| lookups in the table.  m is an element order, so its
    primes are at most |G|.
    """
    primes = set(_prime_factors(m))
    for k in codes:
        shift = G.table[G.inv(k)]
        D = {shift[a] for a in codes}
        for g in D:
            p = G.order_of(g)
            if p in primes and all(x in D for x in accumulate(repeat(g, p - 1), G.op)):
                return True
    return False


def nondcomm_check(M: AutomaticAlgebra) -> Optional[NondcommWitness]:
    """Witness (b, c, m) for the commuting-permutation non-dualizability
    conditions, or None.

    Requires: all letters act as permutations of Q, the permutations
    commute, some ρ_b ρ_c⁻¹ has order m > 1, and no component's action set
    contains a coset of a nontrivial subgroup of order dividing m.  Only the
    pairs b < c are tried: ρ_c ρ_b⁻¹ is the inverse of ρ_b ρ_c⁻¹, of the
    same order, so the first ordered pair that qualifies has b < c.  The
    first two conditions hold exactly when every component has its group
    (`commuting_groups`); an action set is then the set of its letters'
    codes.
    """
    groups = commuting_groups(M)
    if groups is None:
        return None
    codes = [set(data.letter_images.values()) for data in groups]
    coset = {}      # m -> whether some component's action set holds a coset
    for b, c in combinations(range(M.n_letters), 2):
        m = difference_order(groups, b, c)
        if m <= 1:              # b and c act alike
            continue
        if m not in coset:
            coset[m] = any(_coset_inside(data.group, S, m) for data, S in zip(groups, codes))
        if not coset[m]:
            return NondcommWitness(b, c, m, [(data.states, len(S))
                                             for data, S in zip(groups, codes)])
    return None
