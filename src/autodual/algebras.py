"""Finite automatic algebras.

An automatic algebra is the groupoid on Q ∪ Σ ∪ {0} encoding a partial
automaton: state·letter follows the transition when it exists, and every
other product is 0.

Elements are encoded as small ints:

    0                     the absorbing default element
    1 .. n_states         state with index (code - 1)
    n_states+1 .. +n_letters  letter with index (code - 1 - n_states)

The canonical iteration order used by every exhaustive search in the
toolkit is: states in declared order, then letters in declared order,
then 0 last.  All deterministic outputs (counterexamples, witnesses,
subuniverse listings) derive their tie-breaking from this order.
"""

from __future__ import annotations

import random
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import (BadParams, CapExceeded, ConflictingTransition, ReservedName,
                     UnknownName)

ZERO = 0
# the most states `catalog F m` and `catalog C p` build, the most states or
# letters an algebra file may name, and the largest group
# `abgroups.cyclic_decomposition` decomposes
CATALOG_STATE_CAP = 1024

_NAME_OK = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def _check_name(name: str) -> None:
    if name == "0":
        raise ReservedName("the name '0' is reserved for the default element")
    if not name or any(ch not in _NAME_OK for ch in name):
        raise ReservedName(f"bad identifier {name!r} (want [A-Za-z0-9_]+)")


class AutomaticAlgebra:
    """Immutable finite automatic algebra, stored as its letters' action rows:
    `action(j)` holds each state's image index under letter j, None where
    the product is 0.  They are built from `delta`, a partial map (state_index,
    letter_index) -> state_index, which stays as a read-only derived view."""

    def __init__(self, state_names: Sequence[str], letter_names: Sequence[str],
                 delta: dict):
        state_names = tuple(state_names)
        letter_names = tuple(letter_names)
        seen = set()
        for name in state_names + letter_names:
            _check_name(name)
            if name in seen:
                raise ReservedName(f"duplicate name {name!r}")
            seen.add(name)
        self.state_names = state_names
        self.letter_names = letter_names
        self.n_states = n = len(state_names)
        self.n_letters = len(letter_names)
        rows = [[None] * n for _ in letter_names]
        for (si, lj), ti in delta.items():
            if not (0 <= si < n and 0 <= lj < self.n_letters and 0 <= ti < n):
                raise BadParams(f"transition out of range: {(si, lj, ti)}")
            rows[lj][si] = ti
        self._actions = tuple(map(tuple, rows))
        self._products = None   # product_table(), built on first use
        self._masks = None      # the hom-search masks of powers._search_masks
        self._components = None  # structure._component_index, built on first use

    @classmethod
    def build(cls, states: Sequence[str], letters: Sequence[str],
              edges: Iterable[tuple]) -> "AutomaticAlgebra":
        """Construct from (state, letter, state) name triples."""
        sidx = {name: i for i, name in enumerate(states)}
        lidx = {name: j for j, name in enumerate(letters)}
        delta = {}
        for (q, a, r) in edges:
            if q not in sidx or r not in sidx:
                raise BadParams(f"unknown state in edge {(q, a, r)}")
            if a not in lidx:
                raise BadParams(f"unknown letter in edge {(q, a, r)}")
            if delta.setdefault((sidx[q], lidx[a]), sidx[r]) != sidx[r]:
                raise ConflictingTransition(f"conflicting transitions for ({q}, {a})")
        return cls(states, letters, delta)

    # -- element encoding ------------------------------------------------

    def state(self, i: int) -> int:
        return 1 + i

    def letter(self, j: int) -> int:
        return 1 + self.n_states + j

    def is_state(self, x: int) -> bool:
        return 1 <= x <= self.n_states

    def is_letter(self, x: int) -> bool:
        return self.n_states < x <= self.n_states + self.n_letters

    def state_index(self, x: int) -> int:
        return x - 1

    def letter_index(self, x: int) -> int:
        return x - 1 - self.n_states

    def states(self):
        return range(1, 1 + self.n_states)

    def letters(self):
        return range(1 + self.n_states, 1 + self.n_states + self.n_letters)

    def elements(self) -> list:
        """All elements in canonical order: states, letters, then 0."""
        return list(self.states()) + list(self.letters()) + [ZERO]

    def size(self) -> int:
        return self.n_states + self.n_letters + 1

    def name(self, x: int) -> str:
        if x == ZERO:
            return "0"
        if self.is_state(x):
            return self.state_names[x - 1]
        return self.letter_names[x - 1 - self.n_states]

    def element_by_name(self, name: str) -> int:
        if name == "0":
            return ZERO
        if name in self.state_names:
            return 1 + self.state_names.index(name)
        if name in self.letter_names:
            return 1 + self.n_states + self.letter_names.index(name)
        raise UnknownName(f"no element named {name!r}")

    # -- the groupoid ----------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        """Groupoid product; total, lands in Q ∪ {0}."""
        n = self.n_states
        t = self._actions[y - 1 - n][x - 1] if 1 <= x <= n < y <= n + self.n_letters else None
        return ZERO if t is None else 1 + t

    def product_table(self) -> tuple:
        """The |M|×|M| table of `mul`, rows and columns indexed by element code.

        Built on first use and kept.  It is derived from the rows, so it takes
        no part in `table_key`, equality or hashing.  The rows of 0 and of
        the letters are one shared all-zero tuple.
        """
        if self._products is None:
            n, actions = self.n_states, self._actions
            zero_row = (ZERO,) * self.size()
            self._products = ((zero_row,) + tuple(
                zero_row[:1 + n] + tuple(ZERO if act[si] is None else 1 + act[si]
                                         for act in actions)
                for si in range(n)) + (zero_row,) * self.n_letters)
        return self._products

    def word(self, x: int, letter_indices: Iterable[int]) -> int:
        """Left-bracketed action of a word (sequence of letter indices)."""
        n, actions = self.n_states, self._actions
        for j in letter_indices:
            t = actions[j][x - 1] if 1 <= x <= n else None
            x = ZERO if t is None else 1 + t
        return x

    # -- per-letter structure ---------------------------------------------

    def action(self, j: int) -> tuple:
        """Image of each state under letter j (None where undefined)."""
        return self._actions[j]

    def dom(self, j: int) -> frozenset:
        return frozenset(i for i, t in enumerate(self.action(j)) if t is not None)

    def ran(self, j: int) -> frozenset:
        return frozenset(self.action(j)) - {None}

    def kills(self, j: int) -> frozenset:
        return frozenset(range(self.n_states)) - self.dom(j)

    def is_total(self) -> bool:
        return all(None not in act for act in self._actions)

    def transitions(self) -> list:
        """(state_index, letter_index, target_index) triples, sorted."""
        return [(si, lj, ti) for si, images in enumerate(zip(*self._actions))
                for lj, ti in enumerate(images) if ti is not None]

    @cached_property
    def delta(self):
        return MappingProxyType({(si, lj): ti for si, lj, ti in self.transitions()})

    # -- derived algebras --------------------------------------------------

    def drop_letter(self, j: int) -> "AutomaticAlgebra":
        names = self.letter_names[:j] + self.letter_names[j + 1:]
        delta = {(si, lj if lj < j else lj - 1): ti
                 for si, lj, ti in self.transitions() if lj != j}
        return AutomaticAlgebra(self.state_names, names, delta)

    def drop_state(self, i: int) -> "AutomaticAlgebra":
        """Remove a state that is in no letter's range, with its outgoing row."""
        if any(i in act for act in self._actions):
            raise BadParams(f"state {self.state_names[i]} is still in a range")
        names = self.state_names[:i] + self.state_names[i + 1:]
        delta = {(si if si < i else si - 1, lj): (ti if ti < i else ti - 1)
                 for si, lj, ti in self.transitions() if si != i}
        return AutomaticAlgebra(names, self.letter_names, delta)

    def component_subalgebra(self, state_indices: Sequence[int]) -> "AutomaticAlgebra":
        """Subalgebra on a union of components (keeps all letters)."""
        keep = sorted(state_indices)
        pos = {i: k for k, i in enumerate(keep)}
        delta = {}
        for si, lj, ti in self.transitions():
            if si in pos:
                if ti not in pos:
                    raise BadParams("state set is not closed under transitions")
                delta[(pos[si], lj)] = pos[ti]
        return AutomaticAlgebra([self.state_names[i] for i in keep],
                                self.letter_names, delta)

    # -- misc ---------------------------------------------------------------

    def table_key(self):
        return (self.state_names, self.letter_names, self.transitions())

    def __eq__(self, other):
        return (isinstance(other, AutomaticAlgebra)
                and (self.state_names, self.letter_names, self._actions)
                == (other.state_names, other.letter_names, other._actions))

    def __hash__(self):
        return hash((self.state_names, self.letter_names, self._actions))

    def __repr__(self):
        return (f"AutomaticAlgebra(states={list(self.state_names)}, "
                f"letters={list(self.letter_names)}, edges={len(self.transitions())})")

    def emit(self) -> str:
        """Serialize in the algebra file format (round-trips via the CLI)."""
        lines = ["states " + " ".join(self.state_names),
                 "letters " + " ".join(self.letter_names)]
        for si, lj, ti in self.transitions():
            lines.append(f"trans {self.state_names[si]} {self.letter_names[lj]} "
                         f"{self.state_names[ti]}")
        return "\n".join(lines) + "\n"


def product(M: AutomaticAlgebra, x: int, y: int) -> int:
    return M.mul(x, y)


def apply_word(M: AutomaticAlgebra, x: int, letter_indices: Iterable[int]) -> int:
    return M.word(x, letter_indices)


# ---------------------------------------------------------------------------
# catalog of named algebras
# ---------------------------------------------------------------------------

def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _cat_B():
    return AutomaticAlgebra.build(
        "qrs", "abc", [("q", "a", "r"), ("r", "b", "r"), ("r", "c", "s")])


def _cat_L():
    edges = [("q", "a", "q"), ("q", "b", "q"), ("q", "c", "q"),
             ("r", "a", "q"), ("r", "b", "r"), ("r", "c", "s"),
             ("s", "a", "s"), ("s", "b", "s"), ("s", "c", "s")]
    return AutomaticAlgebra.build("qrs", "abc", edges)


def _cat_L3star():
    edges = [("q", "a", "r"), ("q", "c", "q"),
             ("r", "a", "r"), ("r", "b", "s"), ("r", "c", "q"),
             ("s", "a", "r"), ("s", "b", "s")]
    return AutomaticAlgebra.build("qrs", "abc", edges)


def _cat_R():
    return AutomaticAlgebra.build(
        "qr", "abc", [("r", "a", "q"), ("r", "b", "r"), ("q", "c", "q")])


def _cat_F(m: int):
    if m < 0:
        raise BadParams("F takes m >= 0")
    if m + 2 > CATALOG_STATE_CAP:
        raise CapExceeded(f"F_{m} has {m + 2} states, over the catalog state cap "
                          f"{CATALOG_STATE_CAP}")
    states = ["q", "r"] + [f"s{i}" for i in range(1, m + 1)]
    edges = [("q", "a", "r")]
    if m >= 1:
        edges.append(("r", "a", "s1"))
        for i in range(1, m):
            edges.append((f"s{i}", "a", f"s{i + 1}"))
        edges.append((f"s{m}", "a", "s1"))
    return AutomaticAlgebra.build(states, ["a"], edges)


_N_EDGES = {
    0: [("q", "a", "r")],
    1: [("q", "a", "r"), ("r", "a", "r"), ("r", "b", "r")],
    2: [("q", "a", "r"), ("r", "a", "q"), ("r", "b", "r")],
    3: [("q", "a", "r"), ("r", "a", "r"), ("q", "b", "q")],
    4: [("q", "a", "r"), ("r", "a", "r"), ("q", "b", "r"), ("r", "b", "q")],
    5: [("q", "a", "r"), ("r", "a", "r"), ("r", "b", "q"), ("q", "b", "q"),
        ("q", "c", "q"), ("r", "c", "r")],
}


def _cat_N(k: int):
    if k not in _N_EDGES:
        raise BadParams("N takes an index in 0..5")
    letters = sorted({a for (_, a, _) in _N_EDGES[k]})
    return AutomaticAlgebra.build("qr", letters, _N_EDGES[k])


def _cat_C(p: int):
    if p > CATALOG_STATE_CAP:
        raise CapExceeded(f"C_{p} has {p} states, over the catalog state cap "
                          f"{CATALOG_STATE_CAP}")
    if not _is_odd_prime(p):
        raise BadParams(f"C takes an odd prime, got {p}")
    states = [str(i) for i in range(1, p + 1)]
    edges = []
    for i in range(p):
        edges.append((states[i], "b", states[(i + 1) % p]))
        edges.append((states[i], "c", states[(i - 1) % p]))
    return AutomaticAlgebra.build(states, ["b", "c"], edges)


def catalog(name: str, *params: int) -> AutomaticAlgebra:
    """Return a named algebra from the built-in catalog.

    Names: B, L, L3star, R, F(m>=0), N(0..5), C(odd prime), chain(n>=1).
    """
    zero_arg = {"B": _cat_B, "L": _cat_L, "L3star": _cat_L3star, "R": _cat_R}
    if name in zero_arg:
        if params:
            raise BadParams(f"{name} takes no parameters")
        return zero_arg[name]()
    one_arg = {"F": _cat_F, "N": _cat_N, "C": _cat_C}
    if name in one_arg:
        if len(params) != 1:
            raise BadParams(f"{name} takes exactly one integer parameter")
        return one_arg[name](params[0])
    if name == "chain":
        if len(params) != 1 or params[0] < 1:
            raise BadParams("chain takes one integer parameter n >= 1")
        from .classify import gen_chain
        return gen_chain(params[0])
    raise UnknownName(f"unknown catalog name {name!r}")


def standard_catalog() -> list:
    """The fixed desk-scale catalog sample used by test suites and reports."""
    algebras = [("B", catalog("B")), ("L", catalog("L")),
                ("L3star", catalog("L3star")), ("R", catalog("R"))]
    algebras += [(f"F{m}", catalog("F", m)) for m in range(3)]
    algebras += [(f"N{k}", catalog("N", k)) for k in range(6)]
    algebras += [("C3", catalog("C", 3)), ("C5", catalog("C", 5))]
    return algebras


def random_algebra(rng: random.Random, max_states: int = 4,
                   max_letters: int = 3) -> AutomaticAlgebra:
    """Seeded random algebra; each (state, letter) pair is undefined or uniform."""
    nq = rng.randint(1, max_states)
    ns = rng.randint(1, max_letters)
    states = [f"q{i}" for i in range(nq)]
    letters = [f"a{j}" for j in range(ns)]
    delta = {}
    for i in range(nq):
        for j in range(ns):
            t = rng.randint(0, nq)
            if t < nq:
                delta[(i, j)] = t
    return AutomaticAlgebra(states, letters, delta)
