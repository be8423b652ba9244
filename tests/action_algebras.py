"""A hypothesis strategy for the per-component action index tests.

Each algebra is two or three blocks of states.  Every block draws a small
pool of actions, all translations of Z_n, all permutations, or all partial
maps, and each letter takes one action from the pool or is undefined on
the block.  So letters share an action on one block and differ on another,
and a class of letters with one action often has more than one member.
"""

from hypothesis import strategies as st

from autodual.algebras import AutomaticAlgebra


@st.composite
def shared_action_algebras(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    n_letters = draw(st.integers(2, 5))
    delta, offset = {}, 0
    for size in sizes:
        kind = draw(st.sampled_from(("translation", "permutation", "partial")))
        if kind == "translation":
            action = st.integers(0, size - 1).map(
                lambda k, n=size: [(i + k) % n for i in range(n)])
        elif kind == "permutation":
            action = st.permutations(range(size))
        else:
            action = st.lists(st.none() | st.integers(0, size - 1),
                              min_size=size, max_size=size)
        pool = draw(st.lists(action, min_size=1, max_size=3))
        for j in range(n_letters):
            pick = draw(st.integers(-1, len(pool) - 1))    # -1: undefined here
            if pick >= 0:
                for i, t in enumerate(pool[pick]):
                    if t is not None:
                        delta[(offset + i, j)] = offset + t
        offset += size
    return AutomaticAlgebra([f"q{i}" for i in range(offset)],
                            [f"a{j}" for j in range(n_letters)], delta)
