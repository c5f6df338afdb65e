"""Extremal and randomized instance generators."""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from functools import lru_cache
from math import ceil, log

from .core import ColourClass, Instance, make_instance
from .latin import gen_cyclic, latin_to_instance


def gen_drisko(n: int) -> Instance:
    """Sharpness witness family: 2n-2 size-n matchings on a 2n-cycle, optimum n-1.

    The classes are n-1 copies of M0 = {a_i b_i} followed by n-1 copies of
    M1 = {a_i b_{(i+1) mod n}}; their union is the 2n-cycle a_0 b_0 a_1 b_1 ...
    The only perfect matchings of that cycle are M0 and M1, and neither bundle
    has n distinct colours, so no rainbow matching of size n exists.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m0 = [(i, i) for i in range(n)]
    m1 = [(i, (i + 1) % n) for i in range(n)]
    classes = [m0] * (n - 1) + [m1] * (n - 1)
    return make_instance(classes, a_size=n, b_size=n)


def gen_no_transversal(n: int) -> Instance:
    """Witness that class size n does not force a size-n rainbow matching.

    Realized as the coloured-graph form of the cyclic square of even order n,
    which has no transversal. Raises ValueError for odd n (the property is not
    guaranteed there).
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"need an even n >= 2, got {n}")
    return latin_to_instance(gen_cyclic(n))


def gen_random_instance(
    n: int,
    m: int,
    a_size: int | None = None,
    b_size: int | None = None,
    seed: int = 0,
) -> Instance:
    """n independent uniform random matchings of size m in an a_size x b_size universe.

    Each class is sampled by choosing m A-vertices, m B-vertices, and a random
    bijection between them. Universe bounds default to n + m per side, which
    leaves room for unsaturated vertices on both sides. Deterministic per seed:
    the draws are those of random.Random(seed).sample, restated by _sample and
    pinned by a test, so a seed and its negation give the same instance.
    Classes are built canonical, as make_instance would build them, without its checks.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if a_size is None:
        a_size = n + m
    if b_size is None:
        b_size = n + m
    if m > min(a_size, b_size):
        raise ValueError(f"class size {m} infeasible in a {a_size}x{b_size} universe")
    bits = random.Random(seed).getrandbits
    classes: list[ColourClass] = []
    for _ in range(n):
        a_verts = _sorted_sample(bits, a_size, m)
        b_verts = _sample(bits, b_size, m)  # random set in random order = random bijection
        # distinct ascending A-ends in range(a_size), B-ends in range(b_size): make_instance's pairs
        classes.append(ColourClass(tuple(zip(a_verts, b_verts))))
    return Instance(tuple(classes), a_size, b_size)


def _sample(bits: Callable[[int], int], n: int, k: int) -> list[int]:
    """rng.sample(range(n), k), drawing the same words in the same order; bits = rng.getrandbits.

    CPython's two branches are kept: a shrinking pool while an n-list is smaller
    than a k-set, else redraws against the indices already chosen. CPython's
    threshold 21 + (4 ** ceil(log(3k, 4)) if k > 5 else 0) is never below 21,
    so n <= 21 (every sweep draw) is tested first, without the log. Each
    index below size is drawn as _randbelow_with_getrandbits draws it:
    bits(size.bit_length()), redrawn while it is >= size. The pool branch reads
    each size and width from a plan cached per shape (n, k): they depend on
    nothing else, so the words drawn, and the indices, are the same.
    """
    result: list[int] = []
    if n <= 21 or k > 5 and n <= 21 + 4 ** ceil(log(3 * k, 4)):
        start, plan = _pool_plan(n, k)
        pool = list(start)
        for size, w in plan:
            j = bits(w)
            while j >= size:
                j = bits(w)
            result.append(pool[j])
            pool[j] = pool[size - 1]  # the unchosen stay in pool[:size - 1]
        return result
    w = n.bit_length()
    selected: set[int] = set()
    for _ in range(k):
        j = bits(w)
        while j >= n or j in selected:
            j = bits(w)
        selected.add(j)
        result.append(j)
    return result


def _sorted_sample(bits: Callable[[int], int], n: int, k: int) -> Sequence[int]:
    """sorted(_sample(bits, n, k)), drawing the same words; a full side (k == n) keeps every vertex.

    CPython samples every k == n from its pool (past 21, 4 ** ceil(log(3n, 4)) >= 3n), so a
    full side draws the cached plan's words, each redrawn while >= size, with no pool or sort.
    """
    if k != n:
        return sorted(_sample(bits, n, k))
    for size, w in _pool_plan(n, n)[1]:
        while bits(w) >= size:
            pass
    return range(n)


@lru_cache(maxsize=64)
def _pool_plan(n: int, k: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(range(n) as a tuple, (size, size.bit_length()) for each of the k pool draws)."""
    return tuple(range(n)), tuple((size, size.bit_length()) for size in range(n, n - k, -1))
