"""Randomized construction of relaxed-mode switch states for the property harness.

The forge lays out a canonical skeleton: r matches a_c to b_c with colour c for
c = 1..n-1, the pi image is a random colour subset, z-vertices are fresh
A-indices, and the nested Y-pools draw from non-pi colours. Support edges are
added so that P1-P7 all hold, then claim witnesses or pigeonhole escape edges
can be planted before freezing the instance.
"""

from __future__ import annotations

import random

from rainbowbench.core import ColouredEdge, make_instance, make_matching
from rainbowbench.proofkit import Epsilon, SwitchState, smallest_t


class StateForge:
    def __init__(
        self,
        rng: random.Random,
        n: int,
        k: int,
        pool_sizes: list[int],
        chain_src: list[int] | None = None,
        eps: str = "1",
    ):
        """n colours, depth k, |Y_i \\ Y_{i-1}| = pool_sizes[i-1] (len k).

        chain_src[i-1] < i fixes which earlier pi-index holds g_i (random when
        None). Needs n - 1 - k >= sum(pool_sizes) + spare non-pi colours.
        """
        assert len(pool_sizes) == k
        self.rng = rng
        self.n = n
        self.k = k
        self.eps = eps
        self._next_a = n + k  # z_i occupy n .. n+k-1
        self._next_b = n
        # class edge pools, colour -> set of pairs
        self.class_pairs: list[set[tuple[int, int]]] = [set() for _ in range(n)]
        # r: colour c on (a_c, b_c) for c = 1..n-1
        self.r_triples = [(c, c, c) for c in range(1, n)]
        for c, a, b in self.r_triples:
            self.class_pairs[c].add((a, b))
        # pi: injective, pi[0] = 0, images drawn from 1..n-1
        images = rng.sample(range(1, n), k)
        self.pi = [0] + images
        # e_i = r-edge of colour pi(i); z_i = a-index n - 1 + i... keep n + i - 1
        self.e_seq = [(self.pi[i], self.pi[i], self.pi[i]) for i in range(1, k + 1)]
        self.z_index = [n + i for i in range(k)]  # z_1 .. z_k
        # chain structure: g_i lies in class pi(c_i) with c_i < i
        if chain_src is None:
            chain_src = [rng.randrange(0, i) for i in range(1, k + 1)]
        assert all(0 <= chain_src[i - 1] < i for i in range(1, k + 1))
        self.chain_src = chain_src
        self.g_seq = []
        for i in range(1, k + 1):
            colour = self.pi[self.chain_src[i - 1]]
            a = self.z_index[i - 1]
            b = self.pi[i]  # y_i = b_{pi(i)}
            self.class_pairs[colour].add((a, b))
            self.g_seq.append((colour, a, b))
        # nested pools from non-pi colours
        free_colours = [c for c in range(1, n) if c not in self.pi]
        rng.shuffle(free_colours)
        need = sum(pool_sizes)
        assert need <= len(free_colours), "not enough non-pi colours for the pools"
        self.increments: list[list[int]] = []  # colour lists per step
        at = 0
        for size in pool_sizes:
            self.increments.append(sorted(free_colours[at : at + size]))
            at += size
        self.spare_colours = sorted(free_colours[at:])
        self.y_sets: list[set[int]] = []  # b-indices, cumulative
        acc: set[int] = set()
        for inc in self.increments:
            acc = acc | set(inc)
            self.y_sets.append(set(acc))
        # P6 support: each increment vertex gets a fresh partner in class pi(i-1)
        self.p6_edge: dict[int, ColouredEdge] = {}  # b-index -> support edge
        for i in range(1, k + 1):
            colour = self.pi[i - 1]
            for b in self.increments[i - 1]:
                a = self.fresh_a()
                self.class_pairs[colour].add((a, b))
                self.p6_edge[b] = ColouredEdge.of(colour, a, b)
        # P5 support: box colour c in Y_i needs an escape from x_i = a_{pi(i)}
        self.p5_edge: dict[tuple[int, int], ColouredEdge] = {}  # (i, colour) -> edge
        for i in range(1, k + 1):
            xi = self.pi[i]
            for c in sorted(self.y_sets[i - 1]):
                b = self.fresh_b()
                self.class_pairs[c].add((xi, b))
                self.p5_edge[(i, c)] = ColouredEdge.of(c, xi, b)
        # optional N-pool witnesses (colour -> zw edge), added on demand
        self.pool_edge: dict[int, ColouredEdge] = {}

    # -- allocation ----------------------------------------------------------

    def fresh_a(self) -> int:
        self._next_a += 1
        return self._next_a - 1

    def fresh_b(self) -> int:
        self._next_b += 1
        return self._next_b - 1

    def add_edge(self, colour: int, a: int, b: int) -> ColouredEdge:
        if any(ea == a or eb == b for ea, eb in self.class_pairs[colour]):
            raise ValueError(f"edge ({a},{b}) conflicts inside class {colour}")
        self.class_pairs[colour].add((a, b))
        return ColouredEdge.of(colour, a, b)

    # -- pools and witnesses --------------------------------------------------

    def add_pool_witness(self, colour: int | None = None) -> ColouredEdge:
        """Make b_colour a member of the fresh pool via a class-pi(k) edge."""
        if colour is None:
            candidates = [c for c in self.spare_colours if c not in self.pool_edge]
            colour = candidates[0]
        zw = self.add_edge(self.pi[self.k], self.fresh_a(), colour)
        self.pool_edge[colour] = zw
        return zw

    def plant_claim1(self) -> ColouredEdge:
        """Class-pi(k) edge between fresh vertices on both sides."""
        return self.add_edge(self.pi[self.k], self.fresh_a(), self.fresh_b())

    def plant_claim2(self) -> tuple[ColouredEdge, ColouredEdge, ColouredEdge]:
        """(g, e, e_bar) with g hitting a random Y_k vertex."""
        assert self.y_sets[self.k - 1], "claim2_switch needs a nonempty Y_k"
        c = self.rng.choice(sorted(self.y_sets[self.k - 1]))
        g = self.add_edge(self.pi[self.k], self.fresh_a(), c)
        e = ColouredEdge.of(c, c, c)
        e_bar = self.p5_edge[(self.k, c)]
        return g, e, e_bar

    def plant_claim3(self, subcase: str) -> tuple[ColouredEdge, ColouredEdge, ColouredEdge]:
        """(f, f_bar, zw) for subcase "pool", "increment" or "degenerate"."""
        if subcase == "pool":
            zw = self.add_pool_witness()
            c = zw.b.index
        elif subcase == "degenerate":
            assert self.increments[0], "degenerate subcase needs a Y_1 increment"
            c = self.rng.choice(self.increments[0])
            zw = self.p6_edge[c]
        elif subcase == "increment":
            steps = [i for i in range(1, self.k + 1) if self.increments[i - 1]]
            assert steps, "increment subcase needs a nonempty increment"
            i = self.rng.choice(steps)
            c = self.rng.choice(self.increments[i - 1])
            zw = self.p6_edge[c]
        else:
            raise ValueError(subcase)
        f = ColouredEdge.of(c, c, c)
        f_bar = self.add_edge(c, self.fresh_a(), self.fresh_b())
        return f, f_bar, zw

    def plant_extension(self) -> int:
        """Escape edges so the pigeonhole selects a common vertex; returns its colour.

        Ensures the fresh pool plus Y_k spans at least two colours (the selected
        vertex cannot cover itself), then picks a box colour c* and adds an
        (a_{c*}, fresh) escape edge to every other box colour's class.
        """
        if not self.pool_edge:
            self.add_pool_witness()
        while len(self.y_sets[self.k - 1] if self.k >= 1 else set()) + len(self.pool_edge) < 2:
            self.add_pool_witness()
        box = sorted(self.y_sets[self.k - 1] if self.k >= 1 else set()) + sorted(self.pool_edge)
        c_star = self.rng.choice(box)
        for c in box:
            if c != c_star:
                self.add_edge(c, c_star, self.fresh_b())
        return c_star

    def add_escapes(self, count: int) -> None:
        """Up to count extra escape edges (a_c, fresh) in the class of another box colour.

        Call after plant_extension: each edge lets a_c cover one more pool
        member, so several vertices reach the pigeonhole threshold and the
        extension step has more than one viable choice. Conflicting pairs are
        skipped.
        """
        box = sorted(self.y_sets[self.k - 1] if self.k >= 1 else set()) + sorted(self.pool_edge)
        for _ in range(count if len(box) >= 2 else 0):
            c, colour = self.rng.sample(box, 2)
            try:
                self.add_edge(colour, c, self.fresh_b())
            except ValueError:
                continue

    def add_distractors(self, count: int) -> None:
        """Inert extra edges: saturated-to-saturated pairs in arbitrary classes.

        Both endpoints stay inside the r-saturated region, so no claim premise,
        pool membership, pigeonhole escape set or property trigger can change.
        Call after planting; conflicting pairs are silently skipped, so planted
        structure always survives.
        """
        saturated = list(range(1, self.n))
        for _ in range(count):
            colour = self.rng.randrange(self.n)
            a = self.rng.choice(saturated)
            b = self.rng.choice(saturated)
            if any(ea == a or eb == b for ea, eb in self.class_pairs[colour]):
                continue  # keep the class a matching
            self.class_pairs[colour].add((a, b))

    # -- freezing --------------------------------------------------------------

    def freeze(self) -> SwitchState:
        inst = make_instance(
            [sorted(pairs) for pairs in self.class_pairs],
            a_size=self._next_a,
            b_size=self._next_b,
        )
        eps = Epsilon.parse(self.eps)
        return SwitchState(
            inst=inst,
            r=make_matching(self.r_triples),
            eps=eps,
            t=smallest_t(eps),
            k=self.k,
            e_seq=tuple(self.e_seq),
            g_seq=tuple(self.g_seq),
            x_sets=tuple(frozenset(s) for s in self.y_sets),
            y_sets=tuple(frozenset(s) for s in self.y_sets),
            pi=tuple(self.pi),
        )


def random_forge(
    rng: random.Random,
    k_range: tuple[int, int] = (1, 3),
    min_pool: int = 0,
    spare: int = 2,
) -> StateForge:
    """A random valid forge: depth from k_range, pool increments of size >= min_pool.

    Distractors are not added here; plant witnesses first, then call
    add_distractors yourself.
    """
    k = rng.randint(*k_range)
    pool_sizes = [rng.randint(min_pool, 2) for _ in range(k)]
    n = k + sum(pool_sizes) + spare + rng.randint(2, 4)
    return StateForge(rng, n, k, pool_sizes)
