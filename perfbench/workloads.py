"""The four seeded workloads.

A workload's constructor is its set-up: it builds every input that lives
outside the timed loop. run(i) is one timed item, a call into the program's
public functions; check(i, output) is the benchmark's own verdict on it.
Every call goes through a module attribute (rb.solver.solve, not rb.solve) so
the tracer can wrap it. Inputs depend only on the seed and the item index.
See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import random

from checks import certify_problem, class_pairs, sweep_problem, trace_problem

# Item instance seeds: seed * SEED_STRIDE + index, so runs at different seeds
# draw disjoint instance streams.
SEED_STRIDE = 1 << 32


class Workload:
    name: str
    rate: float  # items per second on the reference host (2 CPUs); sizes fixed-count runs
    fixed_count = False  # True: an untraced run does a fixed number of items, not --seconds
    pass_items: int | None = None  # items per pass, when a pass is the natural window

    def label(self, i: int) -> str | None:
        """The witness of item i, for per-witness counts."""
        return None


class SweepHeavy(Workload):
    """Criterion-04 regime: n = 3, 4, 5 in turn, m = ceil(3n/2) + 1, default universe."""

    name = "sweep-heavy"
    rate = 2400.0

    def __init__(self, rb, seed: int, n_items: int | None, tiny: bool) -> None:
        self.rb = rb
        self.seed = seed
        self.n_items = n_items

    @staticmethod
    def size(i: int) -> tuple[int, int]:
        n = 3 + i % 3
        return n, math.ceil(3 * n / 2) + 1

    def run(self, i: int):
        n, m = self.size(i)
        inst = self.rb.gen.gen_random_instance(n, m, seed=self.seed * SEED_STRIDE + i)
        return inst, self.rb.solver.solve(inst, target=n, workers=1)

    def check(self, i: int, out) -> str | None:
        inst, result = out
        return sweep_problem(inst, result, self.size(i)[0])


def tight_instance(rb, seed: int, i: int):
    return rb.gen.gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed * SEED_STRIDE + i)


class SweepTight(Workload):
    """n = 8 classes of size 9 in a 9 x 9 universe: greedy, augment and oracle all fire."""

    name = "sweep-tight"
    rate = 330.0

    def __init__(self, rb, seed: int, n_items: int | None, tiny: bool) -> None:
        self.rb = rb
        self.seed = seed
        self.n_items = n_items
        self.budget = rb.oracle.SearchBudget.nodes(100_000)

    def run(self, i: int):
        inst = tight_instance(self.rb, self.seed, i)
        return inst, self.rb.solver.solve(inst, target=8, budget=self.budget, workers=1)

    def check(self, i: int, out) -> str | None:
        inst, result = out
        return sweep_problem(inst, result, 8)


def relabelled(rb, inst, rng: random.Random):
    """The instance under a random colour permutation and vertex relabelling on both sides."""
    a_map = list(range(inst.a_size))
    b_map = list(range(inst.b_size))
    rng.shuffle(a_map)
    rng.shuffle(b_map)
    classes = [sorted((a_map[a], b_map[b]) for a, b in pairs) for pairs in class_pairs(inst)]
    rng.shuffle(classes)
    return rb.core.make_instance(classes, a_size=inst.a_size, b_size=inst.b_size)


class Certify(Workload):
    """Certified optima of the Drisko and even-cyclic witnesses, one pass per relabelling."""

    name = "certify"
    fixed_count = True
    # (label, family, order); the optimum of every witness is order - 1
    WITNESSES = [
        ("drisko5", "drisko", 5),
        ("drisko6", "drisko", 6),
        ("drisko7", "drisko", 7),
        ("cyclic8", "cyclic", 8),
        ("cyclic10", "cyclic", 10),
    ]
    TINY_WITNESSES = ["drisko5", "drisko6", "cyclic8"]
    rate = len(WITNESSES) / 4.0  # one pass takes about 4 s on the reference host

    def __init__(self, rb, seed: int, n_items: int | None, tiny: bool) -> None:
        self.rb = rb
        witnesses = [w for w in self.WITNESSES if not tiny or w[0] in self.TINY_WITNESSES]
        passes = max(1, math.ceil((n_items or 1) / len(witnesses)))
        rng = random.Random(seed)
        bases = [
            (label, family, order, self.witness(family, order))
            for label, family, order in witnesses
        ]
        self.items = []
        for _ in range(passes):
            for label, family, order, base in bases:
                inst = relabelled(rb, base, rng)
                self.items.append((label, family, order - 1, inst, class_pairs(inst)))
        self.n_items = len(self.items)
        self.pass_items = len(witnesses)
        self.budget = rb.oracle.SearchBudget.unlimited()

    def witness(self, family: str, order: int):
        if family == "drisko":
            return self.rb.gen.gen_drisko(order)
        return self.rb.gen.gen_no_transversal(order)

    def label(self, i: int) -> str:
        return self.items[i][0]

    def family(self, i: int) -> str:
        return self.items[i][1]

    def run(self, i: int):
        return self.rb.oracle.max_rainbow(self.items[i][3], self.budget, workers=1)

    def check(self, i: int, report) -> str | None:
        _, _, optimum, _, pairs = self.items[i]
        return certify_problem(pairs, report, optimum)


class Trace(Workload):
    """Switch-engine traces from greedy starts that fall short on tight instances."""

    name = "trace"
    rate = 370.0
    POOL = 400
    TINY_POOL = 20

    def __init__(self, rb, seed: int, n_items: int | None, tiny: bool) -> None:
        self.rb = rb
        self.n_items = n_items
        self.eps = rb.proofkit.Epsilon.parse("1")
        self.mode = rb.proofkit.Mode.RELAXED
        size = self.TINY_POOL if tiny else self.POOL
        self.pool = []
        j = 0
        while len(self.pool) < size:
            inst = tight_instance(rb, seed, j)
            j += 1
            r = rb.solver.greedy_rainbow(inst, 0)
            if len(r) < 8:
                inst0, r0, _ = rb.core.free_colour_zero(inst, r)
                self.pool.append((inst0, r0, class_pairs(inst0)))

    def run(self, i: int):
        inst, r, _ = self.pool[i % len(self.pool)]
        pk = self.rb.proofkit
        trace = pk.run_switch_trace(inst, r, self.eps, self.mode, max_steps=8)
        return trace, pk.verify_trace_json(pk.trace_to_json(trace))

    def check(self, i: int, out) -> str | None:
        _, r, pairs = self.pool[i % len(self.pool)]
        trace, failures = out
        return trace_problem(pairs, r, trace, failures)


WORKLOADS = {cls.name: cls for cls in (SweepHeavy, SweepTight, Certify, Trace)}
