"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Zero-tolerance criteria fail on the first deviation; sweep failures are
archived as Instance JSON under acceptance_failures/ before the assert fires.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from bruteforce import naive_max_rainbow
from stateforge import random_forge
from rainbowbench.core import instance_to_json, is_rainbow
from rainbowbench.gen import gen_drisko, gen_no_transversal, gen_random_instance
from rainbowbench.oracle import (
    SearchBudget,
    estimate_mu,
    max_rainbow,
)
from rainbowbench.proofkit import (
    Epsilon,
    Extended,
    claim1_switch,
    claim2_switch,
    claim3_switch,
    extend_state,
    s_k,
    size_xy_prime,
    verify_properties,
)
from rainbowbench.solver import solve

ARCHIVE = Path(__file__).resolve().parent.parent / "acceptance_failures"


def _archive(name: str, inst) -> None:
    ARCHIVE.mkdir(exist_ok=True)
    (ARCHIVE / name).write_text(instance_to_json(inst))


def _report(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_01_exact_f2():
    start = time.perf_counter()
    at_two = estimate_mu(2, 0, 2, "exhaustive")
    at_three = estimate_mu(2, 0, 3, "exhaustive")
    elapsed = time.perf_counter() - start
    assert at_two.counterexample_found
    assert len(max_rainbow(at_two.counterexample).best) < 2
    assert not at_three.counterexample_found
    assert elapsed < 60
    _report(1, f"f(2) = 3 (counterexample at m=2, none among {at_three.instances_checked} "
               f"canonical instances at m=3) in {elapsed:.2f}s")


def test_criterion_02_drisko_sharpness():
    start = time.perf_counter()
    for n in (2, 3, 4, 5, 6):
        report = max_rainbow(gen_drisko(n))
        assert report.optimal
        assert len(report.best) == n - 1, f"drisko {n}: got {len(report.best)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(2, f"optimum n-1 for n in 2..6 in {elapsed:.2f}s")


def test_criterion_03_no_transversal_witnesses():
    start = time.perf_counter()
    measured = {}
    for n in (2, 4, 6):
        report = max_rainbow(gen_no_transversal(n))
        assert report.optimal
        assert len(report.best) <= n - 1, f"cyclic {n}: got {len(report.best)}"
        measured[n] = len(report.best)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(3, f"even cyclic squares have no transversal; measured {measured} in {elapsed:.2f}s")


def test_criterion_04_heavy_class_sweep():
    # unlimited budget: the oracle stage must never truncate, so a miss really
    # is a counterexample for that n and lands in the archive
    start = time.perf_counter()
    budget = SearchBudget.unlimited()
    for n in (3, 4, 5):
        m = math.ceil(3 * n / 2) + 1
        rng = random.Random(90_000 + n)
        failures = 0
        for trial in range(100_000):
            seed = rng.getrandbits(48)
            inst = gen_random_instance(n, m, seed=seed)
            result = solve(inst, target=n, budget=budget, oracle_fallback=True)
            if len(result.matching) < n:
                failures += 1
                _archive(f"sweep_n{n}_m{m}_seed{seed}.json", inst)
        assert failures == 0, f"n={n}, m={m}: {failures} archived counterexamples"
    elapsed = time.perf_counter() - start
    assert elapsed < 30 * 60
    _report(4, f"3 x 10^5 solves at m = ceil(3n/2)+1 all reached size n in {elapsed:.0f}s")


def test_criterion_05_mu_bound_sweep():
    start = time.perf_counter()
    for n, ell in ((3, 1), (4, 1), (4, 2)):
        m = math.ceil(Fraction(ell + 2, ell + 1) * n)
        report = estimate_mu(n, ell, m, "randomized", trials=10_000, seed=1_000 * n + ell)
        if report.counterexample is not None:
            _archive(f"mu_n{n}_ell{ell}_m{m}.json", report.counterexample)
        assert not report.counterexample_found, f"mu({n},{ell}) <= {m} violated"
    elapsed = time.perf_counter() - start
    _report(5, f"mu sweeps (3,1),(4,1),(4,2) clean over 10^4 trials each in {elapsed:.0f}s")


def test_criterion_06_formula_identities():
    rng = random.Random(606)
    checked = 0
    for _ in range(100):
        eps = Epsilon(Fraction(rng.randint(1, 50), rng.randint(1, 200)))
        n = rng.randint(1, 10**6)
        for k in range(11):
            lhs = size_xy_prime(k, eps, n)
            rhs = s_k(k, eps, n) + (Fraction(1, 2) + eps.value) * n + 1 - 2 * k
            assert lhs == rhs
            shrink = Fraction(n, 2) - (2 * k + 1) * eps.value * n + Fraction(3 * k * k - k - 2, 2)
            assert s_k(k + 1, eps, n) == (Fraction(1, 2) + eps.value) * n + 1 - shrink
            checked += 1
    _report(6, f"both exact-rational identities hold for {checked} (k, eps, n) triples")


def test_criterion_07_switch_validity():
    start = time.perf_counter()
    rng = random.Random(707)
    subcases = ("pool", "increment", "degenerate")
    for claim in (1, 2, 3):
        for trial in range(10_000):
            if claim == 1:
                forge = random_forge(rng)
                g = forge.plant_claim1()
                forge.add_distractors(rng.randint(0, 4))
                st = forge.freeze()
                out = claim1_switch(st, g)
            elif claim == 2:
                forge = random_forge(rng, min_pool=1)
                g, e, e_bar = forge.plant_claim2()
                forge.add_distractors(rng.randint(0, 4))
                st = forge.freeze()
                out = claim2_switch(st, g, e, e_bar)
            else:
                forge = random_forge(rng, min_pool=1)
                f, f_bar, zw = forge.plant_claim3(subcases[trial % 3])
                forge.add_distractors(rng.randint(0, 4))
                st = forge.freeze()
                out = claim3_switch(st, f, f_bar, zw)
            assert is_rainbow(out), f"claim {claim} trial {trial}"
            assert len(out) == len(st.r) + 1, f"claim {claim} trial {trial}"
    elapsed = time.perf_counter() - start
    _report(7, f"3 x 10^4 planted switches all valid and one larger in {elapsed:.0f}s")


def test_criterion_08_extension_preserves_properties():
    rng = random.Random(808)
    extended = 0
    while extended < 1000:
        forge = random_forge(rng, k_range=(0, 3))
        forge.plant_extension()
        forge.add_distractors(rng.randint(0, 4))
        st = forge.freeze()
        out = extend_state(st)
        if isinstance(out, Extended):
            extended += 1
            report = verify_properties(out.state)
            assert not report.failed(), report.failed()
    _report(8, "1000 extension steps all preserve P1-P7")


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(909)
    for trial in range(1000):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        inst = gen_random_instance(n, m, seed=rng.getrandbits(48))
        fast = len(max_rainbow(inst).best)
        slow = len(naive_max_rainbow(inst).best)
        assert fast == slow, f"trial {trial}: search {fast} != enumeration {slow}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(9, f"branch-and-bound agrees with exhaustive enumeration on 1000 instances "
               f"in {elapsed:.1f}s")


def test_criterion_10_many_matchings_guarantee():
    start = time.perf_counter()
    for n in (2, 3, 4):
        rng = random.Random(10_000 + n)
        for trial in range(1000):
            seed = rng.getrandbits(48)
            inst = gen_random_instance(2 * n - 1, n, a_size=n, b_size=n, seed=seed)
            size = len(max_rainbow(inst).best)
            if size < n:
                _archive(f"guarantee_n{n}_seed{seed}.json", inst)
            assert size == n, f"n={n} trial {trial}: optimum {size}"
    elapsed = time.perf_counter() - start
    _report(10, f"2n-1 size-n matchings on n+n vertices always reach n "
                f"(3 x 10^3 trials) in {elapsed:.0f}s")
