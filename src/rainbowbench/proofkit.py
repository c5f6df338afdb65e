"""Augmenting-switch machinery over edge-coloured bipartite instances.

The engine works on SwitchState values: a rainbow matching r (with colour 0
unused, by relabelling convention), sequences of matched edges e_1..e_k and
outside edges g_1..g_k sharing B-endpoints with them, vertex pools X_i, Y_i,
and an injective colour map pi with pi(0) = 0. Seven properties must hold:

  P1  e_i lies in r and in the class pi(i).
  P2  g_i lies in one of the classes pi(0) .. pi((i)-1).
  P3  no endpoint of e_1..e_k lies in X_k or Y_k.
  P4  |X_k| = |Y_k| equals the pool-size formula s_k (strict mode only).
  P5  whenever r holds an edge of class j inside X_i x Y_i, class j also has
      an edge from x_i into the unsaturated part of B.
  P6  every w newly added to Y_i has a partner v outside X and the used
      z-vertices with vw in class pi(i-1).
  P7  if g_i lies in class pi(j), then z_i avoids X and z_1..z_j.

When these hold, each claim switch (claim1/2/3_switch) checks its premises
and makes one exchange, giving a rainbow matching one larger than r: its
witness edges and the colour chain from its start index swap in, the chain
being the strictly decreasing index sequence tracing which earlier class each
g-edge belongs to, ending at colour 0. One fresh pool N_k serves every k.

Two modes: "strict" enforces the exact pool-size formulas (meaningful only at
very large n), "relaxed" replaces every cardinality threshold by 1 so that the
machinery runs on desk-scale fixtures. Mode only affects the cardinality
checks and set truncations; the exchange algebra is identical.
"""

from __future__ import annotations

import itertools
import math
import re
from contextlib import suppress
from dataclasses import InitVar, dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import AbstractSet, Iterator, Mapping, NamedTuple

from .core import (
    ColouredEdge,
    Filled,
    Instance,
    RainbowMatching,
    Vertex,
    canonical_json,
    int_rows,
    is_rainbow,
    json_int,
    json_layout,
    json_list,
    json_value,
    make_matching,
    matching_from_rows,
    neighbourhood_along,  # unused here, but perfbench's tracer patches proofkit.neighbourhood_along
    reject_repeats,
    va,
    valid_instance_from_payload,
    vb,
)


class Mode(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class ThresholdInfeasible(Exception):
    """A strict-mode (or relaxed threshold-1) cardinality requirement cannot be met."""

    def __init__(self, formula: str, required, available) -> None:
        self.formula = formula
        self.required = required
        self.available = available
        super().__init__(f"{formula}: need {required}, have {available}")


class PigeonholeFailure(Exception):
    """No vertex satisfies the pigeonhole selection property."""


class ChainError(Exception):
    """No valid colour chain exists (a P2 violation)."""


class SwitchIntegrityError(Exception):
    """A switch produced an invalid matching; the input state was corrupt."""


# the shape of a fraction string: checked first, so Fraction never evaluates
# an exponent ("1e10000000" takes seconds) or divides by zero
_FRACTION = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


@dataclass(frozen=True)
class Epsilon:
    """Exact positive rational slack; all threshold comparisons are bit-exact."""

    value: Fraction

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"epsilon must be positive, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "Epsilon":
        """Parse "p/q" or "p"; ValueError on any other shape, which Fraction never sees."""
        if not _FRACTION.fullmatch(text.strip()):
            raise ValueError(f"eps must be a fraction string p/q or p, got {text!r}")
        return cls(Fraction(text))

    def __str__(self) -> str:
        return str(self.value)


def smallest_t(eps: Epsilon) -> int:
    """Minimal t >= 1 with 1/(2t - 1) <= eps, by exact integer arithmetic.

    With eps = p/q this is ceil((1/eps + 1)/2) = ceil((q + p)/(2p)).
    """
    p, q = eps.value.numerator, eps.value.denominator
    return max(1, -(-(q + p) // (2 * p)))


def s_k(k: int, eps: Epsilon, n: int) -> Fraction:
    """Pool-size formula 2*k*eps*n + k*(7 - 3k)/2."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return 2 * k * eps.value * n + Fraction(k * (7 - 3 * k), 2)


def size_xy_prime(k: int, eps: Epsilon, n: int) -> Fraction:
    """Candidate-pool size n/2 + (2k + 1)*eps*n + (-3k^2 + 3k + 2)/2.

    Equals s_k(k) + (1/2 + eps)*n + 1 - 2k for every k, an identity the test
    suite pins down exactly.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return Fraction(n, 2) + (2 * k + 1) * eps.value * n + Fraction(-3 * k * k + 3 * k + 2, 2)


def contradiction_threshold(eps: Epsilon) -> int:
    """Smallest n >= 1 with 2*t*eps*n + t*(7 - 3t)/2 > n, where t = smallest_t(eps).

    Exists because 2*t*eps > 1 by the choice of t; beyond this n the pool Y_t
    would have to outgrow Y itself.
    """
    t = smallest_t(eps)
    slope = 2 * t * eps.value - 1  # > 0 by choice of t
    offset = Fraction(t * (3 * t - 7), 2)
    bound = offset / slope  # need n > bound
    n = max(1, math.floor(bound) + 1)
    assert 2 * t * eps.value * n + Fraction(t * (7 - 3 * t), 2) > n
    return n


# --- the induction state --------------------------------------------------------


_Triple = tuple[int, int, int]  # a coloured edge as the engine holds it: (colour, a, b)


def _show(t: tuple[int, int, int]) -> str:
    """A triple as its ColouredEdge repr, for messages: a2b1@0."""
    return repr(ColouredEdge.of(*t))


class _Ints(NamedTuple):
    """What the engine reads of a state beyond its fields, built with the state."""

    x: frozenset[int]  # saturated A-indices
    y: frozenset[int]  # saturated B-indices
    xz: frozenset[int]  # x with z_1 .. z_k
    r_at_a: dict[int, tuple[int, int, int]]  # the r-triple at each saturated A-index
    r_at_b: dict[int, tuple[int, int, int]]  # the r-triple at each saturated B-index
    z: tuple[int, ...]  # z_1 .. z_k
    ys: tuple[int, ...]  # y_1 .. y_k


@dataclass(frozen=True)
class SwitchState:
    """Snapshot of the augmentation engine after k extension steps.

    e_seq[i-1] is e_i = x_i y_i (an edge of r) and g_seq[i-1] is g_i = z_i y_i
    with z_i outside the saturated A-side, both as (colour, a_index, b_index)
    triples. x_sets[i-1] / y_sets[i-1] are X_i / Y_i, as sets of A-indices and
    B-indices. pi[i] is the colour of e_i with pi[0] = 0. t is the step bound
    derived from eps; strict mode is meaningful only for k within it.

    Every entry point indexes by k and pi, so building a state whose
    sequences do not have k entries each, and pi k + 1, raises ValueError.
    The integer view the engine reads (_Ints, as _ints) is built with the state.
    A parent state that holds the same r object, as step_outcomes passes to
    each child it extends, lends its view of r (x, y, r_at_a, r_at_b) instead;
    without one, or with another r, the state builds its own. parent is not a
    field: it is neither stored nor compared.
    """

    inst: Instance
    r: RainbowMatching
    eps: Epsilon
    t: int
    k: int
    e_seq: tuple[tuple[int, int, int], ...]
    g_seq: tuple[tuple[int, int, int], ...]
    x_sets: tuple[frozenset[int], ...]
    y_sets: tuple[frozenset[int], ...]
    pi: tuple[int, ...]
    parent: InitVar[SwitchState | None] = None

    def __post_init__(self, parent: SwitchState | None) -> None:
        k = self.k
        lengths = tuple(map(len, (self.e_seq, self.g_seq, self.x_sets, self.y_sets, self.pi)))
        if lengths != (k, k, k, k, k + 1):
            raise ValueError(
                f"state shape does not fit k={k}: e_seq, g_seq, x_sets, y_sets and pi "
                f"have {', '.join(map(str, lengths))} entries"
            )
        if parent is not None and parent.r is self.r:
            x, y, _, r_at_a, r_at_b, _, _ = parent._ints
        else:
            triples = self.r.triples
            x = frozenset(a for _, a, _ in triples)
            y = frozenset(b for _, _, b in triples)
            r_at_a = {t[1]: t for t in triples}
            r_at_b = {t[2]: t for t in triples}
        z = tuple(a for _, a, _ in self.g_seq)
        ints = _Ints(
            x=x,
            y=y,
            xz=x.union(z),
            r_at_a=r_at_a,
            r_at_b=r_at_b,
            z=z,
            ys=tuple(b for _, _, b in self.e_seq),
        )
        object.__setattr__(self, "_ints", ints)  # past the frozen check, once per state

    def pi_index(self, colour: int) -> int | None:
        """i with pi(i) == colour, or None."""
        try:
            return self.pi.index(colour)
        except ValueError:
            return None


def _class_defect(inst: Instance, t: tuple[int, int, int]) -> str | None:
    """Why the triple (colour, a, b) is not an edge of its colour class, or None."""
    c, a, b = t
    if not 0 <= c < len(inst.classes):
        return "has a colour outside the instance"
    if (a, b) not in inst.classes[c].pairs:
        return "does not belong to its colour class"
    return None


def _require_in_class(inst: Instance, name: str, t: _Triple) -> None:
    defect = _class_defect(inst, t)
    if defect is not None:
        raise ValueError(f"{name}={_show(t)} {defect}")


def _initial_defect(inst: Instance, r: RainbowMatching) -> str | None:
    """Why initial_state rejects r for inst, or None when it accepts it."""
    if not is_rainbow(r):
        return "r is not a rainbow matching"
    for t in r.triples:
        defect = _class_defect(inst, t)
        if defect is not None:
            return f"edge {_show(t)} {defect}"
    if 0 in r.colours():
        return "colour 0 must be unused by r; relabel first"
    return None


def initial_state(inst: Instance, r: RainbowMatching, eps: Epsilon) -> SwitchState:
    """The k = 0 state for a matching that leaves colour 0 unused.

    Raises ValueError when r is not a valid rainbow matching of inst or when
    it uses colour 0 (relabel with core.free_colour_zero first).
    """
    defect = _initial_defect(inst, r)
    if defect is not None:
        raise ValueError(defect)
    return SwitchState(
        inst=inst,
        r=r,
        eps=eps,
        t=smallest_t(eps),
        k=0,
        e_seq=(),
        g_seq=(),
        x_sets=(),
        y_sets=(),
        pi=(0,),
    )


def state_violations(st: SwitchState) -> list[str]:
    """Structural checks on the entries of a state, independent of P1-P7.

    The shape (k entries per sequence, k + 1 in pi) needs no check here:
    SwitchState raises ValueError when it is built with any other.
    """
    out: list[str] = []
    k = st.k
    if st.pi[0] != 0:
        out.append(f"pi must map 0..k with pi(0)=0, got {st.pi}")
    if len(set(st.pi)) != len(st.pi):
        out.append(f"pi is not injective: {st.pi}")
    n = st.inst.n_colours
    if any(not 0 <= c < n for c in st.pi) or any(not 0 <= c < n for c in st.r.colours()):
        out.append(f"pi or r uses a colour outside the instance's 0..{n - 1}")
    ix = st._ints
    if len(set(st.e_seq)) != k:
        out.append("e_i are not pairwise distinct")
    if len(set(st.g_seq)) != k:
        out.append("g_i are not pairwise distinct")
    for i in range(1, k + 1):
        e, g = st.e_seq[i - 1], st.g_seq[i - 1]
        if e not in st.r.triples:
            out.append(f"e_{i}={_show(e)} is not an edge of r")
        if g[2] != e[2]:
            out.append(f"g_{i}={_show(g)} does not share its B-endpoint with e_{i}={_show(e)}")
        if g[1] in ix.x:
            out.append(f"z_{i}={va(g[1])!r} is saturated by r")
        if not st.x_sets[i - 1] <= ix.x:
            out.append(f"X_{i} is not a subset of the saturated A-side")
        if not st.y_sets[i - 1] <= ix.y:
            out.append(f"Y_{i} is not a subset of the saturated B-side")
    return out


# --- property verification ------------------------------------------------------

PROPERTY_NAMES = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)

    def __getitem__(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _p1(st: SwitchState, mode: Mode) -> str | None:
    """P1: e_i lies in class pi(i) (state_violations checks that it lies in r)."""
    for i, e in enumerate(st.e_seq, 1):
        if e[0] != st.pi[i] or _class_defect(st.inst, e):
            return f"e_{i}={_show(e)} not in class pi({i})={st.pi[i]}"
    return None


def _p2(st: SwitchState, mode: Mode) -> str | None:
    """P2: g_i lies in one of the classes pi(0) .. pi(i-1)."""
    for i, g in enumerate(st.g_seq, 1):
        if g[0] not in st.pi[:i] or _class_defect(st.inst, g):
            return f"g_{i}={_show(g)} not in classes pi(0..{i - 1})"
    return None


def _p3(st: SwitchState, mode: Mode) -> str | None:
    """P3: no endpoint of e_1..e_k lies in X_k or Y_k."""
    for i, (_, a, b) in enumerate(st.e_seq, 1):
        if a in st.x_sets[-1]:
            return f"x_{i}={va(a)!r} lies in X_{st.k}"
        if b in st.y_sets[-1]:
            return f"y_{i}={vb(b)!r} lies in Y_{st.k}"
    return None


def _p4(st: SwitchState, mode: Mode) -> str | None:
    """P4: |X_k| = |Y_k|, and in strict mode both equal ceil(s_k)."""
    k = st.k
    if k == 0:
        return None
    nx, ny = len(st.x_sets[-1]), len(st.y_sets[-1])
    if nx != ny:
        return f"|X_{k}|={nx} != |Y_{k}|={ny}"
    if mode is Mode.STRICT and nx != (want := math.ceil(s_k(k, st.eps, st.inst.n_colours))):
        return f"|X_{k}|={nx} != ceil(s_{k})={want}"
    return None


def _p5(st: SwitchState, mode: Mode) -> str | None:
    """P5: an r-edge of class j inside X_i x Y_i forces a class-j edge from x_i to B minus Y."""
    y = st._ints.y
    for i, (x_set, y_set, (_, xi, _)) in enumerate(zip(st.x_sets, st.y_sets, st.e_seq), 1):
        for c, a, b in st.r.triples:
            if a in x_set and b in y_set and _class_edge_at(st, c, xi, True, y) is None:
                return (
                    f"class {c} meets r in X_{i} x Y_{i} but has no edge "
                    f"from x_{i}={va(xi)!r} into B minus Y"
                )
    return None


def _p6(st: SwitchState, mode: Mode) -> str | None:
    """P6: each w in Y_i minus Y_(i-1) has a class-pi(i-1) partner outside X and z_1..z_(i-1)."""
    ix = st._ints
    prev: frozenset[int] = frozenset()
    for i, y_set in enumerate(st.y_sets, 1):
        banned = ix.x.union(ix.z[: i - 1])
        for w in sorted(y_set - prev):
            if _class_edge_at(st, st.pi[i - 1], w, False, banned) is None:
                return f"w={vb(w)!r} in Y_{i} minus Y_{i - 1} has no partner in class pi({i - 1})"
        prev = y_set
    return None


def _p7(st: SwitchState, mode: Mode) -> str | None:
    """P7: if g_i lies in class pi(j) with 1 <= j < i, z_i avoids X and z_1..z_j."""
    z = st._ints.z
    for i, (colour, zi, _) in enumerate(st.g_seq, 1):
        if colour in st.pi[1:i]:
            j = st.pi.index(colour)
            # a z_i in X is a structural violation, rejected before any property runs
            if zi in z[:j]:
                return f"z_{i}={va(zi)!r} collides with X or z_1..z_{j}"
    return None


_PROPERTY_CHECKS = (_p1, _p2, _p3, _p4, _p5, _p6, _p7)  # in PROPERTY_NAMES order
# a passed check is the same value in every report, so reports share these
_PASSED = tuple(PropertyCheck(name, True) for name in PROPERTY_NAMES)


def verify_properties(st: SwitchState, mode: Mode = Mode.RELAXED) -> PropertyReport:
    """Check P1-P7, returning one PropertyCheck per property with a concrete witness.

    Each check reports its first violation. P4 compares against the exact
    formula only in strict mode (ceiling taken, see s_k); relaxed mode only
    requires |X_k| = |Y_k|. All other properties are mode-independent.
    """
    bad = state_violations(st)
    if bad:
        raise ValueError("structurally invalid state: " + "; ".join(bad))
    witnesses = [check(st, mode) for check in _PROPERTY_CHECKS]
    checks = (
        c if w is None else PropertyCheck(c.name, False, w) for c, w in zip(_PASSED, witnesses)
    )
    return PropertyReport(tuple(checks))


def colour_chain(st: SwitchState, i: int) -> list[int]:
    """Indices j_1 > j_2 > ... > j_s = 0 tracing g-edge class memberships.

    j_1 is the pi-index of the class holding g_i, then each subsequent index
    is the pi-index of the class holding the previous g, until colour 0 is
    reached. Strict decrease guarantees termination; raises ChainError when a
    g-edge's class is not among the earlier pi values.
    """
    if not 1 <= i <= st.k:
        raise ValueError(f"need 1 <= i <= k={st.k}, got {i}")
    chain: list[int] = []
    cur = i
    while True:
        g = st.g_seq[cur - 1]
        j = st.pi_index(g[0])
        if j is None or j >= cur:
            raise ChainError(f"g_{cur}={_show(g)} lies in no earlier class; chain broken")
        chain.append(j)
        if j == 0:
            return chain
        cur = j


# --- the exchange and the three claims ------------------------------------------


def _chain_from(st: SwitchState, start: int) -> list[int]:
    """The indices a switch started at start exchanges: start and its colour
    chain down to, not including, 0; none for start 0."""
    return [start] + colour_chain(st, start)[:-1] if start else []


def _exchange(
    st: SwitchState, chain: list[int], removed: list[_Triple], added: list[_Triple]
) -> RainbowMatching:
    """r with removed taken out and added put in, one edge larger.

    Each index j of chain (see _chain_from) also exchanges e_j for g_j.
    """
    removed = [st.e_seq[j - 1] for j in chain] + removed
    added = [st.g_seq[j - 1] for j in chain] + added
    for e in removed:
        if e not in st.r.triples:
            raise SwitchIntegrityError(f"cannot remove {_show(e)}: not an edge of r")
    gone = set(removed)
    result = make_matching([t for t in st.r.triples if t not in gone] + added)
    if not is_rainbow(result) or len(result) != len(st.r) + 1:
        raise SwitchIntegrityError(
            f"exchange produced an invalid matching (size {len(result)}, expected "
            f"{len(st.r) + 1}); the state is corrupt"
        )
    return result


def _require_g(st: SwitchState, g: _Triple, claim: str) -> None:
    """The premise claim1_switch and claim2_switch share: k >= 1, and g is a
    class-pi(k) edge starting outside X and z_1..z_k."""
    if st.k < 1:
        raise ValueError(f"{claim} needs k >= 1")
    if g[0] != st.pi[st.k]:
        raise ValueError(f"g={_show(g)} is not an edge of class pi(k)={st.pi[st.k]}")
    _require_in_class(st.inst, "g", g)
    if g[1] in st._ints.xz:
        raise ValueError(f"g={_show(g)} must start outside X and z_1..z_k")


def claim1_switch(st: SwitchState, g: ColouredEdge) -> RainbowMatching:
    """Grow r by one using a class-pi(k) edge into the doubly-unsaturated region.

    Precondition: g lies in class pi(k), its A-endpoint avoids X and all z_i,
    and its B-endpoint is unsaturated. The exchange removes e_k and the chain
    e-edges and adds g_k, the chain g-edges and g.
    """
    g = g.triple
    _require_g(st, g, "claim1_switch")
    if g[2] in st._ints.y:
        raise ValueError(f"g={_show(g)} must end outside Y")
    return _exchange(st, _chain_from(st, st.k), [], [g])


def claim2_switch(
    st: SwitchState, g: ColouredEdge, e: ColouredEdge, e_bar: ColouredEdge
) -> RainbowMatching:
    """Grow r by one using a class-pi(k) edge into Y_k.

    g hits a vertex of Y_k whose r-edge is e (a colour outside the pi image);
    e_bar re-homes e's colour from x_k into the unsaturated part of B. The
    exchange removes e_k, the chain e-edges and e, and adds g_k, the chain
    g-edges, e_bar and g.
    """
    g, e, e_bar = g.triple, e.triple, e_bar.triple
    _require_g(st, g, "claim2_switch")
    k = st.k
    if g[2] not in st.y_sets[k - 1]:
        raise ValueError(f"g={_show(g)} must end in Y_{k}")
    if e not in st.r.triples or e[2] != g[2]:
        raise ValueError(f"e={_show(e)} must be the r-edge adjacent to g")
    if e[1] not in st.x_sets[k - 1]:
        raise ValueError(f"e={_show(e)} must lie between X_{k} and Y_{k}")
    if e[0] in st.pi:
        raise ValueError(f"e's colour {e[0]} must avoid the pi image")
    if e_bar[0] != e[0]:
        raise ValueError(f"e_bar colour {e_bar[0]} does not match e's colour {e[0]}")
    _require_in_class(st.inst, "e_bar", e_bar)
    if e_bar[1] != st.e_seq[k - 1][1] or e_bar[2] in st._ints.y:
        raise ValueError(f"e_bar={_show(e_bar)} must join x_{k} to B minus Y")
    return _exchange(st, _chain_from(st, k), [e], [e_bar, g])


def claim3_switch(
    st: SwitchState, f: ColouredEdge, f_bar: ColouredEdge, zw: ColouredEdge
) -> RainbowMatching:
    """Grow r by one by re-homing the colour of an r-edge f inside the candidate pools.

    zw shares f's B-endpoint w and lies in a pi-image class; which class
    determines the subcase and hence the chain start: class pi(k) (w drawn
    from the fresh pool N_k) starts the chain at k, class pi(p) with p < k
    (w in Y_{p+1} minus Y_p) starts it at p, and class 0 degenerates to the
    chainless exchange removing f and adding f_bar and zw.
    """
    f, f_bar, zw = f.triple, f_bar.triple, zw.triple
    k = st.k
    ix = st._ints
    if f not in st.r.triples:
        raise ValueError(f"f={_show(f)} must be an edge of r")
    if f[0] in st.pi:
        raise ValueError(f"f's colour {f[0]} must avoid the pi image")
    w = f[2]
    if zw[2] != w:
        raise ValueError(f"zw={_show(zw)} must share f's B-endpoint {vb(w)!r}")
    _require_in_class(st.inst, "zw", zw)
    p = st.pi_index(zw[0])
    if p is None:
        raise ValueError(
            f"subcase undeterminable: zw's colour {zw[0]} is outside the pi image"
        )
    if p == k and k >= 1:
        # fresh-pool subcase: w must avoid Y_k and all y_i
        if w in st.y_sets[k - 1] or w in ix.ys:
            raise ValueError(f"subcase undeterminable: w={vb(w)!r} not in the fresh pool shape")
    elif p >= 1:
        # increment subcase: w in Y_{p+1} \ Y_p
        if w not in st.y_sets[p]:
            raise ValueError(f"subcase undeterminable: w={vb(w)!r} not in Y_{p + 1}")
        if w in st.y_sets[p - 1]:
            raise ValueError(f"w={vb(w)!r} already in Y_{p}; zw names the wrong increment")
    # every subcase, the degenerate p = 0 included: zw starts outside X and z_1..z_p
    if zw[1] in ix.x or zw[1] in ix.z[:p]:
        raise ValueError(f"zw={_show(zw)} must start outside X and z_1..z_{p}")
    chain = _chain_from(st, p)  # a broken chain is reported before f_bar is read
    if f_bar[0] != f[0]:
        raise ValueError(f"f_bar colour {f_bar[0]} does not match f's colour {f[0]}")
    _require_in_class(st.inst, "f_bar", f_bar)
    if f_bar[1] in ix.xz or f_bar[1] == zw[1]:
        raise ValueError(f"f_bar={_show(f_bar)} must start outside X, z_1..z_k and zw's endpoint")
    if f_bar[2] in ix.y:
        raise ValueError(f"f_bar={_show(f_bar)} must end outside Y")
    return _exchange(st, chain, [f], [f_bar, zw])


# --- pool constructions ----------------------------------------------------------


def _pool_formula(st: SwitchState) -> Fraction:
    return (Fraction(1, 2) + st.eps.value) * st.inst.n_colours + 1 - 2 * st.k


def _n_required(st: SwitchState, mode: Mode) -> int:
    return 1 if mode is Mode.RELAXED else max(1, math.ceil(_pool_formula(st)))


def _fresh_pool(st: SwitchState, mode: Mode) -> dict[int, int]:
    """The fresh pool N_k of the current state, for every k, as B-index -> partner A-index.

    Saturated B-vertices outside Y_k and the used y_i with a class-pi(k)
    partner outside X and z_1..z_k, each mapped to its smallest such
    partner. Strict mode keeps the _n_required smallest B-indices.
    """
    ix, k = st._ints, st.k
    banned_b = st.y_sets[k - 1].union(ix.ys) if k >= 1 else frozenset()
    pool: dict[int, int] = {}
    for a, b in st.inst.classes[st.pi[k]].pairs:  # sorted, so the first a is the smallest
        if a not in ix.xz and b in ix.y and b not in banned_b:
            pool.setdefault(b, a)
    if mode is Mode.STRICT:
        pool = dict(sorted(pool.items())[: _n_required(st, mode)])
    return pool


def construct_Nk(st: SwitchState, mode: Mode = Mode.RELAXED) -> frozenset[Vertex]:
    """The fresh pool N_k: saturated B-vertices reachable through class pi(k), for every k.

    Qualifying vertices lie in Y minus Y_k and the used y_i (at k = 0, all of
    Y) and have a partner outside X and z_1..z_k in class pi(k). Strict mode
    truncates to ceil((1/2 + eps)*n + 1 - 2k), smallest B-indices first.
    """
    return frozenset(vb(b) for b in _fresh_pool(st, mode))


def _cover_threshold(st: SwitchState, mode: Mode) -> int:
    if mode is Mode.RELAXED:
        return 1
    return max(1, math.ceil(s_k(st.k + 1, st.eps, st.inst.n_colours)))


def _pigeonhole_ranking(
    st: SwitchState,
    x_prime: AbstractSet[int],
    y_prime: AbstractSet[int],
    mode: Mode,
) -> Iterator[tuple[int, frozenset[int], frozenset[int]]]:
    """(x*, X_next, Y_next) for every x* in x_prime whose cover reaches the mode threshold.

    Everything here is an index: x_prime, x* and X_next are A-indices,
    y_prime and Y_next B-indices. x* covers each other r-edge inside
    x_prime x y_prime whose class has an edge from x* into the unsaturated
    part of B. Largest cover first, ties by smallest A-index; X_next and
    Y_next are the A- and B-endpoints of the covered r-edges (strict mode:
    the threshold-many smallest A-indices), so Y_next is the
    r-neighbourhood of X_next.
    """
    y = st._ints.y
    box = [t for t in st.r.triples if t[1] in x_prime and t[2] in y_prime]
    # A-endpoints of class-j edges escaping into B \ Y, per relevant colour
    escape: dict[int, set[int]] = {}
    for c, _, _ in box:
        if c not in escape:
            escape[c] = {a for a, b in st.inst.classes[c].pairs if b not in y and a in x_prime}
    threshold = _cover_threshold(st, mode)
    scored: list[tuple[int, int, list[tuple[int, int, int]]]] = []
    for x_star in x_prime:
        covered = [t for t in box if t[1] != x_star and x_star in escape[t[0]]]
        if len(covered) >= threshold:
            scored.append((-len(covered), x_star, covered))
    scored.sort(key=lambda s: (s[0], s[1]))
    for _, x_star, covered in scored:
        covered.sort(key=lambda t: t[1])
        if mode is Mode.STRICT:
            covered = covered[:threshold]
        yield x_star, frozenset(a for _, a, _ in covered), frozenset(b for _, _, b in covered)


def pigeonhole_select(
    st: SwitchState,
    x_prime: frozenset[Vertex],
    y_prime: frozenset[Vertex],
    mode: Mode = Mode.RELAXED,
) -> tuple[Vertex, frozenset[Vertex], frozenset[Vertex]]:
    """Select (x_next, X_next, Y_next) from the candidate pools.

    Every colour whose r-edge lies inside X_next x Y_next must keep an edge
    from x_next into the unsaturated part of B. The winner is the x* whose
    "covered" set is largest (ties: smallest A-index); X_next is that set
    minus x* (strict mode: truncated to exactly ceil(s_{k+1}) smallest
    indices) and Y_next its r-neighbourhood. Raises PigeonholeFailure when no
    vertex reaches the mode threshold.
    """
    x_idx = {v.index for v in x_prime}
    y_idx = {v.index for v in y_prime}
    for x_star, X_next, Y_next in _pigeonhole_ranking(st, x_idx, y_idx, mode):
        return va(x_star), frozenset(va(a) for a in X_next), frozenset(vb(b) for b in Y_next)
    threshold = _cover_threshold(st, mode)
    raise PigeonholeFailure(f"no vertex covers {threshold} pool members")


# --- the extension step ----------------------------------------------------------


@dataclass(frozen=True)
class Extended:
    state: SwitchState


@dataclass(frozen=True)
class Augmented:
    matching: RainbowMatching


StepOutcome = Extended | Augmented


def _class_edge_at(
    st: SwitchState, colour: int, v: int, at_a: bool, banned: AbstractSet[int]
) -> tuple[int, int] | None:
    """Smallest pair of the class at index v whose other endpoint is not banned.

    v is an A-index when at_a, else a B-index.
    """
    for a, b in st.inst.classes[colour].pairs:
        here, there = (a, b) if at_a else (b, a)
        if here == v and there not in banned:
            return a, b
    return None


def _zw_for(st: SwitchState, w: int, n_pool: Mapping[int, int]) -> tuple[int, int, int] | None:
    """The partner edge into a pool B-index w, by the two-case rule, as a triple.

    Fresh-pool case (w in N_k): through class pi(k), from the partner n_pool
    holds. Increment case (w in Y_k): for the smallest i with w in Y_i,
    through class pi(i-1), from outside X and z_1..z_{i-1}. N_k avoids Y_k,
    so at most one case applies.
    """
    ix, k = st._ints, st.k
    if w in n_pool:
        return st.pi[k], n_pool[w], w
    if k == 0 or w not in st.y_sets[k - 1]:
        return None
    i = next(i for i in range(1, k + 1) if w in st.y_sets[i - 1])
    colour = st.pi[i - 1]
    pair = _class_edge_at(st, colour, w, False, ix.x.union(ix.z[: i - 1]))
    return None if pair is None else (colour, *pair)


def _claim12_augment(st: SwitchState) -> RainbowMatching | None:
    """Search the current class pi(k) for a claim-1 or claim-2 witness edge."""
    inst, k, ix = st.inst, st.k, st._ints
    if k == 0:
        for a, b in inst.classes[0].pairs:
            if a not in ix.x and b not in ix.y:
                return make_matching(st.r.triples + ((0, a, b),))
        return None
    colour_k = st.pi[k]
    pairs = inst.classes[colour_k].pairs
    for a, b in pairs:
        if a not in ix.xz and b not in ix.y:
            return _exchange(st, _chain_from(st, k), [], [(colour_k, a, b)])
    x_k = st.e_seq[k - 1][1]
    for a, b in pairs:
        if a in ix.xz or b not in st.y_sets[k - 1]:
            continue
        e = ix.r_at_b.get(b)
        if e is None or e[1] not in st.x_sets[k - 1] or e[0] in st.pi:
            continue  # hand-built states may lack the paired structure; not a witness
        e_bar = _class_edge_at(st, e[0], x_k, True, ix.y)
        if e_bar is None:
            continue
        return _exchange(st, _chain_from(st, k), [e], [(e[0], *e_bar), (colour_k, a, b)])
    return None


def _claim3_augment(
    st: SwitchState,
    n_pool: Mapping[int, int],
    x_prime: AbstractSet[int],
    y_prime: AbstractSet[int],
) -> RainbowMatching | None:
    """Search the pool box for a claim-3 witness triple (f, f_bar, zw)."""
    ix = st._ints
    for c, x, w in st.r.triples:
        if x not in x_prime or w not in y_prime:
            continue
        if c in st.pi:
            continue  # cannot happen when P3 holds; skip defensively
        zw = _zw_for(st, w, n_pool)
        if zw is None:
            continue
        for a, b in st.inst.classes[c].pairs:
            if a not in ix.xz and a != zw[1] and b not in ix.y:
                chain = _chain_from(st, st.pi_index(zw[0]))
                return _exchange(st, chain, [(c, x, w)], [(c, a, b), zw])
    return None


def step_outcomes(st: SwitchState, mode: Mode = Mode.RELAXED) -> Iterator[StepOutcome]:
    """The outcomes of one engine step, best first.

    Yields one Augmented when a claim switch applies: witness search order is
    claim1_switch, claim2_switch, then claim3_switch, with lexicographic edge
    order inside each. Otherwise yields one Extended (k + 1) per viable
    pigeonhole choice, in ranking order, each built only when requested; it
    yields nothing when no choice is viable. Raises ThresholdInfeasible when
    the fresh pool is smaller than the mode threshold, which is expected for
    strict mode at desk-scale n.
    """
    augmented = _claim12_augment(st)
    if augmented is not None:
        yield Augmented(augmented)
        return
    n_pool = _fresh_pool(st, mode)
    required = _n_required(st, mode)
    if len(n_pool) < required:
        raise ThresholdInfeasible(
            f"pool size (1/2 + eps)*n + 1 - 2k = {_pool_formula(st)}", required, len(n_pool)
        )
    ix = st._ints
    y_prime = st.y_sets[st.k - 1].union(n_pool) if st.k >= 1 else n_pool.keys()
    x_prime = {ix.r_at_b[b][1] for b in y_prime if b in ix.r_at_b}
    augmented = _claim3_augment(st, n_pool, x_prime, y_prime)
    if augmented is not None:
        yield Augmented(augmented)
        return
    for x_star, X_next, Y_next in _pigeonhole_ranking(st, x_prime, y_prime, mode):
        e_next = ix.r_at_a.get(x_star)
        if e_next is None or e_next[0] in st.pi:
            continue
        g_next = _zw_for(st, e_next[2], n_pool)
        if g_next is None:
            continue
        yield Extended(
            SwitchState(
                st.inst,
                st.r,
                st.eps,
                st.t,
                k=st.k + 1,
                e_seq=st.e_seq + (e_next,),
                g_seq=st.g_seq + (g_next,),
                x_sets=st.x_sets + (X_next,),
                y_sets=st.y_sets + (Y_next,),
                pi=st.pi + (e_next[0],),
                parent=st,
            )
        )


def extend_state(st: SwitchState, mode: Mode = Mode.RELAXED) -> StepOutcome:
    """One step of the engine: the first outcome of step_outcomes.

    Raises ThresholdInfeasible when the pool is smaller than the mode
    threshold and PigeonholeFailure when no selection vertex qualifies; both
    are expected for strict mode at desk-scale n.
    """
    for outcome in step_outcomes(st, mode):
        return outcome
    raise PigeonholeFailure("no extension candidate at the current state")


# --- traces ----------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """A recorded engine run: the base state and every step outcome in order."""

    mode: Mode
    base: SwitchState
    steps: tuple[StepOutcome, ...]


def run_switch_trace(
    inst: Instance,
    r: RainbowMatching,
    eps: Epsilon,
    mode: Mode = Mode.RELAXED,
    max_steps: int = 8,
) -> Trace:
    """Drive extend_state from the base state until augmentation, a dead end,
    or max_steps extensions, recording every outcome."""
    base = initial_state(inst, r, eps)
    st = base
    steps: list[StepOutcome] = []
    for _ in range(max_steps):
        try:
            out = extend_state(st, mode)
        except (ThresholdInfeasible, PigeonholeFailure):
            break
        steps.append(out)
        if isinstance(out, Augmented):
            break
        st = out.state
    return Trace(mode, base, tuple(steps))


@lru_cache(maxsize=16)
def _canonical_eps(text: str) -> Epsilon | None:
    """Epsilon.parse(text) if text is str(eps.value), else None; cached, as traces repeat eps."""
    with suppress(ValueError):
        if str(eps := Epsilon.parse(text)) == text:
            return eps
    return None


def _eps_from_json(value: object) -> Epsilon:
    """eps as trace_to_json writes it, str(eps.value); ValueError on anything else."""
    if type(value) is str and (eps := _canonical_eps(value)) is not None:
        return eps
    raise ValueError(f"eps must be a canonical fraction string, got {value!r}")


def _json_index(value: object) -> int:
    """A decoded JSON vertex index: a non-negative integer, nothing coerced."""
    index = json_int(value)
    if index < 0:
        raise ValueError(f"vertex index must be non-negative, got {index}")
    return index


def _read_state(inst: Instance, payload: object, base: SwitchState | None) -> SwitchState | None:
    """The state of payload when one whole-array pass finds every field well-formed, else None.

    Well-formed is what _state_from_payload's field-by-field reading accepts,
    with colours non-negative too: arrays of [colour, a, b] integer rows for
    r, e_seq and g_seq, arrays of integer arrays for x_sets and y_sets,
    integers for pi, t and k, no row of r and no index of a pool repeated.
    eps is read last, once, and raises as that reading would, since every
    field read before it has passed. An r equal to base's takes base's
    matching, and with it base's view of r (SwitchState's parent).
    """
    if type(payload) is not dict:
        return None
    names = ("r", "e_seq", "g_seq", "x_sets", "y_sets", "pi")
    r, e_seq, g_seq, x_sets, y_sets, pi = arrays = tuple(map(payload.get, names))
    t, k = payload.get("t"), payload.get("k")
    if not (set(map(type, arrays)) == {list} and type(t) is int and type(k) is int):
        return None
    rows, pools = r + e_seq + g_seq, x_sets + y_sets
    if not (set(map(type, rows + pools)) <= {list} and set(map(len, rows)) <= {3}):
        return None
    values = list(itertools.chain.from_iterable(rows + pools)) + pi
    if not (set(map(type, values)) <= {int} and min(values, default=0) >= 0):
        return None
    edges = list(map(tuple, rows))
    sets = list(map(frozenset, pools))
    if list(map(len, sets)) != list(map(len, pools)):
        return None
    n_r, n_e, n_x = len(r), len(e_seq), len(x_sets)
    r_rows = tuple(edges[:n_r])
    if base is not None and r_rows == base.r.triples:
        matching = base.r
    elif len(matching := make_matching(r_rows)) < n_r:  # a repeated row
        return None
    return SwitchState(
        inst=inst,
        r=matching,
        eps=_eps_from_json(payload["eps"]),
        t=t,
        k=k,
        e_seq=tuple(edges[n_r:n_r + n_e]),
        g_seq=tuple(edges[n_r + n_e:]),
        x_sets=tuple(sets[:n_x]),
        y_sets=tuple(sets[n_x:]),
        pi=tuple(pi),
        parent=base,
    )


def _state_from_payload(
    inst: Instance, payload: dict, base: SwitchState | None = None
) -> SwitchState:
    """A SwitchState from a decoded state object, as _state_json writes it.

    All nine fields are tested in one whole-array pass first (_read_state).
    Only when that pass fails is the state read again field by field and
    value by value, through _json_index and reject_repeats, to name the first
    field and value at fault. Raises ValueError, KeyError or TypeError
    on a malformed state, which verify_trace_json reports as such. A state
    whose r equals base's shares base's matching and its view of r.
    """
    state = _read_state(inst, payload, base)
    if state is not None:
        return state

    def edges(rows) -> tuple[tuple[int, int, int], ...]:
        return tuple((c, _json_index(a), _json_index(b)) for c, a, b in int_rows(rows, 3))

    def index_sets(name: str) -> tuple[frozenset[int], ...]:
        sets = []
        for i, values in enumerate(json_list(payload[name])):
            indices = [_json_index(v) for v in json_list(values)]
            reject_repeats(indices, f"{name}[{i}]: repeated index")  # malformed, not a smaller set
            sets.append(frozenset(indices))
        return tuple(sets)

    return SwitchState(
        inst=inst,
        r=matching_from_rows(payload["r"]),
        eps=_eps_from_json(payload["eps"]),
        t=json_int(payload["t"]),
        k=json_int(payload["k"]),
        e_seq=edges(payload["e_seq"]),
        g_seq=edges(payload["g_seq"]),
        x_sets=index_sets("x_sets"),
        y_sets=index_sets("y_sets"),
        pi=tuple(map(json_int, json_list(payload["pi"]))),
    )


def _report_payload(report: PropertyReport) -> dict:
    return {c.name: {"ok": c.ok, "witness": c.witness} for c in report.checks}


@lru_cache(maxsize=1024)
def _state_layout(r_len: int, k: int, x_lens: tuple[int, ...], y_lens: tuple[int, ...]) -> str:
    """The layout of a state with r_len r-rows, k steps and pools of x_lens and y_lens sizes.

    Its slots take the state's fields in order (rows as [colour, a, b], pools
    sorted); eps, which str(Fraction) writes in digits, "-" and "/" alone,
    fills a JSON string as it is.
    """
    shape = {
        "r": (3,) * r_len,
        "eps": '"%s"',
        "t": "%d",
        "k": "%d",
        "e_seq": (3,) * k,
        "g_seq": (3,) * k,
        "x_sets": x_lens,
        "y_sets": y_lens,
        "pi": k + 1,
    }
    return json_layout(shape)


def _state_json(st: SwitchState) -> Filled:
    """The state as trace_to_json writes it: filled into the layout of its shape.

    Every value but eps must be an int, tested over the whole state at once
    ("%d" would print True as 1): anything else, a bool t say, raises TypeError.
    """
    x_sets, y_sets = list(map(sorted, st.x_sets)), list(map(sorted, st.y_sets))
    ints = (
        *itertools.chain.from_iterable(st.r.triples), st.t, st.k,
        *itertools.chain.from_iterable(st.e_seq), *itertools.chain.from_iterable(st.g_seq),
        *itertools.chain.from_iterable(x_sets), *itertools.chain.from_iterable(y_sets), *st.pi,
    )
    if not set(map(type, ints)) <= {int}:
        raise TypeError("canonical JSON writes a state of integers only")
    rows = len(st.r.triples)
    layout = _state_layout(rows, st.k, tuple(map(len, x_sets)), tuple(map(len, y_sets)))
    return Filled(layout, (*ints[:3 * rows], st.eps.value, *ints[3 * rows:]))


# a passing report is the same JSON in every step
_PASSED_JSON = Filled(
    json_layout({name: {"ok": "true", "witness": "null"} for name in PROPERTY_NAMES}), ()
)


def _report_json(report: PropertyReport) -> Filled | dict:
    return _PASSED_JSON if report.checks == _PASSED else _report_payload(report)


def trace_to_json(trace: Trace) -> str:
    """Serialize a trace with full state snapshots and property reports.

    The instance goes into the payload as the Instance itself, which
    canonical_json writes straight from its pair tuples. Each state is filled
    from its own tuples into the layout of its shape (_state_json), and a
    report whose seven checks pass is one fixed layout; a failing report is
    written value by value. The bytes are json.dumps(payload, indent=2) + "\n"
    of the payload dict either way. An instance or state holding a value that
    is not an int (a bool, say) raises TypeError.
    """
    steps = []
    for out in trace.steps:
        if isinstance(out, Extended):
            steps.append(
                {
                    "kind": "extended",
                    "state": _state_json(out.state),
                    "properties": _report_json(verify_properties(out.state, trace.mode)),
                }
            )
        else:
            steps.append(
                {
                    "kind": "augmented",
                    "matching": list(map(list, out.matching.triples)),
                }
            )
    payload = {
        "mode": trace.mode.value,
        "instance": trace.base.inst,
        "base_state": _state_json(trace.base),
        "steps": steps,
    }
    return canonical_json(payload)


def _records(recorded: object, report: PropertyReport) -> bool:
    """True iff recorded is report as trace_to_json writes it, JSON types included.

    == alone takes 1 or 1.0 for true and 0 for false, so each "ok" must also be a bool.
    """
    return recorded == _report_payload(report) and all(
        type(check["ok"]) is bool for check in recorded.values()
    )


def _step_from_payload(
    inst: Instance, step, base: SwitchState | None = None
) -> tuple[StepOutcome, object]:
    """The step's outcome, and for an extended step its recorded property report.

    An extended step's state is read with base (see _state_from_payload).
    """
    if not isinstance(step, dict):
        raise TypeError(f"expected an object, got {type(step).__name__}")
    kind = step.get("kind")
    if kind == "extended":
        out = Extended(_state_from_payload(inst, step["state"], base))
        if not isinstance(recorded := step["properties"], dict):
            raise TypeError(f"properties must be an object, got {type(recorded).__name__}")
        return out, recorded
    if kind == "augmented":
        return Augmented(matching_from_rows(step["matching"])), None
    raise ValueError(f"unknown kind {kind!r}")


def _chain_breaks(base: SwitchState, prev: SwitchState, st: SwitchState) -> list[str]:
    """How st fails to be one extension of prev within the run rooted at base."""
    out = []
    if st.k != prev.k + 1:
        out.append(f"k = {st.k}, expected {prev.k + 1}")
    for name in ("e_seq", "g_seq", "x_sets", "y_sets", "pi"):
        now, before = getattr(st, name), getattr(prev, name)
        if len(now) != len(before) + 1 or now[:-1] != before:
            out.append(f"{name} does not extend the previous state's by one entry")
    for name in ("r", "eps", "t"):
        if getattr(st, name) != getattr(base, name):
            out.append(f"{name} differs from the base state's")
    return out


def verify_trace_json(text: str) -> list[str]:
    """Independently re-check a serialized trace as one chain of engine steps.

    The base must be a k = 0 state, and every step must be the outcome
    extend_state derives from the previous state. Each extended step must
    also continue the previous state (k rises by one; e_seq, g_seq, x_sets,
    y_sets and pi each gain one entry; r, eps and t stay the base's), satisfy
    P1-P7, and record the property report verify_properties gives, JSON
    types included (an "ok" of 1 is not true). An augmented step must end the
    trace with a valid rainbow matching one larger than the base's r. Returns
    failure strings naming the step index and the violated property, link or
    matching defect; empty means the trace verifies. Raises ValueError on
    malformed JSON, including JSON nested too deeply, an invalid instance,
    structurally invalid states and an extended step without a properties
    object. The instance is read and validated together
    (core.valid_instance_from_payload): in one whole-array pass when it is as
    trace_to_json writes it, and by instance_from_payload and
    validate_instance otherwise, so a fault is worded as they word it. Each
    state is read in one whole-array pass too (_state_from_payload), and a
    step whose r equals the base's shares the base's matching and its view.
    """
    try:
        payload = json_value(text)
        mode = Mode(payload["mode"])
        inst = valid_instance_from_payload(payload["instance"])
        base = _state_from_payload(inst, payload["base_state"])
        base_report = verify_properties(base, mode)
        try:
            steps = json_list(payload["steps"])
        except ValueError as exc:
            raise ValueError(f"steps: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed trace JSON: {exc}") from exc
    failures = [
        f"base state: {name} fails ({base_report[name].witness})" for name in base_report.failed()
    ]
    if base.k != 0:
        failures.append(f"base state: k = {base.k}, expected 0")
    defect = _initial_defect(inst, base.r)
    if defect is not None:
        failures.append(f"base state: {defect}")
    if base.t != smallest_t(base.eps):
        failures.append(f"base state: t = {base.t}, expected {smallest_t(base.eps)}")
    prev: SwitchState | Augmented = base
    for idx, step in enumerate(steps):
        try:
            out, recorded = _step_from_payload(inst, step, base)
            report = verify_properties(out.state, mode) if isinstance(out, Extended) else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace JSON: step {idx}: {exc}") from exc
        if isinstance(prev, Augmented):
            failures.append(f"step {idx}: follows an augmentation, which ends a run")
            continue
        try:
            if extend_state(prev, mode) != out:
                what = "extended state" if isinstance(out, Extended) else "augmented matching"
                failures.append(f"step {idx}: {what} differs from the engine's step")
        except (ThresholdInfeasible, PigeonholeFailure, ChainError, SwitchIntegrityError,
                ValueError) as exc:
            failures.append(f"step {idx}: the engine cannot step from the previous state ({exc})")
        if isinstance(out, Extended):
            links = _chain_breaks(base, prev, out.state)
            failures += [f"step {idx}: chain broken: {link}" for link in links]
            failures += [f"step {idx}: {n} fails ({report[n].witness})" for n in report.failed()]
            if not _records(recorded, report):
                failures.append(
                    f"step {idx}: recorded property report differs from the checked one"
                )
            prev = out.state
            continue
        prev = out
        if not is_rainbow(out.matching):
            failures.append(f"step {idx}: augmented matching is not rainbow")
        elif len(out.matching) != len(base.r) + 1:
            failures.append(
                f"step {idx}: augmented matching has size {len(out.matching)}, "
                f"expected {len(base.r) + 1}"
            )
        else:
            for t in out.matching.triples:
                if _class_defect(inst, t) is not None:
                    failures.append(f"step {idx}: augmented edge {_show(t)} not in its class")
                    break
    return failures
