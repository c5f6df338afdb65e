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

When these hold, three exchange operations (claim1/2/3_switch) each turn a
witness edge into a rainbow matching one larger than r, by walking the colour
chain: the strictly decreasing index sequence tracing which earlier class each
g-edge belongs to, ending at colour 0.

Two modes: "strict" enforces the exact pool-size formulas (meaningful only at
very large n), "relaxed" replaces every cardinality threshold by 1 so that the
machinery runs on desk-scale fixtures. Mode only affects the cardinality
checks and set truncations; the exchange algebra is identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Iterator, NamedTuple, Sequence

from .core import (
    ColouredEdge,
    Instance,
    RainbowMatching,
    Vertex,
    instance_from_json,
    instance_to_json,
    int_rows,
    is_rainbow,
    json_int,
    make_matching,
    matching_from_json,
    matching_rows,
    neighbourhood_along,  # unused here, but perfbench's tracer patches proofkit.neighbourhood_along
    saturated_sets,
    va,
    validate_instance,
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


@dataclass(frozen=True)
class Epsilon:
    """Exact positive rational slack; all threshold comparisons are bit-exact."""

    value: Fraction

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"epsilon must be positive, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "Epsilon":
        """Parse "p/q" or "p"."""
        return cls(Fraction(text.strip()))

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


class _Ints(NamedTuple):
    """A state's integer view, built once per state: all the engine step reads of it."""

    x: frozenset[int]  # saturated A-indices
    y: frozenset[int]  # saturated B-indices
    xz: frozenset[int]  # x with z_1 .. z_k
    r_at_a: dict[int, tuple[int, int, int]]  # the r-triple at each saturated A-index
    r_at_b: dict[int, tuple[int, int, int]]  # the r-triple at each saturated B-index
    z: tuple[int, ...]  # z_1 .. z_k
    ys: tuple[int, ...]  # y_1 .. y_k
    x_sets: tuple[frozenset[int], ...]  # X_1 .. X_k
    y_sets: tuple[frozenset[int], ...]  # Y_1 .. Y_k


@dataclass(frozen=True)
class SwitchState:
    """Snapshot of the augmentation engine after k extension steps.

    e_seq[i-1] is e_i = x_i y_i (an edge of r), g_seq[i-1] is g_i = z_i y_i
    with z_i outside the saturated A-side, x_sets[i-1] / y_sets[i-1] are X_i /
    Y_i, and pi[i] is the colour of e_i with pi[0] = 0. t is the step bound
    derived from eps; strict mode is meaningful only for k within it.
    """

    inst: Instance
    r: RainbowMatching
    eps: Epsilon
    t: int
    k: int
    e_seq: tuple[ColouredEdge, ...]
    g_seq: tuple[ColouredEdge, ...]
    x_sets: tuple[frozenset[Vertex], ...]
    y_sets: tuple[frozenset[Vertex], ...]
    pi: tuple[int, ...]

    # -- derived views ------------------------------------------------------

    def saturated(self) -> tuple[frozenset[Vertex], frozenset[Vertex]]:
        return self._saturated

    @cached_property
    def _saturated(self) -> tuple[frozenset[Vertex], frozenset[Vertex]]:
        # computed once per state; frozen dataclasses still allow this write
        return saturated_sets(self.r)

    @cached_property
    def _ints(self) -> _Ints:
        triples = self.r.triples
        x = frozenset(a for _, a, _ in triples)
        z = tuple(g.a.index for g in self.g_seq)
        return _Ints(
            x=x,
            y=frozenset(b for _, _, b in triples),
            xz=x.union(z),
            r_at_a={t[1]: t for t in triples},
            r_at_b={t[2]: t for t in triples},
            z=z,
            ys=tuple(e.b.index for e in self.e_seq),
            x_sets=tuple(frozenset(v.index for v in s) for s in self.x_sets),
            y_sets=tuple(frozenset(v.index for v in s) for s in self.y_sets),
        )

    def x_of(self, i: int) -> Vertex:
        """x_i, the A-endpoint of e_i (1-based)."""
        return self.e_seq[i - 1].a

    def y_of(self, i: int) -> Vertex:
        """y_i, the shared B-endpoint of e_i and g_i (1-based)."""
        return self.e_seq[i - 1].b

    def zs(self, upto: int) -> frozenset[Vertex]:
        """{z_1 .. z_upto}."""
        return frozenset(self.g_seq[i].a for i in range(upto))

    def pi_index(self, colour: int) -> int | None:
        """i with pi(i) == colour, or None."""
        try:
            return self.pi.index(colour)
        except ValueError:
            return None


def _initial_defect(inst: Instance, r: RainbowMatching) -> str | None:
    """Why initial_state rejects r for inst, or None when it accepts it."""
    if not is_rainbow(r):
        return "r is not a rainbow matching"
    for c, a, b in r.triples:
        if not 0 <= c < inst.n_colours:
            return f"edge {ColouredEdge.of(c, a, b)!r} has a colour outside the instance"
        if (a, b) not in inst.classes[c].pairs:
            return f"edge {ColouredEdge.of(c, a, b)!r} does not belong to its colour class"
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
    """Structural checks on the sequence shapes, independent of P1-P7."""
    out: list[str] = []
    k = st.k
    if not (len(st.e_seq) == len(st.g_seq) == len(st.x_sets) == len(st.y_sets) == k):
        out.append(f"sequence lengths do not match k={k}")
        return out
    if len(st.pi) != k + 1 or st.pi[0] != 0:
        out.append(f"pi must map 0..k with pi(0)=0, got {st.pi}")
    if len(set(st.pi)) != len(st.pi):
        out.append(f"pi is not injective: {st.pi}")
    n = st.inst.n_colours
    if any(not 0 <= c < n for c in st.pi) or any(not 0 <= c < n for c in st.r.colours()):
        out.append(f"pi or r uses a colour outside the instance's 0..{n - 1}")
    X, Y = st.saturated()
    if len(set(st.e_seq)) != k:
        out.append("e_i are not pairwise distinct")
    if len(set(st.g_seq)) != k:
        out.append("g_i are not pairwise distinct")
    for i in range(1, k + 1):
        e, g = st.e_seq[i - 1], st.g_seq[i - 1]
        if e not in st.r:
            out.append(f"e_{i}={e!r} is not an edge of r")
        if g.b != e.b:
            out.append(f"g_{i}={g!r} does not share its B-endpoint with e_{i}={e!r}")
        if g.a in X:
            out.append(f"z_{i}={g.a!r} is saturated by r")
        if not st.x_sets[i - 1] <= X:
            out.append(f"X_{i} is not a subset of the saturated A-side")
        if not st.y_sets[i - 1] <= Y:
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

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)

    def __getitem__(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_properties(st: SwitchState, mode: Mode = Mode.RELAXED) -> PropertyReport:
    """Check P1-P7, returning one PropertyCheck per property with a concrete witness.

    P4 compares against the exact formula only in strict mode (ceiling taken,
    see s_k); relaxed mode only requires |X_k| = |Y_k|. All other properties
    are mode-independent.
    """
    bad = state_violations(st)
    if bad:
        raise ValueError("structurally invalid state: " + "; ".join(bad))
    inst, k = st.inst, st.k
    X, _ = st.saturated()
    ix = st._ints
    n = inst.n_colours

    # P1: e_i in r and in class pi(i)
    p1_ok, p1_w = True, None
    for i in range(1, k + 1):
        e = st.e_seq[i - 1]
        if e.colour != st.pi[i] or e.edge.pair not in inst.classes[st.pi[i]].pairs:
            p1_ok, p1_w = False, f"e_{i}={e!r} not in class pi({i})={st.pi[i]}"
            break

    # P2: g_i in the union of classes pi(0)..pi(i-1)
    p2_ok, p2_w = True, None
    for i in range(1, k + 1):
        g = st.g_seq[i - 1]
        prior = set(st.pi[:i])
        if g.colour not in prior or g.edge.pair not in inst.classes[g.colour].pairs:
            p2_ok, p2_w = False, f"g_{i}={g!r} not in classes pi(0..{i - 1})"
            break

    # P3: endpoints of e_1..e_k avoid X_k and Y_k
    p3_ok, p3_w = True, None
    if k >= 1:
        Xk, Yk = st.x_sets[k - 1], st.y_sets[k - 1]
        for i in range(1, k + 1):
            e = st.e_seq[i - 1]
            if e.a in Xk:
                p3_ok, p3_w = False, f"x_{i}={e.a!r} lies in X_{k}"
                break
            if e.b in Yk:
                p3_ok, p3_w = False, f"y_{i}={e.b!r} lies in Y_{k}"
                break

    # P4: |X_k| = |Y_k| (= ceil(s_k) in strict mode)
    p4_ok, p4_w = True, None
    if k >= 1:
        nx, ny = len(st.x_sets[k - 1]), len(st.y_sets[k - 1])
        if nx != ny:
            p4_ok, p4_w = False, f"|X_{k}|={nx} != |Y_{k}|={ny}"
        elif mode is Mode.STRICT:
            want = math.ceil(s_k(k, st.eps, n))
            if nx != want:
                p4_ok, p4_w = False, f"|X_{k}|={nx} != ceil(s_{k})={want}"

    # P5: r-edge of class j inside X_i x Y_i forces a class-j edge from x_i to B \ Y
    p5_ok, p5_w = True, None
    for i in range(1, k + 1):
        if not p5_ok:
            break
        Xi, Yi = ix.x_sets[i - 1], ix.y_sets[i - 1]
        xi = st.x_of(i)
        for c, a, b in st.r.triples:
            if a in Xi and b in Yi:
                if _class_edge_at(st, c, xi.index, True, ix.y) is None:
                    p5_ok, p5_w = (
                        False,
                        f"class {c} meets r in X_{i} x Y_{i} but has no edge "
                        f"from x_{i}={xi!r} into B minus Y",
                    )
                    break

    # P6: each w in Y_i \ Y_{i-1} has v outside X u {z_1..z_{i-1}} with vw in class pi(i-1)
    p6_ok, p6_w = True, None
    for i in range(1, k + 1):
        if not p6_ok:
            break
        prev = ix.y_sets[i - 2] if i >= 2 else frozenset()
        banned = ix.x.union(ix.z[: i - 1])
        for w in sorted(ix.y_sets[i - 1] - prev):
            if _class_edge_at(st, st.pi[i - 1], w, False, banned) is None:
                p6_ok, p6_w = (
                    False,
                    f"w={vb(w)!r} in Y_{i} minus Y_{i - 1} has no partner in class pi({i - 1})",
                )
                break

    # P7: g_i in class pi(j) (j >= 1) forces z_i outside X u {z_1..z_j}
    p7_ok, p7_w = True, None
    for i in range(1, k + 1):
        if not p7_ok:
            break
        g = st.g_seq[i - 1]
        for j in range(1, i):
            if g.colour == st.pi[j]:
                zi = g.a
                if zi in X or zi in st.zs(j):
                    p7_ok, p7_w = False, f"z_{i}={zi!r} collides with X or z_1..z_{j}"
                break

    checks = (
        PropertyCheck("P1", p1_ok, p1_w),
        PropertyCheck("P2", p2_ok, p2_w),
        PropertyCheck("P3", p3_ok, p3_w),
        PropertyCheck("P4", p4_ok, p4_w),
        PropertyCheck("P5", p5_ok, p5_w),
        PropertyCheck("P6", p6_ok, p6_w),
        PropertyCheck("P7", p7_ok, p7_w),
    )
    return PropertyReport(checks)


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
        j = st.pi_index(g.colour)
        if j is None or j >= cur:
            raise ChainError(f"g_{cur}={g!r} lies in no earlier class; chain broken")
        chain.append(j)
        if j == 0:
            return chain
        cur = j


# --- the three exchange operations ----------------------------------------------


def _chain_members(st: SwitchState, start: int) -> tuple[list[ColouredEdge], list[ColouredEdge]]:
    """Removed e-edges and added g-edges for the chain rooted at index `start`."""
    chain = colour_chain(st, start)
    removed = [st.e_seq[start - 1]] + [st.e_seq[j - 1] for j in chain[:-1]]
    added = [st.g_seq[start - 1]] + [st.g_seq[j - 1] for j in chain[:-1]]
    return removed, added


def _apply_exchange(
    st: SwitchState, removed: Sequence[ColouredEdge], added: Sequence[ColouredEdge]
) -> RainbowMatching:
    for e in removed:
        if e not in st.r:
            raise SwitchIntegrityError(f"cannot remove {e!r}: not an edge of r")
    gone = {e.triple for e in removed}
    result = make_matching([t for t in st.r.triples if t not in gone] + [g.triple for g in added])
    if not is_rainbow(result) or len(result) != len(st.r) + 1:
        raise SwitchIntegrityError(
            f"exchange produced an invalid matching (size {len(result)}, expected "
            f"{len(st.r) + 1}); the state is corrupt"
        )
    return result


def claim1_switch(st: SwitchState, g: ColouredEdge) -> RainbowMatching:
    """Grow r by one using a class-pi(k) edge into the doubly-unsaturated region.

    Precondition: g lies in class pi(k), its A-endpoint avoids X and all z_i,
    and its B-endpoint is unsaturated. The exchange removes e_k and the chain
    e-edges and adds g_k, the chain g-edges and g.
    """
    k = st.k
    if k < 1:
        raise ValueError("claim1_switch needs k >= 1")
    ix = st._ints
    if g.colour != st.pi[k] or g.edge.pair not in st.inst.classes[g.colour].pairs:
        raise ValueError(f"g={g!r} is not an edge of class pi(k)={st.pi[k]}")
    if g.a.index in ix.xz:
        raise ValueError(f"g={g!r} must start outside X and z_1..z_k")
    if g.b.index in ix.y:
        raise ValueError(f"g={g!r} must end outside Y")
    removed, added = _chain_members(st, k)
    return _apply_exchange(st, removed, added + [g])


def claim2_switch(
    st: SwitchState, g: ColouredEdge, e: ColouredEdge, e_bar: ColouredEdge
) -> RainbowMatching:
    """Grow r by one using a class-pi(k) edge into Y_k.

    g hits a vertex of Y_k whose r-edge is e (a colour outside the pi image);
    e_bar re-homes e's colour from x_k into the unsaturated part of B. The
    exchange removes e_k, the chain e-edges and e, and adds g_k, the chain
    g-edges, e_bar and g.
    """
    k = st.k
    if k < 1:
        raise ValueError("claim2_switch needs k >= 1")
    ix = st._ints
    if g.colour != st.pi[k] or g.edge.pair not in st.inst.classes[g.colour].pairs:
        raise ValueError(f"g={g!r} is not an edge of class pi(k)={st.pi[k]}")
    if g.a.index in ix.xz:
        raise ValueError(f"g={g!r} must start outside X and z_1..z_k")
    if g.b.index not in ix.y_sets[k - 1]:
        raise ValueError(f"g={g!r} must end in Y_{k}")
    if e not in st.r or e.b != g.b:
        raise ValueError(f"e={e!r} must be the r-edge adjacent to g")
    if e.a.index not in ix.x_sets[k - 1]:
        raise ValueError(f"e={e!r} must lie between X_{k} and Y_{k}")
    if e.colour in st.pi:
        raise ValueError(f"e's colour {e.colour} must avoid the pi image")
    if e_bar.colour != e.colour:
        raise ValueError(f"e_bar colour {e_bar.colour} does not match e's colour {e.colour}")
    if e_bar.edge.pair not in st.inst.classes[e_bar.colour].pairs:
        raise ValueError(f"e_bar={e_bar!r} is not an edge of its class")
    if e_bar.a != st.x_of(k) or e_bar.b.index in ix.y:
        raise ValueError(f"e_bar={e_bar!r} must join x_{k} to B minus Y")
    removed, added = _chain_members(st, k)
    return _apply_exchange(st, removed + [e], added + [e_bar, g])


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
    k = st.k
    ix = st._ints
    if f not in st.r:
        raise ValueError(f"f={f!r} must be an edge of r")
    if f.colour in st.pi:
        raise ValueError(f"f's colour {f.colour} must avoid the pi image")
    if zw.b != f.b:
        raise ValueError(f"zw={zw!r} must share f's B-endpoint {f.b!r}")
    if zw.edge.pair not in st.inst.classes[zw.colour].pairs:
        raise ValueError(f"zw={zw!r} is not an edge of its class")
    p = st.pi_index(zw.colour)
    if p is None:
        raise ValueError(
            f"subcase undeterminable: zw's colour {zw.colour} is outside the pi image"
        )
    w, z_a = f.b, zw.a.index
    if p == k and k >= 1:
        # fresh-pool subcase: w must avoid Y_k and all y_i, zw must start outside X u z's
        if w.index in ix.y_sets[k - 1] or w.index in ix.ys:
            raise ValueError(f"subcase undeterminable: w={w!r} not in the fresh pool shape")
        if z_a in ix.xz:
            raise ValueError(f"zw={zw!r} must start outside X and z_1..z_k")
        removed, added = _chain_members(st, k)
    elif p == 0:
        # degenerate: zw lies in class 0, chainless exchange
        if z_a in ix.x:
            raise ValueError(f"zw={zw!r} must start outside X")
        removed, added = [], []
    else:
        # w in Y_{p+1} \ Y_p, zw in class pi(p)
        if w.index not in ix.y_sets[p]:
            raise ValueError(f"subcase undeterminable: w={w!r} not in Y_{p + 1}")
        if p >= 1 and w.index in ix.y_sets[p - 1]:
            raise ValueError(f"w={w!r} already in Y_{p}; zw names the wrong increment")
        if z_a in ix.x or z_a in ix.z[:p]:
            raise ValueError(f"zw={zw!r} must start outside X and z_1..z_{p}")
        removed, added = _chain_members(st, p)
    if f_bar.colour != f.colour:
        raise ValueError(f"f_bar colour {f_bar.colour} does not match f's colour {f.colour}")
    if f_bar.edge.pair not in st.inst.classes[f_bar.colour].pairs:
        raise ValueError(f"f_bar={f_bar!r} is not an edge of its class")
    if f_bar.a.index in ix.xz or f_bar.a == zw.a:
        raise ValueError(f"f_bar={f_bar!r} must start outside X, z_1..z_k and zw's endpoint")
    if f_bar.b.index in ix.y:
        raise ValueError(f"f_bar={f_bar!r} must end outside Y")
    return _apply_exchange(st, removed + [f], added + [f_bar, zw])


# --- pool constructions ----------------------------------------------------------


def _pool_formula(st: SwitchState) -> Fraction:
    return (Fraction(1, 2) + st.eps.value) * st.inst.n_colours + 1 - 2 * st.k


def _n_required(st: SwitchState, mode: Mode) -> int:
    return 1 if mode is Mode.RELAXED else max(1, math.ceil(_pool_formula(st)))


def _fresh_pool(st: SwitchState, mode: Mode) -> frozenset[int]:
    """The B-indices of the fresh pool N_k of the current state, for every k.

    Saturated B-vertices outside Y_k and the used y_i with a class-pi(k)
    partner outside X and z_1..z_k. Strict mode keeps the _n_required
    smallest B-indices.
    """
    ix, k = st._ints, st.k
    banned_b = ix.y_sets[k - 1].union(ix.ys) if k >= 1 else frozenset()
    pool = sorted(
        {
            b
            for a, b in st.inst.classes[st.pi[k]].pairs
            if a not in ix.xz and b in ix.y and b not in banned_b
        }
    )
    if mode is Mode.STRICT:
        pool = pool[: _n_required(st, mode)]
    return frozenset(pool)


def construct_N0(st: SwitchState, mode: Mode = Mode.RELAXED) -> frozenset[Vertex]:
    """Saturated B-vertices reachable from outside X through class 0 (k = 0 only).

    Strict mode truncates to ceil((1/2 + eps)*n + 1) vertices, smallest
    B-indices first; relaxed mode returns every qualifying vertex.
    """
    if st.k != 0:
        raise ValueError(f"construct_N0 needs k = 0, got k = {st.k}")
    return frozenset(vb(b) for b in _fresh_pool(st, mode))


def construct_Nk(st: SwitchState, mode: Mode = Mode.RELAXED) -> frozenset[Vertex]:
    """Fresh saturated B-vertices reachable through class pi(k) (k >= 1).

    Qualifying vertices lie in Y minus Y_k and the used y_i and have a partner
    outside X and z_1..z_k in class pi(k). Strict mode truncates to
    ceil((1/2 + eps)*n + 1 - 2k), smallest B-indices first.
    """
    if st.k < 1:
        raise ValueError(f"construct_Nk needs k >= 1, got k = {st.k}")
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


def _zw_for(st: SwitchState, w: int, n_pool: AbstractSet[int]) -> tuple[int, int, int] | None:
    """The partner edge into a pool B-index w, by the two-case rule, as a triple.

    Fresh-pool case (w in N_k): through class pi(k), from outside X and
    z_1..z_k. Increment case (w in Y_k): for the smallest i with w in Y_i,
    through class pi(i-1), from outside X and z_1..z_{i-1}. N_k avoids Y_k,
    so at most one case applies.
    """
    ix, k = st._ints, st.k
    if w in n_pool:
        colour, banned = st.pi[k], ix.xz
    elif k >= 1 and w in ix.y_sets[k - 1]:
        i = next(i for i in range(1, k + 1) if w in ix.y_sets[i - 1])
        colour, banned = st.pi[i - 1], ix.x.union(ix.z[: i - 1])
    else:
        return None
    pair = _class_edge_at(st, colour, w, False, banned)
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
            return claim1_switch(st, ColouredEdge.of(colour_k, a, b))
    x_k = st.x_of(k).index
    for a, b in pairs:
        if a in ix.xz or b not in ix.y_sets[k - 1]:
            continue
        e = ix.r_at_b.get(b)
        if e is None or e[1] not in ix.x_sets[k - 1] or e[0] in st.pi:
            continue  # hand-built states may lack the paired structure; not a witness
        e_bar = _class_edge_at(st, e[0], x_k, True, ix.y)
        if e_bar is None:
            continue
        return claim2_switch(
            st, ColouredEdge.of(colour_k, a, b), ColouredEdge.of(*e), ColouredEdge.of(e[0], *e_bar)
        )
    return None


def _claim3_augment(
    st: SwitchState,
    n_pool: AbstractSet[int],
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
                return claim3_switch(
                    st, ColouredEdge.of(c, x, w), ColouredEdge.of(c, a, b), ColouredEdge.of(*zw)
                )
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
    y_prime = ix.y_sets[st.k - 1] | n_pool if st.k >= 1 else n_pool
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
            replace(
                st,
                k=st.k + 1,
                e_seq=st.e_seq + (ColouredEdge.of(*e_next),),
                g_seq=st.g_seq + (ColouredEdge.of(*g_next),),
                x_sets=st.x_sets + (frozenset(va(a) for a in X_next),),
                y_sets=st.y_sets + (frozenset(vb(b) for b in Y_next),),
                pi=st.pi + (e_next[0],),
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

    inst: Instance
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
    return Trace(inst, mode, base, tuple(steps))


def _state_payload(st: SwitchState) -> dict:
    return {
        "r": [list(t) for t in st.r.triples],
        "eps": str(st.eps.value),
        "t": st.t,
        "k": st.k,
        "e_seq": [list(ce.triple) for ce in st.e_seq],
        "g_seq": [list(ce.triple) for ce in st.g_seq],
        "x_sets": [sorted(v.index for v in s) for s in st.x_sets],
        "y_sets": [sorted(v.index for v in s) for s in st.y_sets],
        "pi": list(st.pi),
    }


def _state_from_payload(inst: Instance, payload: dict) -> SwitchState:
    def ces(rows) -> tuple[ColouredEdge, ...]:
        return tuple(ColouredEdge.of(c, a, b) for c, a, b in int_rows(rows, 3))

    return SwitchState(
        inst=inst,
        r=make_matching(matching_rows(payload["r"])),
        eps=Epsilon(Fraction(payload["eps"])),
        t=json_int(payload["t"]),
        k=json_int(payload["k"]),
        e_seq=ces(payload["e_seq"]),
        g_seq=ces(payload["g_seq"]),
        x_sets=tuple(frozenset(va(json_int(i)) for i in s) for s in payload["x_sets"]),
        y_sets=tuple(frozenset(vb(json_int(i)) for i in s) for s in payload["y_sets"]),
        pi=tuple(json_int(c) for c in payload["pi"]),
    )


def trace_to_json(trace: Trace) -> str:
    """Serialize a trace with full state snapshots and property reports."""
    steps = []
    for out in trace.steps:
        if isinstance(out, Extended):
            report = verify_properties(out.state, trace.mode)
            steps.append(
                {
                    "kind": "extended",
                    "state": _state_payload(out.state),
                    "properties": {
                        c.name: {"ok": c.ok, "witness": c.witness} for c in report.checks
                    },
                }
            )
        else:
            steps.append(
                {
                    "kind": "augmented",
                    "matching": [list(t) for t in out.matching.triples],
                }
            )
    payload = {
        "mode": trace.mode.value,
        "instance": json.loads(instance_to_json(trace.inst)),
        "base_state": _state_payload(trace.base),
        "steps": steps,
    }
    return json.dumps(payload, indent=2) + "\n"


def _step_from_payload(inst: Instance, step) -> StepOutcome:
    if not isinstance(step, dict):
        raise TypeError(f"expected an object, got {type(step).__name__}")
    kind = step.get("kind")
    if kind == "extended":
        return Extended(_state_from_payload(inst, step["state"]))
    if kind == "augmented":
        return Augmented(matching_from_json(json.dumps(step["matching"])))
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
    y_sets and pi each gain one entry; r, eps and t stay the base's) and
    satisfy P1-P7. An augmented step must end the trace with a valid rainbow
    matching one larger than the base's r. Returns failure strings naming the
    step index and the violated property, link or matching defect; empty
    means the trace verifies. Raises ValueError on malformed JSON, including
    an invalid instance and structurally invalid states.
    """
    try:
        payload = json.loads(text)
        mode = Mode(payload["mode"])
        inst = instance_from_json(json.dumps(payload["instance"]))
        violations = validate_instance(inst)
        if violations:
            raise ValueError("invalid instance: " + "; ".join(str(v) for v in violations))
        base = _state_from_payload(inst, payload["base_state"])
        base_report = verify_properties(base, mode)
        steps = payload["steps"]
        if not isinstance(steps, list):
            raise TypeError(f"steps must be a list, got {type(steps).__name__}")
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
            out = _step_from_payload(inst, step)
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
            for ce in out.matching.sorted_edges():
                if not (0 <= ce.colour < inst.n_colours
                        and ce.edge.pair in inst.classes[ce.colour].pairs):
                    failures.append(f"step {idx}: augmented edge {ce!r} not in its class")
                    break
    return failures
