"""Data model for edge-coloured bipartite multigraphs, matchings and rainbow matchings.

An instance is a family of colour classes F_0 .. F_{n-1}, each class a matching
in a bipartite multigraph with explicit finite vertex universes on both sides.
Parallel edges are represented implicitly: two classes may contain the same
endpoint pair, and a ColouredEdge binds an endpoint pair to one class.

All types are immutable after construction and all operations are pure, so
values are safe to share across concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence


class Side(Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class Vertex:
    """One endpoint slot; equality is (side, index)."""

    side: Side
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"vertex index must be non-negative, got {self.index}")

    def __repr__(self) -> str:
        return f"{self.side.value.lower()}{self.index}"


def va(index: int) -> Vertex:
    """A-side vertex shorthand."""
    return Vertex(Side.A, index)


def vb(index: int) -> Vertex:
    """B-side vertex shorthand."""
    return Vertex(Side.B, index)


@dataclass(frozen=True)
class Edge:
    """Edge of the bipartite multigraph; a must be an A-vertex, b a B-vertex."""

    a: Vertex
    b: Vertex

    def __post_init__(self) -> None:
        if self.a.side is not Side.A or self.b.side is not Side.B:
            raise ValueError(f"edge endpoints must be (A, B), got ({self.a}, {self.b})")

    @classmethod
    def of(cls, a_index: int, b_index: int) -> "Edge":
        return cls(va(a_index), vb(b_index))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a.index, self.b.index)

    def __repr__(self) -> str:
        return f"a{self.a.index}b{self.b.index}"


@dataclass(frozen=True)
class ColouredEdge:
    """An edge together with the colour class it is used from."""

    edge: Edge
    colour: int

    @classmethod
    def of(cls, colour: int, a_index: int, b_index: int) -> "ColouredEdge":
        return cls(Edge.of(a_index, b_index), colour)

    @property
    def a(self) -> Vertex:
        return self.edge.a

    @property
    def b(self) -> Vertex:
        return self.edge.b

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.colour, self.edge.a.index, self.edge.b.index)

    def __repr__(self) -> str:
        return f"{self.edge!r}@{self.colour}"


@dataclass(frozen=True)
class ColourClass:
    """One colour class: a matching (no two edges share a vertex).

    pairs holds the distinct (a_index, b_index) endpoint pairs in sorted
    order, as make_instance builds them; the colour is the class's position
    in Instance.classes.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def edges(self) -> frozenset[Edge]:
        """The pairs as Edge values, built on every call (not cached: it would hold memory)."""
        return frozenset(Edge.of(a, b) for a, b in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Instance:
    """A family of colour classes over explicit a_size x b_size vertex universes."""

    classes: tuple[ColourClass, ...]
    a_size: int
    b_size: int

    @property
    def n_colours(self) -> int:
        return len(self.classes)

    def class_edges(self, colour: int) -> frozenset[Edge]:
        return self.classes[colour].edges

    def class_pairs(self, colour: int) -> list[tuple[int, int]]:
        """Endpoint pairs of one class, sorted lexicographically."""
        return list(self.classes[colour].pairs)


@dataclass(frozen=True)
class RainbowMatching:
    """A set of vertex-disjoint edges with pairwise distinct colours."""

    edges: frozenset[ColouredEdge]

    @classmethod
    def empty(cls) -> "RainbowMatching":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[ColouredEdge]:
        return iter(self.edges)

    def __contains__(self, item: ColouredEdge) -> bool:
        return item in self.edges

    def colours(self) -> frozenset[int]:
        return frozenset(ce.colour for ce in self.edges)

    def sorted_edges(self) -> list[ColouredEdge]:
        return sorted(self.edges, key=lambda ce: ce.triple)

    def with_edge(self, ce: ColouredEdge) -> "RainbowMatching":
        return RainbowMatching(self.edges | {ce})


def make_instance(
    classes: Sequence[Iterable[tuple[int, int]]],
    a_size: int | None = None,
    b_size: int | None = None,
) -> Instance:
    """Build an Instance from per-colour endpoint pairs.

    Each class keeps its distinct pairs, sorted. Universe bounds default to
    the smallest bounds containing every endpoint. Raises ValueError on a
    negative index; the result is not validated otherwise, run
    validate_instance for that.
    """
    built = tuple(ColourClass(tuple(sorted({(a, b) for a, b in pairs}))) for pairs in classes)
    a_ends = [a for cls in built for a, _ in cls.pairs]
    b_ends = [b for cls in built for _, b in cls.pairs]
    lowest = min(a_ends + b_ends, default=0)
    if lowest < 0:
        raise ValueError(f"vertex index must be non-negative, got {lowest}")
    return Instance(
        classes=built,
        a_size=a_size if a_size is not None else max(a_ends, default=-1) + 1,
        b_size=b_size if b_size is not None else max(b_ends, default=-1) + 1,
    )


def make_matching(triples: Iterable[tuple[int, int, int]]) -> RainbowMatching:
    """Build a RainbowMatching from (colour, a_index, b_index) triples."""
    return RainbowMatching(frozenset(ColouredEdge.of(c, a, b) for c, a, b in triples))


@dataclass(frozen=True)
class Violation:
    """One instance-invariant violation; data, not a failure."""

    code: str
    colour: int
    message: str

    def __str__(self) -> str:
        return self.message


def validate_instance(inst: Instance) -> list[Violation]:
    """Check all Instance invariants; empty list iff the instance is valid."""
    violations: list[Violation] = []
    for idx, cls in enumerate(inst.classes):
        if any(p >= q for p, q in zip(cls.pairs, cls.pairs[1:])):
            violations.append(
                Violation("unsorted_pairs", idx, f"colour {idx} pairs are not sorted and distinct")
            )
        seen_a: dict[int, str] = {}
        seen_b: dict[int, str] = {}
        for ai, bi in cls.pairs:
            edge = f"a{ai}b{bi}"
            if ai in seen_a:
                violations.append(
                    Violation(
                        "not_a_matching",
                        idx,
                        f"colour {idx} is not a matching: {seen_a[ai]} and {edge} share a{ai}",
                    )
                )
            if bi in seen_b:
                violations.append(
                    Violation(
                        "not_a_matching",
                        idx,
                        f"colour {idx} is not a matching: {seen_b[bi]} and {edge} share b{bi}",
                    )
                )
            seen_a.setdefault(ai, edge)
            seen_b.setdefault(bi, edge)
            if not 0 <= ai < inst.a_size:
                violations.append(
                    Violation(
                        "vertex_out_of_range",
                        idx,
                        f"colour {idx} edge {edge}: a{ai} outside universe of size {inst.a_size}",
                    )
                )
            if not 0 <= bi < inst.b_size:
                violations.append(
                    Violation(
                        "vertex_out_of_range",
                        idx,
                        f"colour {idx} edge {edge}: b{bi} outside universe of size {inst.b_size}",
                    )
                )
    return violations


def is_rainbow(edges: Iterable[ColouredEdge]) -> bool:
    """True iff the edges are vertex-disjoint with pairwise distinct colours."""
    if isinstance(edges, RainbowMatching):
        edges = edges.edges
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    seen_c: set[int] = set()
    for ce in edges:
        ai, bi = ce.edge.pair
        if ai in seen_a or bi in seen_b or ce.colour in seen_c:
            return False
        seen_a.add(ai)
        seen_b.add(bi)
        seen_c.add(ce.colour)
    return True


def saturated_sets(r: RainbowMatching) -> tuple[frozenset[Vertex], frozenset[Vertex]]:
    """(X, Y): the A- and B-vertices incident with some edge of r."""
    return (
        frozenset(ce.a for ce in r.edges),
        frozenset(ce.b for ce in r.edges),
    )


def neighbourhood_along(r: RainbowMatching, x: Iterable[Vertex]) -> frozenset[Vertex]:
    """Vertices matched by r to the query vertices.

    For an A-side query this is the set {y : xy in r, x in X}; B-side queries
    symmetrically return the matched A-vertices. r is a matching, so the map is
    a bijection on saturated vertices.
    """
    query = set(x)
    out: set[Vertex] = set()
    for ce in r.edges:
        if ce.a in query:
            out.add(ce.b)
        if ce.b in query:
            out.add(ce.a)
    return frozenset(out)


def swap_colours(inst: Instance, c1: int, c2: int) -> Instance:
    """Instance with the classes of colours c1 and c2 exchanged."""
    if c1 == c2:
        return inst
    classes = list(inst.classes)
    classes[c1], classes[c2] = classes[c2], classes[c1]
    return Instance(tuple(classes), inst.a_size, inst.b_size)


def swap_matching_colours(r: RainbowMatching, c1: int, c2: int) -> RainbowMatching:
    """Matching relabelled under the colour transposition (c1 c2)."""
    if c1 == c2:
        return r
    mapping = {c1: c2, c2: c1}
    return RainbowMatching(
        frozenset(ColouredEdge(ce.edge, mapping.get(ce.colour, ce.colour)) for ce in r.edges)
    )


def free_colour_zero(
    inst: Instance, r: RainbowMatching
) -> tuple[Instance, RainbowMatching, int]:
    """Relabel so that colour 0 is unused by r.

    Returns (instance, matching, swapped) where swapped is the colour that was
    exchanged with 0 (0 itself when no relabelling was needed). Applying the
    same transposition again undoes the relabelling. Raises ValueError when r
    already uses every colour.
    """
    used = r.colours()
    if 0 not in used:
        return inst, r, 0
    free = [c for c in range(inst.n_colours) if c not in used]
    if not free:
        raise ValueError("matching uses every colour; nothing to relabel")
    c = free[0]
    return swap_colours(inst, 0, c), swap_matching_colours(r, 0, c), c


# --- canonical JSON formats ---------------------------------------------------


def json_int(value: object) -> int:
    """A decoded JSON integer; ValueError on anything else (bool, float, str are not coerced)."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def int_rows(rows: object, width: int) -> list[tuple[int, ...]]:
    """A decoded JSON array of rows, each an array of `width` integers, as tuples.

    Raises ValueError on anything else; bool, float and str entries are
    rejected, not coerced.
    """
    if not isinstance(rows, list):
        raise ValueError(f"expected an array of rows, got {rows!r}")
    for row in rows:
        if not (isinstance(row, list) and len(row) == width and all(type(v) is int for v in row)):
            raise ValueError(f"expected an array of {width} integers, got {row!r}")
    return [tuple(row) for row in rows]


def instance_to_json(inst: Instance) -> str:
    """Canonical Instance JSON; round-trips bit-exactly through instance_from_json."""
    payload = {
        "n_colours": inst.n_colours,
        "a_size": inst.a_size,
        "b_size": inst.b_size,
        "classes": [[list(p) for p in cls.pairs] for cls in inst.classes],
    }
    return json.dumps(payload, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    try:
        n_colours = json_int(payload["n_colours"])
        a_size = json_int(payload["a_size"])
        b_size = json_int(payload["b_size"])
        classes = [int_rows(pairs, 2) for pairs in payload["classes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    if len(classes) != n_colours:
        raise ValueError(
            f"instance JSON declares {n_colours} colours but lists {len(classes)} classes"
        )
    return make_instance(classes, a_size=a_size, b_size=b_size)


def matching_to_json(r: RainbowMatching) -> str:
    """Canonical RainbowMatching JSON: [colour, a_index, b_index] rows sorted by colour."""
    payload = [list(ce.triple) for ce in r.sorted_edges()]
    return json.dumps(payload, indent=2) + "\n"


def matching_from_json(text: str) -> RainbowMatching:
    try:
        triples = int_rows(json.loads(text), 3)
    except ValueError as exc:
        raise ValueError(f"malformed matching JSON: {exc}") from exc
    return make_matching(triples)
