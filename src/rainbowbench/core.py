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
from functools import lru_cache
from itertools import chain
from typing import Hashable, Iterable, Iterator, Sequence


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
    order, as make_instance and gen_random_instance (the one other builder)
    build them; the colour is the class's position in Instance.classes.
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
    """A set of vertex-disjoint edges with pairwise distinct colours.

    triples holds the distinct (colour, a_index, b_index) rows in sorted
    order, as make_matching builds them.
    """

    triples: tuple[tuple[int, int, int], ...]

    @classmethod
    def empty(cls) -> "RainbowMatching":
        return cls(())

    @property
    def edges(self) -> frozenset[ColouredEdge]:
        """The triples as ColouredEdge values.

        Built on every call, as ColourClass.edges is (not cached: it would hold memory).
        """
        return frozenset(self.sorted_edges())

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[ColouredEdge]:
        return iter(self.sorted_edges())

    def __contains__(self, item: object) -> bool:
        return isinstance(item, ColouredEdge) and item.triple in self.triples

    def colours(self) -> frozenset[int]:
        return frozenset(c for c, _, _ in self.triples)

    def sorted_edges(self) -> list[ColouredEdge]:
        return [ColouredEdge.of(c, a, b) for c, a, b in self.triples]


def make_instance(
    classes: Sequence[Iterable[tuple[int, int]]],
    a_size: int | None = None,
    b_size: int | None = None,
) -> Instance:
    """Build an Instance from per-colour endpoint pairs.

    Each class keeps its distinct pairs, sorted. Universe bounds default to
    the smallest bounds containing every endpoint. Raises ValueError on a
    negative index or universe size; the result is not validated otherwise,
    run validate_instance for that.
    """
    built = tuple(ColourClass(tuple(sorted({(a, b) for a, b in pairs}))) for pairs in classes)
    a_ends = [a for cls in built for a, _ in cls.pairs]
    b_ends = [b for cls in built for _, b in cls.pairs]
    lowest = min(a_ends + b_ends, default=0)
    if lowest < 0:
        raise ValueError(f"vertex index must be non-negative, got {lowest}")
    a_size = a_size if a_size is not None else max(a_ends, default=-1) + 1
    b_size = b_size if b_size is not None else max(b_ends, default=-1) + 1
    if min(a_size, b_size) < 0:
        raise ValueError(f"universe size must be non-negative, got {a_size} x {b_size}")
    return Instance(classes=built, a_size=a_size, b_size=b_size)


def make_matching(triples: Iterable[tuple[int, int, int]]) -> RainbowMatching:
    """Build a RainbowMatching from (colour, a_index, b_index) triples.

    Keeps the distinct triples, sorted. Raises ValueError on a negative
    vertex index; the result is not checked to be rainbow, run is_rainbow
    for that.
    """
    rows = tuple(sorted({(c, a, b) for c, a, b in triples}))
    lowest = min((min(a, b) for _, a, b in rows), default=0)
    if lowest < 0:
        raise ValueError(f"vertex index must be non-negative, got {lowest}")
    return RainbowMatching(rows)


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
        # vertex -> other end of the first edge at it; labels only for violations
        seen_a: dict[int, int] = {}
        seen_b: dict[int, int] = {}
        for ai, bi in cls.pairs:
            if ai in seen_a:
                violations.append(
                    Violation(
                        "not_a_matching",
                        idx,
                        f"colour {idx} is not a matching: "
                        f"a{ai}b{seen_a[ai]} and a{ai}b{bi} share a{ai}",
                    )
                )
            if bi in seen_b:
                violations.append(
                    Violation(
                        "not_a_matching",
                        idx,
                        f"colour {idx} is not a matching: "
                        f"a{seen_b[bi]}b{bi} and a{ai}b{bi} share b{bi}",
                    )
                )
            seen_a.setdefault(ai, bi)
            seen_b.setdefault(bi, ai)
            if not 0 <= ai < inst.a_size:
                violations.append(
                    Violation(
                        "vertex_out_of_range",
                        idx,
                        f"colour {idx} edge a{ai}b{bi}: "
                        f"a{ai} outside universe of size {inst.a_size}",
                    )
                )
            if not 0 <= bi < inst.b_size:
                violations.append(
                    Violation(
                        "vertex_out_of_range",
                        idx,
                        f"colour {idx} edge a{ai}b{bi}: "
                        f"b{bi} outside universe of size {inst.b_size}",
                    )
                )
    return violations


def is_rainbow(edges: Iterable[ColouredEdge]) -> bool:
    """True iff the edges are vertex-disjoint with pairwise distinct colours."""
    if isinstance(edges, RainbowMatching):
        rows = edges.triples
    else:
        rows = [ce.triple for ce in edges]
    return all(len({row[i] for row in rows}) == len(rows) for i in range(3))


def neighbourhood_along(r: RainbowMatching, x: Iterable[Vertex]) -> frozenset[Vertex]:
    """Vertices matched by r to the query vertices.

    For an A-side query this is the set {y : xy in r, x in X}; B-side queries
    symmetrically return the matched A-vertices. r is a matching, so the map is
    a bijection on saturated vertices.
    """
    query = set(x)
    a_query = {v.index for v in query if v.side is Side.A}
    b_query = {v.index for v in query if v.side is Side.B}
    return frozenset(vb(b) for _, a, b in r.triples if a in a_query).union(
        va(a) for _, a, b in r.triples if b in b_query
    )


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
    # a transposition of colours keeps the rows distinct and the vertices as they were
    return RainbowMatching(tuple(sorted((mapping.get(c, c), a, b) for c, a, b in r.triples)))


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


def json_value(text: str) -> object:
    """The one JSON decoder: json.loads, with nesting too deep to decode a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def json_int(value: object) -> int:
    """A decoded JSON integer; ValueError on anything else (bool, float, str are not coerced)."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_list(value: object) -> list:
    """A decoded JSON array; ValueError on anything else (a string or object is not iterated)."""
    if type(value) is not list:
        raise ValueError(f"expected an array, got {value!r}")
    return value


def int_rows(rows: object, width: int) -> list[tuple[int, ...]]:
    """A decoded JSON array of rows, each an array of `width` integers, as tuples.

    Raises ValueError on anything else; bool, float and str entries are
    rejected, not coerced.
    """
    if not (
        set(map(type, json_list(rows))) <= {list}
        and set(map(len, rows)) <= {width}
        and set(map(type, chain.from_iterable(rows))) <= {int}
    ):
        for row in rows:  # the whole-array checks failed: name the first row at fault
            if not (isinstance(row, list) and len(row) == width
                    and all(type(v) is int for v in row)):
                raise ValueError(f"expected an array of {width} integers, got {row!r}")
    return list(map(tuple, rows))


def reject_repeats(rows: Sequence[Hashable], what: str) -> None:
    """ValueError "<what> <row as JSON>" naming the first repeated row or index, if any."""
    if len(set(rows)) < len(rows):
        seen: set[Hashable] = set()
        for t in rows:
            if t in seen:
                raise ValueError(f"{what} {json.dumps(t)}")
            seen.add(t)


def matching_rows(rows: object) -> list[tuple[int, ...]]:
    """int_rows for [colour, a_index, b_index] rows, which must also be distinct.

    A repeated row is malformed, not a smaller matching: ValueError.
    """
    triples = int_rows(rows, 3)
    reject_repeats(triples, "repeated row")
    return triples


_encode_str = json.encoder.encode_basestring_ascii


@lru_cache(maxsize=256)
def _template(shape: int | tuple, nl: str) -> str:
    """The %d template of a list at nl; shape: a list of ints' length, or its lists' shapes."""
    inner = nl + "  "
    parts = ["%d"] * shape if type(shape) is int else [_template(s, inner) for s in shape]
    return "[" + inner + ("," + inner).join(parts) + nl + "]" if parts else "[]"


def _int_rows_layout(rows: list[list], nl: str) -> str | None:
    """_encode(rows, nl) when rows are int rows, or lists of int rows; None otherwise.

    Types are checked over whole arrays first ("%d" would print True as 1);
    then one %-format fills every value into the template of rows' shape.
    """
    cells = list(chain.from_iterable(rows))
    kinds = set(map(type, cells))
    if kinds <= {int}:
        shape, values = tuple(map(len, rows)), cells
    elif kinds == {list}:
        values = list(chain.from_iterable(cells))
        if not set(map(type, values)) <= {int}:
            return None
        shape = tuple(tuple(map(len, block)) for block in rows)
    else:
        return None
    return _template(shape, nl) % tuple(values)


def _encode(obj: object, nl: str) -> str:
    """obj as json.dumps(indent=2) lays it out; nl is a line break plus the indent obj starts at."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = nl + "  "
    if kind is list:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            return "[" + inner + ("," + inner).join(map(str, obj)) + nl + "]"
        if kinds == {list} and (rows := _int_rows_layout(obj, nl)) is not None:
            return rows
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in obj]) + nl + "]"
    if kind is dict:
        if not obj:
            return "{}"
        items = [_encode_str(k) + ": " + _encode(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"canonical JSON cannot encode {kind.__name__}")


def canonical_json(obj: object) -> str:
    """The one indent-2 JSON writer: exactly json.dumps(obj, indent=2) + "\n".

    Accepts dicts with str keys, lists, str, int, bool and None; any other
    type (float, tuple, set, ...) raises TypeError.
    """
    return _encode(obj, "\n") + "\n"


def instance_payload(inst: Instance) -> dict:
    """The canonical Instance JSON object, before encoding."""
    return {
        "n_colours": inst.n_colours,
        "a_size": inst.a_size,
        "b_size": inst.b_size,
        "classes": [list(map(list, cls.pairs)) for cls in inst.classes],
    }


def instance_to_json(inst: Instance) -> str:
    """Canonical Instance JSON; round-trips bit-exactly through instance_from_json."""
    return canonical_json(instance_payload(inst))


def instance_from_json(text: str) -> Instance:
    try:
        payload = json_value(text)
    except ValueError as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    return instance_from_payload(payload)


def instance_from_payload(payload: object) -> Instance:
    """An Instance from a decoded Instance JSON object.

    Raises ValueError on a missing field, a non-integer value, a class count
    that differs from n_colours, or a pair repeated inside a class (malformed,
    not a smaller class).
    """
    try:
        n_colours = json_int(payload["n_colours"])
        a_size = json_int(payload["a_size"])
        b_size = json_int(payload["b_size"])
        classes = [int_rows(pairs, 2) for pairs in json_list(payload["classes"])]
        for colour, pairs in enumerate(classes):
            reject_repeats(pairs, f"colour {colour}: repeated pair")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    if len(classes) != n_colours:
        raise ValueError(
            f"instance JSON declares {n_colours} colours but lists {len(classes)} classes"
        )
    return make_instance(classes, a_size=a_size, b_size=b_size)


def matching_to_json(r: RainbowMatching) -> str:
    """Canonical RainbowMatching JSON: [colour, a_index, b_index] rows sorted by colour."""
    return canonical_json([list(t) for t in r.triples])


def matching_from_json(text: str) -> RainbowMatching:
    try:
        triples = matching_rows(json_value(text))
    except ValueError as exc:
        raise ValueError(f"malformed matching JSON: {exc}") from exc
    return make_matching(triples)
