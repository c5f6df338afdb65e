"""Data model for edge-coloured bipartite multigraphs, matchings and rainbow matchings.

An instance is a family of colour classes F_0 .. F_{n-1}, each class a matching
in a bipartite multigraph with explicit finite vertex universes on both sides.
Parallel edges are represented implicitly: two classes may contain the same
endpoint pair, and a ColouredEdge binds an endpoint pair to one class.

All types are immutable after construction and all operations are pure, so
values are safe to share and to use as dictionary keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import lt
from typing import Hashable, Iterable, NamedTuple, Sequence


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
    order, as its two builders (make_instance and gen_random_instance) build
    them; the colour is the class's position in Instance.classes.
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


@dataclass(frozen=True)
class RainbowMatching:
    """A set of vertex-disjoint edges with pairwise distinct colours.

    triples holds the distinct (colour, a_index, b_index) rows in sorted
    order, as make_matching builds them.
    """

    triples: tuple[tuple[int, int, int], ...]

    @property
    def edges(self) -> frozenset[ColouredEdge]:
        """The triples as ColouredEdge values.

        Built on every call, as ColourClass.edges is (not cached: it would hold memory).
        """
        return frozenset(ColouredEdge.of(c, a, b) for c, a, b in self.triples)

    def __len__(self) -> int:
        return len(self.triples)

    def colours(self) -> frozenset[int]:
        return frozenset(c for c, _, _ in self.triples)


def make_instance(
    classes: Sequence[Iterable[tuple[int, int]]],
    a_size: int | None = None,
    b_size: int | None = None,
) -> Instance:
    """Build an Instance from per-colour endpoint pairs.

    Each class keeps its distinct pairs, sorted: the list is sorted (one pass
    when it is sorted already) and repeats dropped, the first copy kept.
    Universe bounds default to the smallest bounds containing every endpoint.
    Raises ValueError on a negative index or universe size; the result is not
    validated otherwise, run validate_instance for that.
    """
    built = tuple(
        ColourClass(tuple(dict.fromkeys(sorted([(a, b) for a, b in pairs])))) for pairs in classes
    )
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
    return _sorted_matching(tuple(sorted({(c, a, b) for c, a, b in triples})))


def _sorted_matching(rows: tuple[tuple[int, int, int], ...]) -> RainbowMatching:
    """RainbowMatching(rows) for sorted distinct rows; ValueError on a negative vertex index."""
    _, a_ends, b_ends = zip(*rows) if rows else ((), (), ())
    lowest = min(chain(a_ends, b_ends), default=0)
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


def _valid_class(pairs: tuple[tuple[int, int], ...], a_size: int, b_size: int) -> bool:
    """True iff pairs breaks no invariant validate_instance checks, tested over whole columns.

    A-ends that strictly increase mean the pairs are sorted and distinct and no
    A-end repeats; then distinct B-ends make a matching, and the extreme ends
    place every end in the universe.
    """
    if not pairs:
        return True
    a_ends, b_ends = zip(*pairs)
    return (
        all(map(lt, a_ends, a_ends[1:]))
        and len(set(b_ends)) == len(b_ends)
        and 0 <= a_ends[0] and a_ends[-1] < a_size
        and 0 <= min(b_ends) and max(b_ends) < b_size
    )


def validate_instance(inst: Instance) -> list[Violation]:
    """Check all Instance invariants; empty list iff the instance is valid.

    The pairs of every class are walked one by one, and each violation is
    worded in order.
    """
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
    return all(len(set(column)) == len(rows) for column in zip(*rows))


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


def max_bipartite_matching(
    adjacency: Sequence[Sequence[int]], order: Iterable[int], right_size: int
) -> list[int]:
    """Left partner of each right vertex in a maximum matching, or -1: Kuhn's augmenting paths.

    Left vertex u may take any right vertex in adjacency[u]; `order` lists each
    left vertex once. The two orders fix which maximum matching comes back.
    """
    partner = [-1] * right_size

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                if partner[v] == -1 or augment(partner[v], seen):
                    partner[v] = u
                    return True
        return False

    for u in order:
        augment(u, [False] * right_size)
    return partner


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


def matching_from_rows(rows: object) -> RainbowMatching:
    """make_matching(matching_rows(rows)), with the one set of the rows built in matching_rows.

    The checks and their messages are those two functions'.
    """
    return _sorted_matching(tuple(sorted(matching_rows(rows))))


_encode_str = json.encoder.encode_basestring_ascii


def json_layout(shape: object, nl: str = "\n") -> str:
    """The %-format template of a JSON value of `shape` at nl, as json.dumps(indent=2) lays it out.

    A shape is an int n (a list of n integers, a "%d" each), a str (put in
    as it is: a slot such as "%s", or fixed JSON text such as "true"), a tuple
    (a list of those shapes) or a dict (an object of those keys, each holding
    its value's shape). A template laid out at the top level, nl "\n", holds no
    other line break, so _placed places it at any depth (see Filled).
    """
    kind = type(shape)
    if kind is str:
        return shape
    inner = nl + "  "
    if kind is dict:
        parts = [
            _encode_str(key).replace("%", "%%") + ": " + json_layout(value, inner)
            for key, value in shape.items()
        ]
        return "{" + inner + ("," + inner).join(parts) + nl + "}" if parts else "{}"
    parts = ["%d"] * shape if kind is int else [json_layout(s, inner) for s in shape]
    return "[" + inner + ("," + inner).join(parts) + nl + "]" if parts else "[]"


@lru_cache(maxsize=256)
def _template(lengths: tuple[int, ...]) -> str:
    """The top-level layout of a list of int rows of these lengths."""
    return json_layout(lengths)


class Filled(NamedTuple):
    """A JSON value as a json_layout template laid out at the top level and its values.

    canonical_json writes it as the template, indented to where it stands,
    %-formatted with values, in one step.
    """

    layout: str
    values: tuple


@lru_cache(maxsize=1024)
def _placed(layout: str, nl: str) -> str:
    """A top-level template placed at nl: every line break takes nl's indent."""
    return layout.replace("\n", nl)


def _int_rows_layout(rows: list[list], nl: str) -> str | None:
    """_encode(rows, nl) when rows are int rows, None otherwise.

    Types are checked over the whole array first ("%d" would print True as 1);
    then one %-format fills every value into the layout of the row lengths.
    """
    cells = list(chain.from_iterable(rows))
    if not set(map(type, cells)) <= {int}:
        return None
    return _placed(_template(tuple(map(len, rows))), nl) % tuple(cells)


@lru_cache(maxsize=256)
def _instance_template(lengths: tuple[int, ...]) -> str:
    """The top-level layout of an Instance JSON object whose classes hold `lengths` pairs."""
    classes = tuple((2,) * n for n in lengths)
    return json_layout({"n_colours": "%d", "a_size": "%d", "b_size": "%d", "classes": classes})


def _encode_instance(inst: Instance, nl: str) -> str:
    """inst's canonical JSON object at nl: its counts, sizes and each class's pairs as [a, b] rows.

    Pair widths and value types are checked over whole arrays first ("%d"
    would print True as 1): anything but integer pairs, such as a bool end,
    raises TypeError. Then one %-format fills every value into the layout of
    the class lengths.
    """
    rows = list(chain.from_iterable([cls.pairs for cls in inst.classes]))
    values = (inst.n_colours, inst.a_size, inst.b_size, *chain.from_iterable(rows))
    if not (set(map(len, rows)) <= {2} and set(map(type, values)) <= {int}):
        raise TypeError("canonical JSON writes an Instance of integer pairs only")
    return _placed(_instance_template(tuple(map(len, inst.classes))), nl) % values


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
        if set(map(type, obj)) == {list} and (rows := _int_rows_layout(obj, nl)) is not None:
            return rows
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in obj]) + nl + "]"
    if kind is dict:
        if not obj:
            return "{}"
        items = [_encode_str(k) + ": " + _encode(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if kind is Instance:
        return _encode_instance(obj, nl)
    if kind is Filled:
        return _placed(obj.layout, nl) % obj.values
    raise TypeError(f"canonical JSON cannot encode {kind.__name__}")


def canonical_json(obj: object) -> str:
    """The one indent-2 JSON writer: exactly json.dumps(obj, indent=2) + "\n".

    Accepts dicts with str keys, lists, str, int, bool, None, Instance and
    Filled; any other type (float, tuple, set, ...) raises TypeError. An
    Instance, at the top or inside a dict or list, is written as the object
    {"n_colours", "a_size", "b_size", "classes"} with each class a list of
    [a, b] rows, straight from its pair tuples, and an Instance holding
    anything but integer pairs (a bool end, say) raises TypeError; a Filled
    value is written as its layout filled with its values.
    """
    return _encode(obj, "\n") + "\n"


def instance_to_json(inst: Instance) -> str:
    """Canonical Instance JSON; round-trips bit-exactly through instance_from_json."""
    return canonical_json(inst)


def instance_from_json(text: str) -> Instance:
    try:
        payload = json_value(text)
    except ValueError as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    return instance_from_payload(payload)


def instance_from_payload(payload: object) -> Instance:
    """An Instance from a decoded Instance JSON object, read class by class.

    Raises ValueError on a missing field, a non-integer value, a class count
    that differs from n_colours, a pair repeated inside a class (malformed,
    not a smaller class), a negative vertex index or a negative universe size;
    each names the first class or row at fault. The Instance is built by
    make_instance, whose words name a negative index or size.
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


def _read_valid_instance(payload: object) -> Instance | None:
    """The Instance of payload when whole-array tests find it well-formed and valid, else None.

    Valid means what validate_instance checks: each class's pairs sorted and
    distinct, a matching, and inside the a_size x b_size universe.
    """
    if type(payload) is not dict:
        return None
    heads = (payload.get("n_colours"), payload.get("a_size"), payload.get("b_size"))
    classes = payload.get("classes")
    if not (
        set(map(type, heads)) == {int}
        and min(heads) >= 0
        and type(classes) is list
        and len(classes) == heads[0]
        and set(map(type, classes)) <= {list}
    ):
        return None
    rows = list(chain.from_iterable(classes))
    if not (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {2}
        and set(map(type, chain.from_iterable(rows))) <= {int}
    ):
        return None
    _, a_size, b_size = heads
    built = [tuple(map(tuple, pairs)) for pairs in classes]
    if not all(_valid_class(pairs, a_size, b_size) for pairs in built):
        return None
    return Instance(tuple(map(ColourClass, built)), a_size, b_size)


def valid_instance_from_payload(payload: object) -> Instance:
    """instance_from_payload(payload), and a ValueError unless validate_instance finds nothing.

    A payload in the form instance_to_json writes, with valid classes, is read
    and checked in one whole-array pass. Any other is read again by
    instance_from_payload and validate_instance, to word the failure in their
    terms: theirs is the exception, or "invalid instance: " and the violations
    joined by "; ".
    """
    inst = _read_valid_instance(payload)
    if inst is None:
        inst = instance_from_payload(payload)
        violations = validate_instance(inst)
        if violations:
            raise ValueError("invalid instance: " + "; ".join(map(str, violations)))
    return inst


def matching_to_json(r: RainbowMatching) -> str:
    """Canonical RainbowMatching JSON: [colour, a_index, b_index] rows sorted by colour."""
    return canonical_json([list(t) for t in r.triples])


def matching_from_json(text: str) -> RainbowMatching:
    try:
        triples = matching_rows(json_value(text))
    except ValueError as exc:
        raise ValueError(f"malformed matching JSON: {exc}") from exc
    return _sorted_matching(tuple(sorted(triples)))
