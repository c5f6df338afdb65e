"""Latin squares, their coloured-graph form, and transversal conversions.

Orientation convention, fixed everywhere: A-vertices are columns, B-vertices
are rows. The cell in row i, column j with symbol s becomes the edge a_j b_i
of colour s, so each colour class of the resulting instance is a perfect
matching and a size-n rainbow matching corresponds to a transversal.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable

from .core import (
    ColouredEdge,
    Instance,
    RainbowMatching,
    int_rows,
    is_rainbow,
    json_int,
    json_value,
    make_instance,
    make_matching,
    max_bipartite_matching,
    reject_repeats,
)


@dataclass(frozen=True)
class LatinSquare:
    """An n x n symbol matrix; valid when every symbol appears once per row and column."""

    order: int
    cells: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "LatinSquare":
        """The square with these rows; ValueError on a cell that is not an int (bool included)."""
        matrix = tuple(tuple(json_int(x) for x in row) for row in rows)
        return cls(order=len(matrix), cells=matrix)


@dataclass(frozen=True)
class PartialTransversal:
    """Cell positions with distinct rows, columns and symbols."""

    entries: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LatinViolation:
    code: str  # "shape" | "range" | "row_repeat" | "col_repeat"
    index: int
    message: str

    def __str__(self) -> str:
        return self.message


def validate_latin(ls: LatinSquare) -> list[LatinViolation]:
    """Check the row-Latin and column-Latin invariants; empty list iff valid."""
    n = ls.order
    out: list[LatinViolation] = []
    if n < 1:
        out.append(LatinViolation("shape", n, f"order must be >= 1, got {n}"))
        return out
    if len(ls.cells) != n or any(len(row) != n for row in ls.cells):
        out.append(LatinViolation("shape", n, "cells are not an n x n matrix"))
        return out
    for i, row in enumerate(ls.cells):
        seen: dict[int, int] = {}
        for j, s in enumerate(row):
            if not 0 <= s < n:
                out.append(
                    LatinViolation("range", i, f"row {i} col {j}: symbol {s} outside [0, {n})")
                )
            elif s in seen:
                out.append(
                    LatinViolation(
                        "row_repeat", i, f"row {i} repeats symbol {s} (cols {seen[s]} and {j})"
                    )
                )
            else:
                seen[s] = j
    for j in range(n):
        seen = {}
        for i in range(n):
            s = ls.cells[i][j]
            if not 0 <= s < n:
                continue  # already reported per row
            if s in seen:
                out.append(
                    LatinViolation(
                        "col_repeat", j, f"column {j} repeats symbol {s} (rows {seen[s]} and {i})"
                    )
                )
            else:
                seen[s] = i
    return out


def latin_to_instance(ls: LatinSquare) -> Instance:
    """Coloured-graph form of a Latin square (a = column, b = row).

    Every colour class is a perfect matching of size n. Raises ValueError on
    an invalid square.
    """
    violations = validate_latin(ls)
    if violations:
        raise ValueError("invalid Latin square: " + "; ".join(str(v) for v in violations))
    n = ls.order
    classes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):  # row -> b_i
        for j in range(n):  # column -> a_j
            classes[ls.cells[i][j]].append((j, i))
    return make_instance(classes, a_size=n, b_size=n)


def instance_to_latin(inst: Instance) -> LatinSquare:
    """Recover the square from a coloured-graph instance (inverse of latin_to_instance).

    Requires n_colours == a_size == b_size and exactly one colour per cell;
    raises ValueError otherwise.
    """
    n = inst.n_colours
    if inst.a_size != n or inst.b_size != n:
        raise ValueError(
            f"not a Latin-type instance: n_colours={n}, universe {inst.a_size}x{inst.b_size}"
        )
    cells = [[-1] * n for _ in range(n)]
    for colour, cls in enumerate(inst.classes):
        for j, i in cls.pairs:  # a = column, b = row
            if cells[i][j] != -1:
                raise ValueError(f"cell row {i} col {j} covered by colours {cells[i][j]} and {colour}")
            cells[i][j] = colour
    for i in range(n):
        for j in range(n):
            if cells[i][j] == -1:
                raise ValueError(f"cell row {i} col {j} not covered by any colour")
    ls = LatinSquare.from_rows(cells)
    violations = validate_latin(ls)
    if violations:
        raise ValueError("instance does not encode a Latin square: " + str(violations[0]))
    return ls


def rainbow_to_transversal(ls: LatinSquare, r: RainbowMatching) -> PartialTransversal:
    """Positions {(row=b_index, column=a_index)} of a rainbow matching of latin_to_instance(ls).

    Raises ValueError when r is not a valid rainbow matching of that instance.
    """
    n = ls.order
    for c, col, row in r.triples:
        if not (0 <= col < n and 0 <= row < n and 0 <= c < n):
            raise ValueError(f"edge {ColouredEdge.of(c, col, row)!r} outside the order-{n} square")
        if ls.cells[row][col] != c:
            raise ValueError(
                f"edge {ColouredEdge.of(c, col, row)!r} disagrees with cell ({row},{col}) "
                f"holding symbol {ls.cells[row][col]}"
            )
    if not is_rainbow(r):
        raise ValueError("not a rainbow matching: it repeats a row, column or symbol")
    return PartialTransversal(frozenset((row, col) for _, col, row in r.triples))


def transversal_to_rainbow(ls: LatinSquare, t: PartialTransversal) -> RainbowMatching:
    """Inverse of rainbow_to_transversal; raises ValueError on an invalid transversal."""
    if not is_partial_transversal(ls, t):
        raise ValueError("entries do not form a partial transversal")
    return make_matching((ls.cells[row][col], col, row) for row, col in t.entries)


def is_partial_transversal(ls: LatinSquare, t: PartialTransversal) -> bool:
    """True iff the entries lie in the square and, as edges of latin_to_instance(ls),
    form a rainbow matching: their rows, columns and symbols are pairwise distinct."""
    n = ls.order
    if any(not (0 <= row < n and 0 <= col < n) for row, col in t.entries):
        return False
    return is_rainbow(make_matching((ls.cells[row][col], col, row) for row, col in t.entries))


def gen_cyclic(n: int) -> LatinSquare:
    """Addition table of Z_n: cells[i][j] = (i + j) mod n."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return LatinSquare.from_rows([[(i + j) % n for j in range(n)] for i in range(n)])


def gen_random_latin(n: int, seed: int) -> LatinSquare:
    """Seeded random Latin square; each row is one perfect matching of columns to symbols.

    After k rows the graph joining each column to its missing symbols is
    (n - k)-regular bipartite, so by Hall's theorem it has a perfect matching.
    max_bipartite_matching draws it over seeded shuffles of the columns and of
    their missing symbols. Deterministic for a fixed seed; not uniform.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    rng = random.Random(seed)
    missing = [list(range(n)) for _ in range(n)]  # per column
    rows: list[list[int]] = []
    for _ in range(n):
        for symbols in missing:
            rng.shuffle(symbols)
        columns = list(range(n))
        rng.shuffle(columns)
        row = [0] * n
        for s, j in enumerate(max_bipartite_matching(missing, columns, n)):
            row[j] = s
            missing[j].remove(s)
        rows.append(row)
    return LatinSquare.from_rows(rows)


# --- text format ----------------------------------------------------------------


def format_latin_text(ls: LatinSquare) -> str:
    """First line n, then n lines of n space-separated symbols."""
    lines = [str(ls.order)]
    lines.extend(" ".join(str(s) for s in row) for row in ls.cells)
    return "\n".join(lines) + "\n"


# the symbols format_latin_text writes; int() alone would also take '+1', '1_0' and '١'
_DECIMAL = re.compile(r"-?[0-9]+")


def parse_latin_text(text: str) -> LatinSquare:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty Latin square text")
    if not _DECIMAL.fullmatch(lines[0].strip()):
        raise ValueError(f"first line must be the order, got {lines[0]!r}")
    n = int(lines[0].strip())
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the order line, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if not all(map(_DECIMAL.fullmatch, tokens)):
            raise ValueError(f"non-integer symbol in row {line!r}")
        if len(tokens) != n:
            raise ValueError(f"row {line!r} has {len(tokens)} symbols, expected {n}")
        rows.append([int(tok) for tok in tokens])
    return LatinSquare.from_rows(rows)


def transversal_from_json(text: str) -> PartialTransversal:
    """A PartialTransversal from a JSON array of distinct [row, column] entries.

    Raises ValueError on anything else; a repeated entry is malformed, not a
    smaller transversal.
    """
    entries = int_rows(json_value(text), 2)
    reject_repeats(entries, "repeated entry")
    return PartialTransversal(frozenset(entries))
