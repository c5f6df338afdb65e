"""Latin squares, their coloured-graph form, and transversal conversions.

Orientation convention, fixed everywhere: A-vertices are columns, B-vertices
are rows. The cell in row i, column j with symbol s becomes the edge a_j b_i
of colour s, so each colour class of the resulting instance is a perfect
matching and a size-n rainbow matching corresponds to a transversal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .core import (
    Instance,
    RainbowMatching,
    make_instance,
    make_matching,
)


@dataclass(frozen=True)
class LatinSquare:
    """An n x n symbol matrix; valid when every symbol appears once per row and column."""

    order: int
    cells: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "LatinSquare":
        matrix = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(order=len(matrix), cells=matrix)

    def symbol(self, row: int, col: int) -> int:
        return self.cells[row][col]


@dataclass(frozen=True)
class PartialTransversal:
    """Cell positions with distinct rows, columns and symbols."""

    entries: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.entries)

    def sorted_entries(self) -> list[tuple[int, int]]:
        return sorted(self.entries)


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
    rows: set[int] = set()
    cols: set[int] = set()
    symbols: set[int] = set()
    entries: set[tuple[int, int]] = set()
    for ce in r.sorted_edges():
        col, row = ce.edge.pair
        if not (0 <= col < n and 0 <= row < n and 0 <= ce.colour < n):
            raise ValueError(f"edge {ce!r} outside the order-{n} square")
        if ls.cells[row][col] != ce.colour:
            raise ValueError(
                f"edge {ce!r} disagrees with cell ({row},{col}) holding symbol {ls.cells[row][col]}"
            )
        if row in rows or col in cols or ce.colour in symbols:
            raise ValueError(f"not a rainbow matching: {ce!r} repeats a row, column or symbol")
        rows.add(row)
        cols.add(col)
        symbols.add(ce.colour)
        entries.add((row, col))
    return PartialTransversal(frozenset(entries))


def transversal_to_rainbow(ls: LatinSquare, t: PartialTransversal) -> RainbowMatching:
    """Inverse of rainbow_to_transversal; raises ValueError on an invalid transversal."""
    n = ls.order
    if not is_partial_transversal(ls, t):
        raise ValueError("entries do not form a partial transversal")
    triples = []
    for row, col in t.sorted_entries():
        if not (0 <= row < n and 0 <= col < n):
            raise ValueError(f"entry ({row},{col}) outside the order-{n} square")
        triples.append((ls.cells[row][col], col, row))
    return make_matching(triples)


def is_partial_transversal(ls: LatinSquare, t: PartialTransversal) -> bool:
    """True iff rows, columns and symbols of the entries are pairwise distinct."""
    rows = [row for row, _ in t.entries]
    cols = [col for _, col in t.entries]
    if any(not (0 <= row < ls.order and 0 <= col < ls.order) for row, col in t.entries):
        return False
    symbols = [ls.cells[row][col] for row, col in t.entries]
    return (
        len(set(rows)) == len(rows)
        and len(set(cols)) == len(cols)
        and len(set(symbols)) == len(symbols)
    )


def gen_cyclic(n: int) -> LatinSquare:
    """Addition table of Z_n: cells[i][j] = (i + j) mod n."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return LatinSquare.from_rows([[(i + j) % n for j in range(n)] for i in range(n)])


def gen_random_latin(n: int, seed: int) -> LatinSquare:
    """Seeded random Latin square via row-by-row backtracking.

    Each row is completed against the symbols still unused in every column with
    seeded shuffles of the candidate symbols; any k x n Latin rectangle extends,
    so no cross-row backtracking is needed. Deterministic for a fixed seed; the
    distribution is not uniform.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    rng = random.Random(seed)
    col_free: list[set[int]] = [set(range(n)) for _ in range(n)]
    rows: list[list[int]] = []
    for _ in range(n):
        row = _random_row(n, col_free, rng)
        for j, s in enumerate(row):
            col_free[j].remove(s)
        rows.append(row)
    return LatinSquare.from_rows(rows)


def _random_row(n: int, col_free: list[set[int]], rng: random.Random) -> list[int]:
    row = [-1] * n
    used: set[int] = set()

    def fill(j: int) -> bool:
        if j == n:
            return True
        candidates = sorted(col_free[j] - used)
        rng.shuffle(candidates)
        for s in candidates:
            row[j] = s
            used.add(s)
            if fill(j + 1):
                return True
            used.remove(s)
            row[j] = -1
        return False

    if not fill(0):
        raise RuntimeError("row extension failed; Latin rectangle invariant broken")
    return row


# --- text format ----------------------------------------------------------------


def format_latin_text(ls: LatinSquare) -> str:
    """First line n, then n lines of n space-separated symbols."""
    lines = [str(ls.order)]
    lines.extend(" ".join(str(s) for s in row) for row in ls.cells)
    return "\n".join(lines) + "\n"


def parse_latin_text(text: str) -> LatinSquare:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty Latin square text")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ValueError(f"first line must be the order, got {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the order line, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"non-integer symbol in row {line!r}") from exc
        if len(row) != n:
            raise ValueError(f"row {line!r} has {len(row)} symbols, expected {n}")
        rows.append(row)
    return LatinSquare.from_rows(rows)
