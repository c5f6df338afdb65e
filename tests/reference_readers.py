"""The trace readers as they were before they tested whole arrays first.

instance_from_payload, validate_instance and state_from_payload here walk
their input one row and one value at a time. The library's readers must give
the same values, the same exceptions with the same messages, and the same
Violation lists in the same order; tests/test_readers.py compares them.
class_pairs is a class's pairs as make_instance built them, through a set.
"""

from __future__ import annotations

from rainbowbench.core import (
    Instance,
    RainbowMatching,
    Violation,
    int_rows,
    json_int,
    json_list,
    make_instance,
    make_matching,
    matching_rows,
    reject_repeats,
)
from rainbowbench.proofkit import SwitchState, _eps_from_json


def instance_from_payload(payload: object) -> Instance:
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


def class_pairs(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(a, b) for a, b in pairs}))


def validate_instance(inst: Instance) -> list[Violation]:
    violations: list[Violation] = []
    for idx, cls in enumerate(inst.classes):
        if any(p >= q for p, q in zip(cls.pairs, cls.pairs[1:])):
            violations.append(
                Violation("unsorted_pairs", idx, f"colour {idx} pairs are not sorted and distinct")
            )
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


def _json_index(value: object) -> int:
    index = json_int(value)
    if index < 0:
        raise ValueError(f"vertex index must be non-negative, got {index}")
    return index


def state_from_payload(inst: Instance, payload: dict) -> SwitchState:
    def edges(rows) -> tuple[tuple[int, int, int], ...]:
        return tuple((c, _json_index(a), _json_index(b)) for c, a, b in int_rows(rows, 3))

    def index_sets(name: str) -> tuple[frozenset[int], ...]:
        sets = []
        for i, values in enumerate(json_list(payload[name])):
            indices = [_json_index(v) for v in json_list(values)]
            reject_repeats(indices, f"{name}[{i}]: repeated index")
            sets.append(frozenset(indices))
        return tuple(sets)

    return SwitchState(
        inst=inst,
        r=make_matching(matching_rows(payload["r"])),
        eps=_eps_from_json(payload["eps"]),
        t=json_int(payload["t"]),
        k=json_int(payload["k"]),
        e_seq=edges(payload["e_seq"]),
        g_seq=edges(payload["g_seq"]),
        x_sets=index_sets("x_sets"),
        y_sets=index_sets("y_sets"),
        pi=tuple(map(json_int, json_list(payload["pi"]))),
    )


def matching_from_rows(rows: object) -> RainbowMatching:
    """How an augmented step's matching was read: matching_rows, then make_matching."""
    return make_matching(matching_rows(rows))
