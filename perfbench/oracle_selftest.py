"""Self-test of the oracle: it must reject answers that are wrong.

A broken oracle that accepts everything would look exactly like a correct
program, so every benchmark run first feeds the oracle known-bad answers
and stops if any of them passes.  Run it alone with::

    python3 perfbench/oracle_selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import OracleError, RowIndex, check_read  # noqa: E402

_ROWS = [
    {"neighborhood": "A", "price": 100.0, "bedroomcount": 2.0},
    {"neighborhood": "A", "price": 200.0, "bedroomcount": 3.0},
    {"neighborhood": "B", "price": 300.0, "bedroomcount": 3.0},
    {"neighborhood": "B", "price": 400.0, "bedroomcount": 4.0},
]

_GOOD = "\n".join(
    [
        "ALL [40]",
        "|-- neighborhood: A [25]",
        "|   |-- price: 0-150 [15]",
        "|   `-- price: 150-300 [10]",
        "`-- neighborhood: B [15]",
    ]
)


def _body(rendering, row_count=40, category_count=4, rung="full"):
    return {
        "rung": rung,
        "row_count": row_count,
        "category_count": category_count,
        "rendering": rendering,
    }


#: (what is wrong, response body, words the rejection must name) — each
#: must be rejected against 40 matching rows, for the named reason.
BAD_ANSWERS = [
    ("row count off by one", _body(_GOOD, row_count=41), "row_count"),
    (
        "children that do not sum to the parent",
        _body(_GOOD.replace("[10]", "[9]")),
        "children sum",
    ),
    (
        "an attribute repeated on one path",
        _body(
            _GOOD.replace("price: 0-150", "neighborhood: X").replace(
                "price: 150-300", "neighborhood: Y"
            )
        ),
        "repeats on one path",
    ),
    (
        "siblings split on two attributes",
        _body(_GOOD.replace("price: 150-300", "bedroomcount: 2-3")),
        "several attributes",
    ),
    ("a wrong category_count", _body(_GOOD, category_count=5), "category_count"),
    ("a degraded rung", _body(_GOOD, rung="truncated"), "rung"),
    ("a wrong root count", _body(_GOOD.replace("ALL [40]", "ALL [39]")), "root count"),
]


def run():
    """Raise AssertionError unless the oracle accepts good and rejects bad."""
    index = RowIndex(_ROWS)
    counts = {
        "SELECT * FROM T": 4,
        "SELECT * FROM T WHERE neighborhood IN ('A')": 2,
        "SELECT * FROM T WHERE price BETWEEN 150 AND 300": 2,
        "SELECT * FROM T WHERE price >= 200 AND bedroomcount <= 3": 2,
        "SELECT * FROM T WHERE price <= 150": 1,
        "SELECT * FROM T WHERE neighborhood IN ('B', 'C') AND price >= 350": 1,
    }
    for sql, expected in counts.items():
        got = index.count(sql)
        assert got == expected, f"oracle counts {got} rows for {sql!r}, not {expected}"
    check_read(_body(_GOOD), 40)
    for problem, body, reason in BAD_ANSWERS:
        try:
            check_read(body, 40)
        except OracleError as exc:
            assert reason in str(exc), f"{problem}: rejected for {exc}, not {reason!r}"
            continue
        raise AssertionError(f"oracle accepted an answer with {problem}")


if __name__ == "__main__":
    run()
    print(f"oracle self-test: accepted 1 good answer, rejected {len(BAD_ANSWERS)} bad ones")
