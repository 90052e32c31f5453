"""The benchmark's own view of the data: CSV rows, SQL conditions, tree checks.

Everything here is computed independently of the program under test, so it
can judge the program's answers: a stdlib CSV reader, a parser for the flat
conjunctive SELECTs the workload logs hold, predicate evaluation over the
rows, and a checker for the ASCII tree ``/categorize`` renders.
"""

from __future__ import annotations

import bisect
import csv
import re

#: M, the paper's maximum category size: a result this small gets no tree.
MAX_TUPLES = 20

_TOKEN = re.compile(
    r"\s*(?:(?P<num>-?\d+(?:\.\d+)?)|(?P<str>'(?:[^']|'')*')"
    r"|(?P<op>>=|<=|[(),*])|(?P<word>[A-Za-z_][A-Za-z0-9_]*))"
)


class OracleError(AssertionError):
    """A program answer that disagrees with the benchmark's own computation."""


def read_rows(path):
    """All rows of a CSV file as dicts; numeric-looking fields become floats."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = []
        for record in reader:
            row = {}
            for name, text in zip(header, record):
                try:
                    row[name] = float(text)
                except ValueError:
                    row[name] = text
            rows.append(row)
    return rows


def _tokens(sql):
    position, tokens = 0, []
    sql = sql.strip()
    while position < len(sql):
        match = _TOKEN.match(sql, position)
        if match is None or match.end() == position:
            raise ValueError(f"cannot tokenize {sql[position:]!r}")
        position = match.end()
        kind = match.lastgroup
        text = match.group(kind)
        if kind == "num":
            tokens.append(("lit", float(text)))
        elif kind == "str":
            tokens.append(("lit", text[1:-1].replace("''", "'")))
        elif kind == "word" and text.upper() in ("SELECT", "FROM", "WHERE", "AND", "BETWEEN", "IN"):
            tokens.append(("kw", text.upper()))
        else:
            tokens.append((kind, text))
    return tokens


def parse_conditions(sql):
    """``SELECT * FROM T [WHERE c AND c ...]`` as a list of conditions.

    A condition is ``(attribute, "in", frozenset)`` or
    ``(attribute, "range", low, high)`` with inclusive float bounds
    (``None`` for an open end): the forms the workload logs hold.
    """
    tokens = _tokens(sql) + [("end", None)]
    expected = [("kw", "SELECT"), ("op", "*"), ("kw", "FROM")]
    if tokens[:3] != expected or tokens[3][0] != "word":
        raise ValueError(f"not a flat SELECT: {sql!r}")
    at = 4
    conditions = []
    if tokens[at] == ("end", None):
        return conditions
    if tokens[at] != ("kw", "WHERE"):
        raise ValueError(f"expected WHERE in {sql!r}")
    while True:
        kind, attribute = tokens[at + 1]
        if kind != "word":
            raise ValueError(f"expected an attribute in {sql!r}")
        head = tokens[at + 2]
        if head == ("kw", "BETWEEN"):
            low, _, high = tokens[at + 3], tokens[at + 4], tokens[at + 5]
            conditions.append((attribute, "range", low[1], high[1]))
            at += 6
        elif head == ("kw", "IN"):
            values, at = [], at + 4
            while True:
                values.append(tokens[at][1])
                at += 1
                if tokens[at] == ("op", ")"):
                    at += 1
                    break
                at += 1  # the comma
            conditions.append((attribute, "in", frozenset(values)))
        elif head[1] in (">=", "<="):
            value = tokens[at + 3][1]
            bounds = (value, None) if head[1] == ">=" else (None, value)
            conditions.append((attribute, "range", *bounds))
            at += 4
        else:
            raise ValueError(f"unsupported condition in {sql!r}")
        if tokens[at] == ("end", None):
            return conditions
        if tokens[at] != ("kw", "AND"):
            raise ValueError(f"expected AND in {sql!r}")


def _bitmap(positions, size):
    bits = bytearray((size + 7) // 8)
    for position in positions:
        bits[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(bits, "little")


class _Column:
    """One attribute as row bitmaps: per distinct value, and cumulative."""

    def __init__(self, values):
        positions = {}
        for row_number, value in enumerate(values):
            positions.setdefault(value, []).append(row_number)
        self.values = sorted(positions, key=lambda v: (isinstance(v, str), v))
        self.equal = {v: _bitmap(positions[v], len(values)) for v in self.values}
        self.at_most = []  # at_most[i]: rows whose value <= values[i]
        running = 0
        for value in self.values:
            running |= self.equal[value]
            self.at_most.append(running)

    def _below(self, bound, inclusive):
        """Rows whose value is < bound (<= when ``inclusive``)."""
        cut = (bisect.bisect_right if inclusive else bisect.bisect_left)(self.values, bound)
        return self.at_most[cut - 1] if cut else 0

    def rows(self, condition, everything):
        if condition[1] == "in":
            mask = 0
            for value in condition[2]:
                mask |= self.equal.get(value, 0)
            return mask
        low, high = condition[2], condition[3]
        upper = everything if high is None else self._below(high, True)
        return upper if low is None else upper & ~self._below(low, False)


class RowIndex:
    """The CSV rows as per-attribute bitmaps; counts are popcounts of ANDs."""

    def __init__(self, rows):
        self.size = len(rows)
        self.everything = (1 << self.size) - 1
        self.columns = {
            name: _Column([row[name] for row in rows]) for name in rows[0]
        }

    def count(self, sql):
        """How many rows satisfy every condition of ``sql``."""
        mask = self.everything
        for condition in parse_conditions(sql):
            mask &= self.columns[condition[0]].rows(condition, self.everything)
        return mask.bit_count()


_LINE = re.compile(r"^((?:\|   |    )*)(?:\|-- |`-- )(.*) \[(\d+)\]$")


def parse_tree(rendering):
    """The rendered tree as nested ``(attribute, count, children)`` tuples."""
    lines = rendering.split("\n")
    root = re.fullmatch(r"ALL \[(\d+)\]", lines[0])
    if root is None:
        raise OracleError(f"root line {lines[0]!r} is not 'ALL [n]'")
    tree = (None, int(root.group(1)), [])
    stack = [tree]
    for line in lines[1:]:
        match = _LINE.match(line)
        if match is None:
            raise OracleError(f"unparseable tree line {line!r}")
        depth = len(match.group(1)) // 4 + 1
        if depth > len(stack):
            raise OracleError(f"tree line {line!r} skips a level")
        del stack[depth:]
        node = (match.group(2).split(":", 1)[0], int(match.group(3)), [])
        stack[-1][2].append(node)
        stack.append(node)
    return tree


def check_read(body, expected_rows):
    """Check one ``/categorize`` response body against the benchmark's count.

    Raises:
        OracleError: naming the first property the response violates.
    """
    if body.get("rung") != "full":
        raise OracleError(f"served at rung {body.get('rung')!r}, not 'full'")
    if body.get("row_count") != expected_rows:
        raise OracleError(
            f"row_count {body.get('row_count')} != {expected_rows} matching rows"
        )
    if not isinstance(body.get("rendering"), str):
        raise OracleError("no rendered tree in the response")
    tree = parse_tree(body["rendering"])
    if tree[1] != expected_rows:
        raise OracleError(f"root count {tree[1]} != {expected_rows} matching rows")
    categories = 0
    pending = [(tree, frozenset())]
    while pending:
        (_, count, children), path = pending.pop()
        if not children:
            continue
        categories += len(children)
        attributes = {child[0] for child in children}
        if len(attributes) != 1:
            raise OracleError(f"siblings split on several attributes {sorted(attributes)}")
        (attribute,) = attributes
        if attribute in path:
            raise OracleError(f"attribute {attribute!r} repeats on one path")
        total = sum(child[1] for child in children)
        if total != count:
            raise OracleError(f"children sum to {total}, parent holds {count}")
        pending.extend((child, path | {attribute}) for child in children)
    if categories != body.get("category_count"):
        raise OracleError(
            f"{categories} rendered categories != category_count "
            f"{body.get('category_count')}"
        )
    if expected_rows <= MAX_TUPLES and categories:
        raise OracleError(f"a {expected_rows}-row result was categorized")
