"""SQLite ground truth and NULL-aware row digests.

The reference database mirrors the generated tables in stdlib
``sqlite3``, with every insert batch the run may apply already present
and tagged with its data version in an extra ``orders.ver`` column (0
for the initial rows).  A read that observed data version ``v`` is
checked against the reference query with ``o.ver <= v`` — so one
reference database answers for every version, and the reference is
"recomputed after each insert" without rebuilding anything.

Rows are compared as NULL-aware bags through
:func:`repro.fuzz.oracle.normalize_rows` (``2`` equals ``2.0``, float
noise below 1e-9 is ignored), reduced to a SHA-1 digest so the engine
process can hand back compact results.
"""

from __future__ import annotations

import hashlib
import sqlite3

from perfbench.datagen import CUSTOMER_COLUMNS, ORDERS_COLUMNS


def digest(rows) -> str:
    """Order-insensitive digest of a row bag (NULL-aware, normalized)."""
    from repro.fuzz.oracle import normalize_rows

    bag = normalize_rows(rows)
    items = sorted(bag.items(), key=repr)
    return hashlib.sha1(repr(items).encode()).hexdigest()


class Reference:
    """An in-memory SQLite mirror answering versioned reference queries."""

    def __init__(self, tables: dict[str, list[tuple]],
                 inserts: list[list[tuple]]):
        self.connection = sqlite3.connect(":memory:")
        self._digests: dict[tuple[str, int], str] = {}
        self.connection.execute(
            "CREATE TABLE customer (custkey INTEGER PRIMARY KEY, "
            + ", ".join(f"{c} INTEGER" for c in CUSTOMER_COLUMNS[1:]) + ")")
        self.connection.execute(
            "CREATE TABLE orders (orderkey INTEGER PRIMARY KEY, "
            + ", ".join(f"{c} INTEGER" for c in ORDERS_COLUMNS[1:])
            + ", ver INTEGER)")
        self.connection.executemany(
            "INSERT INTO customer VALUES (?, ?, ?, ?)", tables["customer"])
        self.connection.executemany(
            "INSERT INTO orders VALUES (?, ?, ?, ?, ?, 0)", tables["orders"])
        for version, rows in enumerate(inserts, start=1):
            self.connection.executemany(
                f"INSERT INTO orders VALUES (?, ?, ?, ?, ?, {version})", rows)
        # Covering index led by the correlation key: every correlated
        # subquery becomes an index range scan.
        self.connection.execute(
            "CREATE INDEX orders_by_customer ON orders "
            "(custkey, ver, totalprice, orderdate, priority)")
        self.connection.execute("ANALYZE")

    def digest(self, sqlite_text: str, version: int) -> str:
        key = (sqlite_text, version)
        cached = self._digests.get(key)
        if cached is None:
            text = sqlite_text.replace("{v}", str(version))
            cached = digest(self.connection.execute(text).fetchall())
            self._digests[key] = cached
        return cached

    def matches(self, sqlite_text: str, observed: str,
                versions: range) -> bool:
        """Whether ``observed`` equals the reference at any version in
        ``versions`` (the versions a concurrent read may have seen)."""
        return any(self.digest(sqlite_text, version) == observed
                   for version in versions)

    def close(self) -> None:
        self.connection.close()
