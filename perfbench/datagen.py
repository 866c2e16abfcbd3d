"""Seeded table generation, the ``.cols`` writer and the data checksum.

Tables are generated with :class:`random.Random` from the seed alone, so
the same seed gives byte-identical tables on every machine.  They are
written through the public :func:`repro.storage.binio.save_binary`, and
the engine under test only ever sees them through
``Database.load_binary`` or ``repro serve --data``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from perfbench.workloads import (
    ACCTBAL_MAX,
    DATE_MAX,
    INSERT_ROWS,
    NATIONS,
    PRICE_MAX,
    PRIORITIES,
    Workload,
)

CUSTOMER_COLUMNS = ("custkey", "nationkey", "acctbal", "lastorder")
ORDERS_COLUMNS = ("orderkey", "custkey", "totalprice", "orderdate", "priority")


def _order(rng: random.Random, orderkey: int, customers: int) -> tuple:
    return (orderkey, rng.randrange(customers), rng.randrange(100, PRICE_MAX),
            rng.randrange(DATE_MAX), 1 + rng.randrange(PRIORITIES))


def make_tables(workload: Workload, seed: int) -> dict[str, list[tuple]]:
    """The workload's ``customer`` and ``orders`` rows for ``seed``."""
    rng = random.Random(f"perfbench-data-{workload.name}-{seed}")
    customers = [
        (key, rng.randrange(NATIONS), rng.randrange(ACCTBAL_MAX),
         rng.randrange(workload.orders))
        for key in range(workload.customers)
    ]
    orders = [_order(rng, key, workload.customers)
              for key in range(workload.orders)]
    return {"customer": customers, "orders": orders}


def insert_rows(workload: Workload, seed: int, version: int) -> list[tuple]:
    """The orders appended by write op ``version`` (1-based)."""
    rng = random.Random(f"perfbench-insert-{workload.name}-{seed}-{version}")
    first = workload.orders + (version - 1) * INSERT_ROWS
    return [_order(rng, first + i, workload.customers)
            for i in range(INSERT_ROWS)]


def checksum(tables: dict[str, list[tuple]]) -> str:
    """SHA-256 over every table's name and rows, in a fixed order."""
    digest = hashlib.sha256()
    for name in sorted(tables):
        digest.update(name.encode())
        for row in tables[name]:
            digest.update(repr(row).encode())
    return digest.hexdigest()


def write_cols(tables: dict[str, list[tuple]], directory: Path) -> None:
    """Write every table as ``<directory>/<name>.cols``."""
    from repro.storage import DataType, Field, Relation, Schema, save_binary

    columns = {"customer": CUSTOMER_COLUMNS, "orders": ORDERS_COLUMNS}
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        schema = Schema(Field(column, DataType.INTEGER)
                        for column in columns[name])
        relation = Relation(schema, rows, name=name, validate=False)
        save_binary(relation, directory / f"{name}.cols")
