"""End-to-end OLAP subquery benchmark; see ``perfbench/README.md``."""
