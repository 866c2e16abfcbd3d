"""Per-layer timing: replay one op's work through each layer's public entry.

The engine holds no benchmark spans (that is a later change), so each
layer is measured from outside: the traced run executes the op end to
end once, then calls every layer's public function on the same op and
times each call.  The layers are disjoint where it matters for the
ledger:

* ``sql.compile_ms``          ``repro.sql.compile_sql``
* ``unnesting.translate_ms``  ``subquery_to_gmdj`` with the strategy's flags
* ``engine.mqo_plan_ms``      ``repro.engine.mqo.plan_batch`` over a plan
  cache the op's translations are already in, so translation is not
  counted twice
* ``lint.certify_ms``         the certification the path runs:
  ``certify_capabilities`` for single plans, ``certify_plan`` for a
  coalesced share group
* ``gmdj.kernel_ms``          the translated plan (or shared GMDJ)
  evaluated with the workload's kernel, under ``capability_scope``
* ``algebra.scan_ms``         ``ScanTable(orders).evaluate`` — the detail
  scan view; it happens inside the kernel, so it is reported but not
  added to the ledger a second time.

``ledger_ms`` is the sum the ledger charges to named layers; the rest of
the end-to-end wall time is ``engine.unattributed_ms``.
"""

from __future__ import annotations

import time
from typing import Callable

#: ``subquery_to_gmdj`` flags per GMDJ strategy (the planner's mapping:
#: ``auto`` resolves nested queries to ``gmdj_optimized``).
TRANSLATION_FLAGS = {
    "gmdj": {"optimize": False},
    "gmdj_optimized": {"optimize": True},
}

#: Layers summed into the ledger (``algebra.scan_ms`` nests in the kernel).
LEDGER_LAYERS = ("sql.compile_ms", "unnesting.translate_ms",
                 "engine.mqo_plan_ms", "lint.certify_ms", "gmdj.kernel_ms")


class _Clock:
    """Accumulates milliseconds per layer name."""

    def __init__(self) -> None:
        self.ms: dict[str, float] = {}

    def time(self, layer: str, call: Callable):
        started = time.perf_counter()
        result = call()
        elapsed = (time.perf_counter() - started) * 1000.0
        self.ms[layer] = self.ms.get(layer, 0.0) + elapsed
        return result


def _kernel(backend: str | None) -> Callable:
    if backend is None:
        return lambda plan, catalog: plan.evaluate(catalog)
    from repro.gmdj.modes import evaluate_plan_vectorized

    return lambda plan, catalog: evaluate_plan_vectorized(
        plan, catalog, None, backend=backend)


def _scan(clock: _Clock, catalog) -> None:
    from repro.algebra.operators import ScanTable

    clock.time("algebra.scan_ms",
               lambda: ScanTable("orders", "o").evaluate(catalog))


def single_query(catalog, text: str, strategy: str,
                 backend: str | None = None) -> dict[str, float]:
    """Layer times (ms) of one query on the single-query path."""
    from repro.lint.absint import capability_scope, certify_capabilities
    from repro.sql import compile_sql
    from repro.unnesting.translate import subquery_to_gmdj

    clock = _Clock()
    kernel = _kernel(backend)
    query = clock.time("sql.compile_ms", lambda: compile_sql(text, catalog))
    plan = clock.time("unnesting.translate_ms", lambda: subquery_to_gmdj(
        query, catalog, **TRANSLATION_FLAGS[strategy]))
    certificate = clock.time("lint.certify_ms",
                             lambda: certify_capabilities(plan, catalog))

    def evaluate():
        with capability_scope(certificate):
            return kernel(plan, catalog)

    clock.time("gmdj.kernel_ms", evaluate)
    _scan(clock, catalog)
    return clock.ms


def batch(catalog, texts: list[str], options) -> dict[str, float]:
    """Layer times (ms) of one batch on the MQO path (``options.backend``
    names the kernel, as on the batch path's vectorized mode)."""
    from repro.engine.cache import PlanCache
    from repro.engine.mqo import plan_batch
    from repro.gmdj.vectorized import evaluate_gmdj_vectorized
    from repro.lint.absint import capability_scope, certify_capabilities
    from repro.lint.cost import certify_plan
    from repro.sql import compile_sql
    from repro.unnesting.translate import subquery_to_gmdj

    clock = _Clock()
    kernel = _kernel(options.backend)
    flags = TRANSLATION_FLAGS["gmdj_optimized"]
    queries = [clock.time("sql.compile_ms",
                          lambda text=text: compile_sql(text, catalog))
               for text in texts]
    plans = [clock.time("unnesting.translate_ms",
                        lambda query=query: subquery_to_gmdj(
                            query, catalog, **flags))
             for query in queries]
    cache = PlanCache(len(texts) * 2)
    plan_batch(queries, catalog, options, cache=cache)  # fills the cache
    planned = clock.time("engine.mqo_plan_ms",
                         lambda: plan_batch(queries, catalog, options,
                                            cache=cache))
    for group in planned.groups:
        clock.time("lint.certify_ms", lambda: certify_plan(group.shared.gmdj))
        clock.time("gmdj.kernel_ms", lambda: evaluate_gmdj_vectorized(
            group.shared.gmdj, catalog, None, backend=options.backend))
    for index in planned.singletons:
        plan = plans[index]
        certificate = clock.time("lint.certify_ms",
                                 lambda: certify_capabilities(plan, catalog))

        def evaluate():
            with capability_scope(certificate):
                return kernel(plan, catalog)

        clock.time("gmdj.kernel_ms", evaluate)
    _scan(clock, catalog)
    return clock.ms


def ledger_ms(layers: dict[str, float]) -> float:
    return sum(layers.get(name, 0.0) for name in LEDGER_LAYERS)
