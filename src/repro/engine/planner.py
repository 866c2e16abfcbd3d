"""Strategy selection: how a (possibly nested) query gets evaluated.

The planner exposes the strategies the paper's experiments compare:

``naive``           exhaustive tuple-iteration (nested loop, no smarts);
``native``          a conventional engine's smart nested loop — early
                    termination plus index-assisted correlation lookups;
``native_noindex``  the same with index probes disabled (the Figure 5
                    stability study);
``unnest_join``     conventional join/outer-join unnesting;
``unnest_join_noindex``  the same modelling an engine without indexes
                    (sort-merge instead of indexed joins);
``gmdj``            Algorithm SubqueryToGMDJ, unoptimized;
``gmdj_optimized``  SubqueryToGMDJ + coalescing + completion (Section 4);
``gmdj_chunked``    legacy alias for ``gmdj`` + ``mode="chunked"``
                    (memory-bounded base-chunked evaluation, §2.3);
``gmdj_parallel``   legacy alias for ``gmdj`` + ``mode="partitioned"``
                    (detail-partitioned evaluation, columnwise merge,
                    optionally on a worker pool);
``auto``            gmdj_optimized for nested queries, plain evaluation
                    otherwise.

Orthogonally to the strategy, a :class:`~repro.engine.options.QueryOptions`
``mode`` selects the GMDJ execution regime (plain / chunked /
partitioned) with its ``partitions`` / ``workers`` / ``chunk_budget``
knobs, and ``use_cache`` lets a :class:`~repro.engine.cache.PlanCache`
skip re-translation of plans the database has seen before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.engine.rollup import RollupStore
    from repro.gmdj.operator import GMDJ

from repro.algebra.nested import NestedSelect
from repro.algebra.operators import Operator
from repro.algebra.rewrite import map_children
from repro.baselines.join_unnest import evaluate_join_unnest
from repro.baselines.native import evaluate_native
from repro.baselines.nested_loop import evaluate_naive
from repro.engine.cache import PlanCache
from repro.engine.options import GMDJ_STRATEGIES, QueryOptions, STRATEGIES
from repro.errors import PlanError
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.unnesting.translate import subquery_to_gmdj

__all__ = [
    "STRATEGIES",
    "contains_nested_select",
    "make_executor",
]

#: Translation flags per GMDJ strategy, also the translation-cache key
#: component (strategy name alone would alias distinct plans).
_TRANSLATION_FLAGS = {
    "gmdj": dict(optimize=False),
    "gmdj_coalesce": dict(optimize=True, coalesce=True, completion=False),
    "gmdj_completion": dict(optimize=True, coalesce=False, completion=True),
    "gmdj_optimized": dict(optimize=True),
}


def _lint_gate(plan: Operator, catalog: Catalog, level: str) -> None:
    """Fail-fast static verification of a plan about to execute.

    Only error-severity diagnostics gate execution (the plan would raise
    or silently diverge from SQL semantics); warnings and advice belong
    to the CLI/EXPLAIN surfaces, not the hot path.
    """
    from repro.lint import lint_plan
    from repro.lint.diagnostics import LintWarning

    report = lint_plan(plan, catalog, advice=False)
    if report.ok:
        return
    rendered = "; ".join(d.render() for d in report.errors)
    if level == "strict":
        from repro.errors import LintError

        raise LintError(
            f"static plan verification failed: {rendered}",
            diagnostics=report.errors,
        )
    import warnings

    warnings.warn(
        f"static plan verification found errors: {rendered}",
        LintWarning, stacklevel=3,
    )


def contains_nested_select(operator: Operator) -> bool:
    """True when the tree holds at least one NestedSelect node."""
    found = False

    def visit(node: Operator) -> Operator:
        nonlocal found
        if isinstance(node, NestedSelect):
            found = True
        map_children(node, lambda child: (visit(child), child)[1])
        return node

    visit(operator)
    return found


def make_executor(
    query: Operator,
    catalog: Catalog,
    options: QueryOptions | str = "auto",
    cache: PlanCache | None = None,
    rollups: RollupStore | None = None,
) -> Callable[[], Relation]:
    """Return a zero-argument callable that evaluates ``query``.

    Translation-time work (for the GMDJ strategies) happens inside the
    callable as well, matching how the paper's timings include rewrite
    cost (it is negligible; evaluation dominates) — unless ``cache``
    holds the translated plan already.  When tracing is enabled the run
    is wrapped in a ``query`` span carrying the resolved strategy name,
    so traces attribute all work to the strategy that actually ran.
    """
    options = QueryOptions.of(options)
    requested = options.strategy
    options = options.canonical()
    if options.lint in ("warn", "strict"):
        # Verify the input tree eagerly — this covers the baseline
        # strategies (which execute the query as-is); the GMDJ
        # strategies additionally verify their translated plan inside
        # the runner (see _translator).
        _lint_gate(query, catalog, options.lint)
    resolved, mode, runner = _resolve_executor(
        query, catalog, options, cache, rollups
    )

    def traced() -> Relation:
        from repro.obs.tracer import span

        attrs = dict(strategy=resolved, requested=requested)
        if mode is not None:
            attrs["mode"] = mode
        with span("query", kind="query", **attrs):
            return runner()

    return traced


def _translator(
    query: Operator,
    catalog: Catalog,
    strategy: str,
    options: QueryOptions,
    cache: PlanCache | None,
) -> Callable[[], Operator]:
    """A callable producing the translated GMDJ plan, cache-aware.

    With ``options.lint`` active the translated plan passes through the
    static verifier before it is returned for evaluation — *after* any
    cache retrieval, since the translation cache is shared across
    options objects and a cached plan may never have been linted.
    """
    flags = _TRANSLATION_FLAGS[strategy]
    lint = options.lint if options.lint in ("warn", "strict") else None

    def verified(plan: Operator) -> Operator:
        if lint is not None:
            _lint_gate(plan, catalog, lint)
        return plan

    if cache is None or not options.use_cache:
        return lambda: verified(subquery_to_gmdj(query, catalog, **flags))

    key = (strategy, PlanCache.plan_key(query))

    def translate() -> Operator:
        plan = cache.translation(key)
        if plan is None:
            plan = subquery_to_gmdj(query, catalog, **flags)
            cache.store_translation(key, plan)
        return verified(plan)

    return translate


def _rollup_node_runners(
    catalog: Catalog, options: QueryOptions
) -> tuple[Callable[[GMDJ], Relation], Callable[..., Relation] | None]:
    """Per-GMDJ-node kernel runners for the rollup walker's miss path.

    Replicates the four-way mode dispatch of :func:`_gmdj_runner` at node
    granularity: on a rollup miss the walker evaluates exactly as the
    requested mode would have, so warm and cold runs stay row-identical.
    """
    if options.mode == "chunked":
        from repro.gmdj.chunked import evaluate_gmdj_chunked
        from repro.gmdj.modes import DEFAULT_MEMORY_TUPLES

        budget = options.chunk_budget or DEFAULT_MEMORY_TUPLES
        return (
            lambda gmdj: evaluate_gmdj_chunked(gmdj, catalog, budget),
            None,
        )
    if options.mode == "partitioned":
        from repro.gmdj.modes import DEFAULT_PARTITIONS
        from repro.gmdj.parallel import evaluate_gmdj_partitioned
        from repro.gmdj.pool import resolve_workers

        partitions = options.partitions or DEFAULT_PARTITIONS
        workers = resolve_workers(options.workers)
        return (
            lambda gmdj: evaluate_gmdj_partitioned(
                gmdj, catalog, partitions, workers=workers,
            ),
            None,
        )
    if options.mode == "gmdj_vectorized":
        from repro.gmdj.vectorized import (
            evaluate_gmdj_vectorized,
            evaluate_select_gmdj_vectorized,
            resolve_chunk_size,
        )

        if options.chunk_budget is not None:
            from repro.gmdj.chunked import evaluate_gmdj_chunked

            return (
                lambda gmdj: evaluate_gmdj_chunked(
                    gmdj, catalog, options.chunk_budget,
                    vectorized=True, chunk_size=options.chunk_size,
                    backend=options.backend,
                ),
                None,
            )
        if options.partitions is not None or options.workers is not None:
            from repro.gmdj.modes import DEFAULT_PARTITIONS
            from repro.gmdj.parallel import evaluate_gmdj_partitioned
            from repro.gmdj.pool import resolve_workers

            partitions = options.partitions or DEFAULT_PARTITIONS
            workers = resolve_workers(options.workers)
            return (
                lambda gmdj: evaluate_gmdj_partitioned(
                    gmdj, catalog, partitions, workers=workers,
                    vectorized=True, chunk_size=options.chunk_size,
                    backend=options.backend,
                ),
                None,
            )
        resolved = resolve_chunk_size(options.chunk_size)
        return (
            lambda gmdj: evaluate_gmdj_vectorized(
                gmdj, catalog, resolved, backend=options.backend
            ),
            lambda node: evaluate_select_gmdj_vectorized(
                node, catalog, resolved, backend=options.backend
            ),
        )
    return (lambda gmdj: gmdj.evaluate(catalog), None)


def _certified_runner(
    translate: Callable[[], Operator],
    catalog: Catalog,
    run: Callable[[Operator], Relation],
) -> Callable[[], Relation]:
    """Translate, certify, and execute under the certificate's scope.

    Every GMDJ-strategy runner goes through here: the translated plan's
    :class:`~repro.lint.absint.CapabilityCertificate` is derived once
    and installed as the ambient certificate for the evaluation, so
    downstream certificate-gated optimizations (the vectorized kernel's
    mask skip, in particular) can consult it without new plumbing
    through every evaluation signature.  Certification reads stored
    nullability from each table's maintained null counts, so it costs
    O(columns), and is traced as a ``certify`` span.
    """
    from repro.lint.absint import capability_scope, certify_capabilities
    from repro.obs.tracer import span

    def runner() -> Relation:
        plan = translate()
        with span("certify", kind="certify"):
            certificate = certify_capabilities(plan, catalog)
        with capability_scope(certificate):
            return run(plan)

    return runner


def _gmdj_runner(
    query: Operator,
    catalog: Catalog,
    strategy: str,
    options: QueryOptions,
    cache: PlanCache | None,
    rollups: RollupStore | None = None,
) -> Callable[[], Relation]:
    """Build the runner for a GMDJ strategy under the requested mode."""
    translate = _translator(query, catalog, strategy, options, cache)
    if rollups is not None and options.rollup in ("exact", "subsume"):
        from repro.engine.rollup import evaluate_plan_rollup

        node_runner, select_runner = _rollup_node_runners(catalog, options)
        subsume = options.rollup == "subsume"
        return _certified_runner(translate, catalog, lambda plan:
            evaluate_plan_rollup(
                plan, catalog, rollups, subsume,
                node_runner, select_runner,
            ))
    if options.mode == "chunked":
        from repro.gmdj.modes import DEFAULT_MEMORY_TUPLES, evaluate_plan_chunked

        budget = options.chunk_budget or DEFAULT_MEMORY_TUPLES
        return _certified_runner(translate, catalog, lambda plan:
            evaluate_plan_chunked(plan, catalog, budget))
    if options.mode == "partitioned":
        from repro.gmdj.modes import DEFAULT_PARTITIONS, evaluate_plan_partitioned

        partitions = options.partitions or DEFAULT_PARTITIONS
        return _certified_runner(translate, catalog, lambda plan:
            evaluate_plan_partitioned(
                plan, catalog, partitions, workers=options.workers,
            ))
    if options.mode == "gmdj_vectorized":
        # The vectorized kernel composes with the fragmentation regimes:
        # a chunk_budget selects base-chunked scans on batch kernels,
        # partitions/workers selects partitioned (possibly pooled) scans
        # on batch kernels; with neither it is single-scan batch
        # evaluation.
        from repro.gmdj.modes import (
            DEFAULT_PARTITIONS,
            evaluate_plan_chunked,
            evaluate_plan_partitioned,
            evaluate_plan_vectorized,
        )

        if options.chunk_budget is not None:
            return _certified_runner(translate, catalog, lambda plan:
                evaluate_plan_chunked(
                    plan, catalog, options.chunk_budget,
                    vectorized=True, chunk_size=options.chunk_size,
                    backend=options.backend,
                ))
        if options.partitions is not None or options.workers is not None:
            partitions = options.partitions or DEFAULT_PARTITIONS
            return _certified_runner(translate, catalog, lambda plan:
                evaluate_plan_partitioned(
                    plan, catalog, partitions, workers=options.workers,
                    vectorized=True, chunk_size=options.chunk_size,
                    backend=options.backend,
                ))
        return _certified_runner(translate, catalog, lambda plan:
            evaluate_plan_vectorized(plan, catalog, options.chunk_size,
                                     backend=options.backend))
    return _certified_runner(translate, catalog,
                             lambda plan: plan.evaluate(catalog))


def _resolve_executor(
    query: Operator, catalog: Catalog, options: QueryOptions,
    cache: PlanCache | None, rollups: RollupStore | None = None,
) -> tuple[str, str | None, Callable[[], Relation]]:
    """Resolve ``auto``/``cost_based`` and build the raw runner."""
    strategy = options.strategy
    if strategy == "auto":
        if not contains_nested_select(query):
            return "plain", None, lambda: query.evaluate(catalog)
        strategy = "gmdj_optimized"
    if strategy == "cost_based":
        from repro.engine.costmodel import choose_strategy, contains_apply

        if not contains_nested_select(query) and not contains_apply(query):
            return "plain", None, lambda: query.evaluate(catalog)
        strategy = choose_strategy(query, catalog)
        if strategy not in GMDJ_STRATEGIES and options.mode is not None:
            # The cost model picked a baseline; there is no GMDJ to
            # fragment, so the mode knobs do not apply.
            options = QueryOptions.of(strategy)
    if strategy == "naive":
        return strategy, None, lambda: evaluate_naive(query, catalog)
    if strategy == "native":
        return strategy, None, lambda: evaluate_native(
            query, catalog, use_indexes=True
        )
    if strategy == "native_noindex":
        return strategy, None, lambda: evaluate_native(
            query, catalog, use_indexes=False
        )
    if strategy == "unnest_join":
        return strategy, None, lambda: evaluate_join_unnest(
            query, catalog, use_indexes=True
        )
    if strategy == "unnest_join_noindex":
        return strategy, None, lambda: evaluate_join_unnest(
            query, catalog, use_indexes=False
        )
    if strategy in _TRANSLATION_FLAGS:
        return strategy, options.mode, _gmdj_runner(
            query, catalog, strategy, options, cache, rollups
        )
    raise PlanError(
        f"unknown strategy {strategy!r}; choose one of {STRATEGIES}"
    )
