"""Whole-array GMDJ detail scan: the numpy backend.

The python batch kernel (:mod:`repro.gmdj.vectorized`) amortizes closure
dispatch across chunks but still executes one generated Python frame per
chunk element.  This kernel eliminates per-row Python entirely for
completion-free scans:

* θ residuals and invariant filters evaluate as whole-array 3VL masks
  (:mod:`repro.algebra.npcompile`) over zero-copy column views
  (:mod:`repro.storage.npcolumns`);
* hash probing factorizes the detail key once per scan for each
  (base keys, detail keys) pair, and every θ block with that pair
  reuses the grouping (coalesced and batch-MQO blocks usually share one
  correlation key).  Integer, boolean and dictionary-string keys code
  by offset without a sort; rows group by code with a stable counting
  sort (radix ``argsort`` over the narrowest unsigned dtype plus
  ``bincount`` offsets); the Python-level bucket dictionary is probed
  once per *distinct* key, not once per row; and base tuples sharing a
  key share one index segment;
* distributive/algebraic aggregates accumulate with whole-array
  reductions per segment (``np.cumsum`` for float sums keeps Python's
  sequential addition order bit-for-bit).

Identity contract
-----------------
The scan produces the same rows, in the same order, with the same
:class:`~repro.storage.iostats.IOStats` counters as the python kernels:
``index_probes`` counts every detail row per hash block, and
``predicate_evals``/``aggregate_updates`` count candidate pairs and
per-spec survivor updates exactly as ``_scan_batched`` does.  Work that
has no *exact* whole-array form — object-encoded columns, DISTINCT
(holistic) aggregates, int64 overflow hazards, NaN min/max — falls back
per operator: an unsupported θ block runs untouched on the python batch
kernel, while an unsupported aggregate argument or risky segment
reduction drops to per-value Python accumulation over the
already-computed survivor set.  Block- and spec-level fallbacks are
reported to the caller so EXPLAIN ANALYZE can surface them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.algebra.aggregates import (
    Avg,
    CountStar,
    CountValue,
    Max,
    Min,
    Sum,
)
from repro.algebra.analysis import factor_condition, refers_only_to
from repro.algebra.compile import compile_batch_values
from repro.algebra.npcompile import (
    _INT_SAFE,
    NpUnsupported,
    NpValue,
    np_truth_mask,
    np_value,
    value_of_column,
    value_of_scalar,
)
from repro.gmdj.evaluate import _BlockRuntime
from repro.gmdj.operator import ThetaBlock
from repro.storage.columnar import ColumnarRelation
from repro.storage.iostats import IOStats
from repro.storage.npcolumns import column_array, require_numpy
from repro.storage.relation import Relation
from repro.storage.schema import Schema

#: Int64 magnitude bound above which a segment sum falls back to exact
#: Python accumulation (Python ints are unbounded; int64 wraps).
_SUM_SAFE = 2 ** 63


class _SegmentFallback(Exception):
    """This spec/segment needs per-value Python accumulation (exactness
    guard or holistic aggregate); the survivor set is already known, so
    this never aborts the block."""


class _DetailContext:
    """Whole-column NpValue resolution over one columnar relation."""

    __slots__ = ("columnar", "schema", "_by_ref", "_by_position")

    def __init__(self, columnar: ColumnarRelation, schema: Schema) -> None:
        self.columnar = columnar
        self.schema = schema
        self._by_ref: dict[str, NpValue] = {}
        self._by_position: dict[int, NpValue] = {}

    def by_position(self, position: int) -> NpValue:
        value = self._by_position.get(position)
        if value is None:
            column = column_array(self.columnar, position)
            if column is None:
                field = self.schema.fields[position]
                raise NpUnsupported(
                    f"object-encoded column {field.full_name}")
            value = self._by_position[position] = value_of_column(column)
        return value

    def resolve(self, reference: str) -> NpValue:
        value = self._by_ref.get(reference)
        if value is None:
            position = self.schema.index_of(reference)
            value = self._by_ref[reference] = self.by_position(position)
        return value


def _gather(value: NpValue, idx: Any, np: Any) -> NpValue:
    """Restrict a whole-column NpValue to the rows in ``idx``."""
    values = value.values
    if isinstance(values, np.ndarray):
        values = values[idx]
    null = value.null
    if isinstance(null, np.ndarray):
        null = null[idx]
    return NpValue(values, null, value.kind, value.dictionary)


class _PairContext:
    """Resolution over base-row scalars ++ detail columns.

    Mirrors how the row kernel binds residuals against the concatenated
    schema: positions below the base arity read the (Python) base row,
    positions above it read detail columns — whole columns, or gathered
    down to one hash segment's candidate rows.
    """

    __slots__ = ("detail", "combined_schema", "base_arity", "_positions")

    def __init__(self, detail: _DetailContext, combined_schema: Schema,
                 base_arity: int) -> None:
        self.detail = detail
        self.combined_schema = combined_schema
        self.base_arity = base_arity
        self._positions: dict[str, int] = {}

    def resolver(self, base_row: tuple, idx: Any,
                 np: Any) -> Callable[[str], NpValue]:
        """A resolver for one base row; ``idx`` (or None for all rows)
        selects the detail rows in scope."""
        def resolve(reference: str) -> NpValue:
            position = self._positions.get(reference)
            if position is None:
                position = self._positions[reference] = \
                    self.combined_schema.index_of(reference)
            if position < self.base_arity:
                return value_of_scalar(base_row[position])
            column = self.detail.by_position(position - self.base_arity)
            return column if idx is None else _gather(column, idx, np)
        return resolve


def _python_key_values(key: NpValue, rows: Any, np: Any) -> list:
    """One key component at each of ``rows`` as the Python values the
    buckets use (``tolist`` yields Python ints, floats and bools)."""
    values = key.values
    if not isinstance(values, np.ndarray):
        return [values] * len(rows)  # literal: already a Python scalar
    picked = values[rows].tolist()
    if key.kind == "str":
        dictionary = key.dictionary or []
        return [dictionary[code] for code in picked]
    return picked


#: A key column whose integer span is at most this many codes (or twice
#: its row count, if larger) is coded by offsetting from its minimum —
#: no sort; wider spans factorize with ``np.unique``.
_SPAN_FLOOR = 1 << 16


def _column_codes(values: Any, np: Any) -> tuple[Any, int]:
    """``(codes, capacity)`` for one key column: ``0 <= codes <
    capacity`` and rows with equal values (in Python ``==``) share a
    code.  Dictionary strings arrive as their integer codes."""
    kind = values.dtype.kind
    if kind == "b":
        return values.astype(np.int64), 2
    if kind in "iu":
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= max(_SPAN_FLOOR, 2 * len(values)):
            return (values - low).astype(np.int64, copy=False), span
    # Floats (where -0.0 == 0.0 must share a code) and sparse integers.
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse, len(uniques)


def _dense(codes: Any, np: Any) -> tuple[Any, int]:
    """Renumber codes onto ``0..distinct-1`` (one sort; only needed when
    combined key codes span too widely to count directly)."""
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse, len(uniques)


def _key_codes(key_vals: Sequence[NpValue], valid_idx: Any,
               count: int, np: Any) -> tuple[Any, int]:
    """Combine per-column codes of the ``count`` rows ``valid_idx``
    (None = every row) into one code per distinct key tuple."""
    combined = None
    capacity = 1
    for kv in key_vals:
        values = kv.values
        if not isinstance(values, np.ndarray):
            continue  # constant component: one group, nothing to split
        if valid_idx is not None:
            values = values[valid_idx]
        codes, size = _column_codes(values, np)
        if combined is None:
            combined, capacity = codes, size
            continue
        if capacity * size >= _INT_SAFE:
            # Re-densify the running codes before they overflow int64.
            combined, capacity = _dense(combined, np)
        combined = combined * size + codes
        capacity *= size
    if combined is None:  # all-constant key: every valid row, one group
        return np.zeros(count, dtype=np.int64), 1
    if capacity > max(_SPAN_FLOOR, 2 * count):
        combined, capacity = _dense(combined, np)
    return combined, capacity


def _hash_segments(
    buckets: dict[tuple, list[int]],
    key_exprs: Sequence[Any],
    ctx: _DetailContext,
    total: int,
    np: Any,
) -> list[tuple[int, Any]]:
    """Group detail rows by matched base tuple via key factorization.

    Returns ``(base_index, ascending row-index array)`` segments in
    ascending base order; rows whose key contains NULL (or misses every
    bucket) appear in none.  The detail key is coded once, without a
    sort for integer, boolean and dictionary-string keys of bounded
    span; rows then group by code with one stable counting sort (a
    radix ``argsort`` over the narrowest unsigned dtype, plus
    ``bincount`` offsets).  The bucket dictionary is probed once per
    *distinct* key, and base tuples sharing a key share that key's
    segment array.

    Every hash block with the same (base keys, detail keys) pair has
    the same result, so :func:`run_numpy_scan` calls this once per pair.
    """
    key_vals = [np_value(expr, ctx.resolve) for expr in key_exprs]
    valid: Any = True
    for kv in key_vals:
        if kv.kind == "null" or kv.null is True:
            return []  # a NULL key component can never match
        if kv.null is not False:
            valid = ~kv.null if valid is True else valid & ~kv.null
    valid_idx = None if valid is True else np.flatnonzero(valid)
    count = total if valid_idx is None else len(valid_idx)
    if not count:
        return []
    codes, capacity = _key_codes(key_vals, valid_idx, count, np)
    narrow = np.min_scalar_type(capacity - 1)  # radix sort for <= 16 bits
    order = np.argsort(codes.astype(narrow, copy=False), kind="stable")
    rows = order if valid_idx is None else valid_idx[order]
    counts = np.bincount(codes, minlength=capacity)
    present = np.flatnonzero(counts)
    # Empty codes take no room, so present codes' groups are contiguous.
    bounds = np.concatenate(([0], np.cumsum(counts)[present]))
    starts = bounds[:-1]
    # Each key's first row stands for it in the one bucket probe.
    keys = zip(*(_python_key_values(kv, rows[starts], np)
                 for kv in key_vals))
    segments: dict[int, Any] = {}
    buckets_get = buckets.get
    for key, start, stop in zip(keys, starts.tolist(),
                                bounds[1:].tolist()):
        candidates = buckets_get(key)
        if not candidates:
            continue
        rows_of_key = rows[start:stop]
        for base_index in candidates:
            existing = segments.get(base_index)
            # One base tuple meets two codes only when a dictionary lists
            # a string twice (possible in a hand-written .cols manifest).
            segments[base_index] = rows_of_key if existing is None \
                else np.sort(np.concatenate([existing, rows_of_key]))
    return sorted(segments.items())


def _segment_sum(accumulator: Any, effective: Any, np: Any) -> None:
    """Exact whole-array sum into a Sum/Avg accumulator's ``total``."""
    if effective.dtype.kind == "f":
        # np.cumsum accumulates strictly left-to-right, matching the
        # sequential `total += value` order of the python kernels
        # bit-for-bit (np.sum's pairwise summation would not).
        accumulator.total += float(np.cumsum(effective)[-1])
    else:
        bound = max(-int(effective.min()), int(effective.max()))
        if bound and bound * len(effective) >= _SUM_SAFE:
            raise _SegmentFallback  # Python ints never overflow
        accumulator.total += int(effective.sum())


def _apply_value_spec(accumulator: Any, value: NpValue, idx: Any,
                      np: Any) -> None:
    """Fold one segment of one aggregate argument into its accumulator.

    Raises :class:`_SegmentFallback` for anything without an exact
    array reduction (the caller re-runs the segment per-value in
    Python, over the same survivor rows).
    """
    if value.kind == "str":
        raise _SegmentFallback  # string min/max keeps Python ordering
    if value.kind == "null" or value.null is True:
        return  # all values NULL: every add() is a no-op
    if isinstance(value.values, np.ndarray):
        vals = value.values[idx]
    else:
        vals = np.full(len(idx), value.values)
    if value.null is False:
        effective = vals
    else:
        effective = vals[~value.null[idx]]
    if not len(effective):
        return
    is_bool = effective.dtype.kind == "b"
    if type(accumulator) is CountValue:
        accumulator.count += len(effective)
        return
    if type(accumulator) is Sum:
        _segment_sum(accumulator, effective.astype(np.int64)
                     if is_bool else effective, np)
        accumulator.seen = True
        return
    if type(accumulator) is Avg:
        _segment_sum(accumulator, effective.astype(np.int64)
                     if is_bool else effective, np)
        accumulator.count += len(effective)
        return
    if type(accumulator) is Min or type(accumulator) is Max:
        if is_bool:
            raise _SegmentFallback  # keep bool objects, not 0/1 ints
        if effective.dtype.kind == "f" and np.isnan(effective).any():
            raise _SegmentFallback  # NaN breaks min/max comparability
        best = effective.min() if type(accumulator) is Min \
            else effective.max()
        accumulator.add(best.item())
        return
    raise _SegmentFallback  # DistinctWrapper and anything unforeseen


class _NpBlock:
    """One θ block planned for the whole-array scan."""

    __slots__ = ("runtime", "block", "value_arrays", "value_fallbacks",
                 "py_value_fns", "segments", "probe_rows", "filter_evals")

    def __init__(self, runtime: _BlockRuntime, block: ThetaBlock) -> None:
        self.runtime = runtime
        self.block = block
        self.value_arrays: list[NpValue | None] = []
        self.value_fallbacks: list[str | None] = []
        self.py_value_fns: list[Any] = []
        self.segments: list[tuple[int, Any]] = []
        self.probe_rows = 0
        self.filter_evals = 0


def _plan_values(plan: _NpBlock, ctx: _DetailContext,
                 detail_schema: Schema) -> None:
    """Evaluate aggregate arguments whole-array; mark per-spec fallbacks."""
    for spec in plan.block.aggregates:
        reason: str | None = None
        array: NpValue | None = None
        if spec.argument is None:
            pass  # count(*): no argument to evaluate
        elif spec.distinct:
            reason = "holistic DISTINCT aggregate"
        else:
            try:
                array = np_value(spec.argument, ctx.resolve)
            except NpUnsupported as exc:
                reason = exc.reason
        plan.value_arrays.append(array)
        plan.value_fallbacks.append(reason)
        plan.py_value_fns.append(
            None if spec.argument is None
            else compile_batch_values(spec.argument, detail_schema))


def _plan_block(plan: _NpBlock, ctx: _DetailContext,
                pair_ctx: _PairContext, base_schema: Schema,
                base_rows: Sequence[tuple], n_base: int, total: int,
                detail_schema: Schema,
                groupings: dict[tuple, list[tuple[int, Any]]],
                np: Any) -> bool:
    """Compute this block's survivor segments and counter tallies.

    Returns True when the block is invariant (segments target the
    shared accumulator state).  ``groupings`` holds the hash segments
    already built in this scan, keyed by (base keys, detail keys).
    May raise :class:`NpUnsupported` at any point — the caller only
    flushes counters/accumulators for fully planned blocks, so a partial
    plan has no observable effect.
    """
    runtime = plan.runtime
    factored = factor_condition(plan.block.condition, base_schema,
                                detail_schema)
    residual = factored.residual

    if runtime.invariant:
        if residual is None:
            survivors = np.arange(total, dtype=np.int64)
        else:
            plan.filter_evals += total
            survivors = np.flatnonzero(
                np_truth_mask(residual, ctx.resolve, total))
        plan.segments = [(0, survivors)]
        return True

    if runtime.uses_hash:
        plan.probe_rows = total
        pair = (tuple(map(repr, factored.left_keys)),
                tuple(map(repr, factored.right_keys)))
        segments = groupings.get(pair)
        if segments is None:
            segments = groupings[pair] = _hash_segments(
                runtime.buckets, factored.right_keys, ctx, total, np)
        if residual is None:
            plan.segments = segments
            return False
        plan.filter_evals += sum(len(idx) for _, idx in segments)
        if refers_only_to(residual, detail_schema):
            mask = np_truth_mask(residual, ctx.resolve, total)
            plan.segments = [(base_index, idx[mask[idx]])
                             for base_index, idx in segments]
            return False
        plan.segments = [
            (base_index,
             idx[np_truth_mask(
                 residual,
                 pair_ctx.resolver(base_rows[base_index], idx, np),
                 len(idx))])
            for base_index, idx in segments
        ]
        return False

    # Scan block: every base row is a candidate for every detail row
    # (completion-free, so the active list never shrinks).
    if residual is None:
        all_rows = np.arange(total, dtype=np.int64)
        plan.segments = [(b, all_rows) for b in range(n_base)]
        return False
    plan.filter_evals += n_base * total
    if refers_only_to(residual, detail_schema):
        survivors = np.flatnonzero(
            np_truth_mask(residual, ctx.resolve, total))
        plan.segments = [(b, survivors) for b in range(n_base)]
        return False
    plan.segments = [
        (base_index,
         np.flatnonzero(np_truth_mask(
             residual,
             pair_ctx.resolver(base_rows[base_index], None, np),
             total)))
        for base_index in range(n_base)
    ]
    return False


def _apply_segments(plan: _NpBlock, state: list[list[Any]],
                    shared: bool, stats: IOStats,
                    decoded_cols: Callable[[], Sequence],
                    np: Any) -> None:
    """Fold every segment into its accumulators.

    Never raises NpUnsupported: per-spec/per-segment exactness guards
    drop to Python ``add`` loops over the already-known survivors.
    """
    runtime = plan.runtime
    for base_index, idx in plan.segments:
        count = len(idx)
        if not count:
            continue
        state_list = runtime.shared_state if shared \
            else state[base_index][runtime.index]
        idx_list: list[int] | None = None
        for position, accumulator in enumerate(state_list):
            stats.aggregate_updates += count
            value = plan.value_arrays[position]
            if value is None and plan.value_fallbacks[position] is None:
                # count(*) fast path, mirroring _bulk_update
                if type(accumulator) is CountStar:
                    accumulator.count += count
                else:  # pragma: no cover - defensive, like _bulk_update
                    for _ in range(count):
                        accumulator.add(None)
                continue
            if value is not None:
                try:
                    _apply_value_spec(accumulator, value, idx, np)
                    continue
                except _SegmentFallback:
                    pass
            if idx_list is None:
                idx_list = idx.tolist()
            value_fn = plan.py_value_fns[position]
            add = accumulator.add
            for item in value_fn(decoded_cols(), idx_list):
                add(item)


def run_numpy_scan(
    columnar: ColumnarRelation,
    runtimes: list[_BlockRuntime],
    blocks: Sequence[ThetaBlock],
    base: Relation,
    detail_schema: Schema,
    combined_schema: Schema,
    state: list[list[Any]],
    stats: IOStats,
) -> tuple[list[tuple[_BlockRuntime, ThetaBlock]], list[str]]:
    """Run every θ block whole-array where possible.

    Returns ``(python_blocks, fallback_reasons)``: blocks with no exact
    array form are untouched (no counters, no accumulator updates) and
    must run on the python batch kernel; ``fallback_reasons`` collects
    human-readable block- and spec-level notes for EXPLAIN ANALYZE.
    """
    np = require_numpy()
    total = columnar.length
    base_rows = base.rows
    n_base = len(base_rows)
    ctx = _DetailContext(columnar, detail_schema)
    pair_ctx = _PairContext(ctx, combined_schema, len(base.schema))
    decoded_state: dict[str, Sequence] = {}

    def decoded_cols() -> Sequence:
        cols = decoded_state.get("cols")
        if cols is None:
            cols = decoded_state["cols"] = columnar.value_columns()
        return cols

    python_blocks: list[tuple[_BlockRuntime, ThetaBlock]] = []
    reasons: list[str] = []
    groupings: dict[tuple, list[tuple[int, Any]]] = {}

    for runtime, block in zip(runtimes, blocks):
        plan = _NpBlock(runtime, block)
        try:
            shared = _plan_block(plan, ctx, pair_ctx, base.schema,
                                 base_rows, n_base, total, detail_schema,
                                 groupings, np)
            _plan_values(plan, ctx, detail_schema)
        except NpUnsupported as exc:
            python_blocks.append((runtime, block))
            reasons.append(f"block {runtime.index}: {exc.reason}")
            continue
        for spec, reason in zip(block.aggregates, plan.value_fallbacks):
            if reason is not None:
                reasons.append(
                    f"block {runtime.index} {spec.output_name}: {reason}")
        # Counters and accumulators are only touched once a block is
        # fully planned, so an NpUnsupported above never leaves partial
        # state; applying now keeps one block's survivors alive at a time.
        stats.index_probes += plan.probe_rows
        stats.predicate_evals += plan.filter_evals
        _apply_segments(plan, state, shared, stats, decoded_cols, np)
    return python_blocks, reasons
