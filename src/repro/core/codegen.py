"""Per-query code generation: the compiled SSC hot path.

The interpreted :class:`~repro.core.sequence.SequenceScanConstruct` walks
closure trees through per-call :class:`EvalContext` allocations and looks
up the plan shape (component count, Kleene flags, window, PAIS key) on
every event.  This module instead emits *Python source* specialised to one
analyzed query — ``compile()``/``exec``-based, not closure trees — and
builds a :class:`SequenceScanConstruct` subclass whose hot methods are the
generated functions:

* ``feed_batch`` — the scan's one event loop (``feed`` is a batch of
  one).  The event-type dispatch is unrolled into an ``if``/``elif``
  chain; per-component admission (filter pushdown, PAIS key extraction,
  window pruning, RIP-pointer push) is straight-line code with the window,
  partition attribute, and prune interval baked in as constants.  Pushed
  single-variable filters become direct ``event.attributes[...]``
  comparisons with **zero** ``EvalContext`` allocation.  Operator
  counters, the profiling hook lookup, and the group-table load are
  hoisted out of the loop, so per-event Python dispatch amortises across
  the batch.  Per-event observable effects (interval pruning, stack-size
  gauges, match order) are preserved exactly, and an optional ``bounds``
  list records the cumulative match count after each event so callers
  can slice results per event.
* ``_construct`` — the backward DFS over the instance stacks is unrolled
  into nested ``for`` loops, one per component, operating directly on the
  stack slots (``_timestamps``/``_instances``/``_offset``) with
  ``bisect``-computed bounds, with construction-pushdown predicates
  inlined as direct comparisons at the loop level where their variables
  become bound.  This covers non-Kleene patterns *and* trailing-Kleene
  patterns under MAXIMAL semantics (the anchor/extras enumeration is
  generated too); other Kleene placements and ANY_SUBSET keep the
  inherited construction walk.
* ``_passes_construction_checks`` (patterns that keep the inherited
  walk) — pushdown predicates are still inlined, only the enumeration
  stays generic.

Two structural specialisations beyond straight-line translation:

* **Admit-time prune elision (non-Kleene shapes).**  The interpreted
  operator prunes a partition's stale stack fronts on every admission;
  the generated non-Kleene admit skips that and relies on the interval
  ``_prune_all`` alone.  This is match-identical on the supported
  (non-decreasing timestamp) domain: construction bounds every candidate
  by ``end_ts - window``, which is at least as new as any per-admit
  horizon, so instances a per-admit prune would have dropped can never
  appear in a match — they only linger in the gauges until the next
  interval prune.  Kleene shapes keep the exact interpreted admission
  (their binding *contents* enumerate raw stack ranges, so stack
  membership must match the interpreter event-for-event).
* **Partition-key fusion.**  When the WHERE clause contains a *second*
  cross-component equality class covering every positive component (the
  first one is already the PAIS partition), its attributes are fused
  into the partition key as a tuple and the equality conjuncts are
  dropped from the construction checks: partitioning enforces them for
  free and false candidates are never enumerated.  Tuple keys compare
  with the same ``==`` the predicates would evaluate, so matching is
  identical; only the partition-count gauges differ.

Semantics parity is non-negotiable: every generated predicate runs inside
``try``/``except`` and falls back to the interpreted closure when the
straight-line evaluation raises, so missing attributes, type errors, and
division by zero surface the exact interpreter ``EvaluationError``.
Expression shapes the translator does not cover (function calls into the
``_`` library, aggregates, bare variable references) make
:func:`compile_scan` return ``None`` and the caller falls back to the
interpreter wholesale; the differential test suite proves the two paths
are bit-identical over the seed query corpus and fuzzed streams —
compiled vs interpreted *and* batched vs per-event.

Known (documented) divergences: generated arithmetic trusts the
analyzer's static types, so an event whose attribute *violates its
declared schema* (e.g. a bool where the schema says INT) can be computed
where the interpreter would raise; and a fused partition key reads
attributes with ``.get``, so an event *missing* a fused attribute is
silently skipped where the interpreter would raise ``EvaluationError``
on the first candidate sequence containing it.  Schema-conforming
streams behave identically.
"""

from __future__ import annotations

from bisect import bisect_left as _bisect_left
from bisect import bisect_right as _bisect_right
from typing import Any

from repro.core.expressions import EvalContext, _as_bool
from repro.core.instances import Instance, StackGroup
from repro.core.match import Match
from repro.core.sequence import SequenceScanConstruct, _NO_PARTITION
from repro.core.stats import PlanStats
from repro.lang.ast import (
    AttributeRef,
    BinaryOp,
    BinOpKind,
    Expr,
    Literal,
    UnaryOp,
    UnOpKind,
)
from repro.lang.semantics import AnalyzedQuery


class UnsupportedShape(Exception):
    """An expression or plan shape with no source translation; the caller
    must use the interpreted operator."""


# -- expression translation --------------------------------------------------

_COMPARE_OPS = {
    BinOpKind.EQ: "==",
    BinOpKind.NEQ: "!=",
    BinOpKind.LT: "<",
    BinOpKind.LTE: "<=",
    BinOpKind.GT: ">",
    BinOpKind.GTE: ">=",
}

_ARITH_OPS = {
    BinOpKind.ADD: "+",
    BinOpKind.SUB: "-",
    BinOpKind.MUL: "*",
    BinOpKind.DIV: "/",
    BinOpKind.MOD: "%",
}

_TIMESTAMP_ATTRS = ("Timestamp", "timestamp")


def value_source(expr: Expr, names: dict[str, str]) -> str:
    """Translate *expr* to a Python expression over the event locals in
    *names* (variable name -> source of the bound Event)."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, AttributeRef):
        base = names.get(expr.variable)
        if base is None:
            raise UnsupportedShape(
                f"variable {expr.variable!r} not bound at this point")
        if expr.attribute in _TIMESTAMP_ATTRS:
            return f"{base}.timestamp"
        return f"{base}.attributes[{expr.attribute!r}]"
    if isinstance(expr, UnaryOp):
        if expr.op is UnOpKind.NOT:
            return predicate_source(expr.operand, names)
        return f"(-{value_source(expr.operand, names)})"
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op in _COMPARE_OPS or op.is_logical:
            return predicate_source(expr, names)
        left = value_source(expr.left, names)
        right = value_source(expr.right, names)
        return f"({left} {_ARITH_OPS[op]} {right})"
    raise UnsupportedShape(
        f"no source translation for {type(expr).__name__}")


def predicate_source(expr: Expr, names: dict[str, str]) -> str:
    """Translate a boolean expression; non-boolean-producing subtrees are
    wrapped in ``_as_bool`` so misbehaving values fail exactly like the
    interpreter."""
    if isinstance(expr, BinaryOp):
        op = expr.op
        if op is BinOpKind.AND:
            return (f"({predicate_source(expr.left, names)} and "
                    f"{predicate_source(expr.right, names)})")
        if op is BinOpKind.OR:
            return (f"({predicate_source(expr.left, names)} or "
                    f"{predicate_source(expr.right, names)})")
        if op in _COMPARE_OPS:
            return (f"({value_source(expr.left, names)} "
                    f"{_COMPARE_OPS[op]} "
                    f"{value_source(expr.right, names)})")
    if isinstance(expr, UnaryOp) and expr.op is UnOpKind.NOT:
        return f"(not {predicate_source(expr.operand, names)})"
    return f"_as_bool({value_source(expr, names)})"


# -- source assembly ---------------------------------------------------------

class _Writer:
    """Indentation-tracking line collector."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text if text else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _ScanShape:
    """The plan constants the generator unrolls, derived exactly as the
    interpreted operator's constructor derives them."""

    def __init__(self, analyzed: AnalyzedQuery, *, window_pushdown: bool,
                 partition_pushdown: bool, filter_pushdown: bool,
                 construction_pushdown: bool, prune_interval: int,
                 kleene_maximal: bool = True, profiling: bool = False):
        positives = analyzed.positives
        self.n = len(positives)
        self.profiling = profiling
        self.variables = [component.variable for component in positives]
        self.kleene = [component.kleene for component in positives]
        self.has_kleene = any(self.kleene)
        # The construction walk can be generated for non-Kleene patterns
        # and for a single trailing Kleene component under MAXIMAL
        # semantics; everything else inherits the interpreted walk.
        self.trailing_kleene = (self.has_kleene and kleene_maximal
                                and self.kleene[self.n - 1]
                                and sum(self.kleene) == 1)
        self.generated_construct = not self.has_kleene or \
            self.trailing_kleene
        self.window = analyzed.window if window_pushdown else None
        self.prune_interval = max(1, prune_interval)

        self.by_type: dict[str, list[int]] = {}
        for index, component in enumerate(positives):
            if not component.event_types:  # pragma: no cover - defensive
                raise UnsupportedShape("component with no event types")
            for event_type in component.event_types:
                self.by_type.setdefault(event_type, []).append(index)
        for indexes in self.by_type.values():
            indexes.sort(reverse=True)

        position = {variable: index for index, variable
                    in enumerate(self.variables)}

        self.key_attrs: list[str] | None = None
        if partition_pushdown and analyzed.partition is not None:
            attrs = [analyzed.partition.key_attribute(variable)
                     for variable in self.variables]
            if all(attr is not None for attr in attrs):
                self.key_attrs = [attr for attr in attrs
                                  if attr is not None]

        # Partition-key fusion: further cross-component equality classes
        # that cover every component collapse into the partition key.
        self.fused_attrs: list[list[str]] = []
        self._fused_ids: set[int] = set()
        if self.key_attrs is not None and not self.has_kleene \
                and self.n > 1:
            self._detect_fusion(analyzed, position)

        # Per-component filter sources (filter pushdown), evaluated over a
        # local named ``event``.
        self.filter_src: list[str | None] = [None] * self.n
        if filter_pushdown:
            for index, variable in enumerate(self.variables):
                sources = [predicate_source(info.expr, {variable: "event"})
                           for info in
                           analyzed.component_filters.get(variable, ())]
                if sources:
                    self.filter_src[index] = " and ".join(sources)

        # Construction-pushdown predicates grouped by trigger index (the
        # minimum component position among their variables) — mirrors the
        # interpreted constructor, including the PAIS-equality and
        # Kleene-variable exclusions; conjuncts fused into the partition
        # key are enforced by partitioning and dropped here.
        self.check_exprs: list[list[Expr]] = [[] for _ in range(self.n)]
        self.has_checks = False
        if construction_pushdown:
            kleene_vars = {variable for index, variable
                           in enumerate(self.variables)
                           if self.kleene[index]}
            for pred_id, info in enumerate(analyzed.selection_predicates):
                if self.key_attrs is not None and \
                        info.is_partition_equality:
                    continue
                if pred_id in self._fused_ids:
                    continue
                if info.variables & kleene_vars:
                    continue
                trigger = min(position[variable]
                              for variable in info.variables)
                self.check_exprs[trigger].append(info.expr)
                self.has_checks = True

    def _detect_fusion(self, analyzed: AnalyzedQuery,
                       position: dict[str, int]) -> None:
        """Union-find over simple cross-variable equality conjuncts; any
        class covering all components with one attribute per component
        becomes extra partition-key columns."""
        candidates: list[tuple[int, tuple[str, str], tuple[str, str]]] = []
        for pred_id, info in enumerate(analyzed.selection_predicates):
            if info.is_partition_equality:
                continue
            expr = info.expr
            if not (isinstance(expr, BinaryOp)
                    and expr.op is BinOpKind.EQ):
                continue
            left, right = expr.left, expr.right
            if not (isinstance(left, AttributeRef)
                    and isinstance(right, AttributeRef)):
                continue
            if left.variable == right.variable or \
                    left.variable not in position or \
                    right.variable not in position:
                continue
            if left.attribute in _TIMESTAMP_ATTRS or \
                    right.attribute in _TIMESTAMP_ATTRS:
                continue
            candidates.append((pred_id,
                               (left.variable, left.attribute),
                               (right.variable, right.attribute)))
        if not candidates:
            return

        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(node: tuple[str, str]) -> tuple[str, str]:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for _, left, right in candidates:
            parent.setdefault(left, left)
            parent.setdefault(right, right)
            root_l, root_r = find(left), find(right)
            if root_l != root_r:
                parent[root_l] = root_r

        classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for node in parent:
            classes.setdefault(find(node), []).append(node)

        all_vars = set(self.variables)
        for root, members in classes.items():
            var_attrs: dict[str, list[str]] = {}
            for variable, attribute in members:
                var_attrs.setdefault(variable, []).append(attribute)
            if set(var_attrs) != all_vars:
                continue
            if any(len(attrs) != 1 for attrs in var_attrs.values()):
                continue  # ambiguous: keep as construction checks
            self.fused_attrs.append(
                [var_attrs[variable][0] for variable in self.variables])
            for pred_id, left, _ in candidates:
                if find(left) == root:
                    self._fused_ids.add(pred_id)

    def check_sources(self, index: int,
                      names: dict[str, str]) -> str | None:
        exprs = self.check_exprs[index]
        if not exprs:
            return None
        return " and ".join(predicate_source(expr, names)
                            for expr in exprs)


def generate_scan_source(analyzed: AnalyzedQuery, *,
                         window_pushdown: bool = True,
                         partition_pushdown: bool = True,
                         filter_pushdown: bool = True,
                         construction_pushdown: bool = False,
                         prune_interval: int = 512,
                         kleene_maximal: bool = True,
                         profiling: bool = False) -> str:
    """Emit the specialised operator source for *analyzed*.

    With ``profiling`` the generated hot path includes the same
    per-component admit/construct counters the interpreted operator
    keeps; without it no profiling code is emitted at all, so the
    disabled path carries zero overhead.

    Raises :class:`UnsupportedShape` when any pushed predicate cannot be
    translated to straight-line code.
    """
    shape = _ScanShape(
        analyzed, window_pushdown=window_pushdown,
        partition_pushdown=partition_pushdown,
        filter_pushdown=filter_pushdown,
        construction_pushdown=construction_pushdown,
        prune_interval=prune_interval,
        kleene_maximal=kleene_maximal, profiling=profiling)
    writer = _Writer()
    _generate_feed_batch(writer, shape)
    if shape.generated_construct:
        writer.emit()
        if shape.trailing_kleene:
            _generate_kleene_construct(writer, shape)
        else:
            _generate_construct(writer, shape)
    elif shape.has_checks:
        writer.emit()
        _generate_check_override(writer, shape)
    return writer.source()


def _emit_event_body(w: _Writer, shape: _ScanShape) -> None:
    """The per-event scan body of the batch loop: type dispatch plus
    per-component admission.  Expects locals ``event``, ``_ts``,
    ``_groups``, ``_pushed``, the hoisted live-instance counter
    ``_icount`` (and ``_prof`` when profiling)."""
    keyword = "if"
    for event_type, indexes in shape.by_type.items():
        w.emit(f"{keyword} _t == {event_type!r}:")
        keyword = "elif"
        w.depth += 1
        for index in indexes:  # descending
            _generate_admit(w, shape, index)
        w.depth -= 1


def _generate_feed_batch(w: _Writer, shape: _ScanShape) -> None:
    """The batch loop: one prologue/epilogue for N events, per-event
    effects (interval prune, gauges, bounds) preserved exactly."""
    w.emit("def feed_batch(self, events, bounds=None):")
    w.depth += 1
    w.emit("_op = self._op_stats")
    if shape.profiling:
        w.emit("_prof = self._profile")
    w.emit("_seen = self._events_seen")
    w.emit("matches = []")
    w.emit("_groups = self._groups")
    w.emit("_stats = self._stats")
    w.emit("_icount = self._instance_count")
    # try/finally keeps the written-back counters exception-transparent:
    # an error escaping event k leaves the _events_seen /
    # _instance_count of the events scanned before it.
    w.emit("try:")
    w.depth += 1
    w.emit("for event in events:")
    w.depth += 1
    w.emit("_seen += 1")
    w.emit("_ts = event.timestamp")
    w.emit("_pushed = False")
    w.emit("_t = event.type")
    _emit_event_body(w, shape)
    if shape.window is not None:
        w.emit(f"if _seen % {shape.prune_interval} == 0:")
        w.emit("    self._instance_count = _icount")
        w.emit("    self._prune_all(_ts)")
        w.emit("    _icount = self._instance_count")
    w.emit("if _pushed:")
    w.emit("    if _icount > _stats.stack_high_water:")
    w.emit("        _stats.stack_high_water = _icount")
    w.emit("    _gl = len(_groups)")
    w.emit("    if _gl > _stats.partitions_high_water:")
    w.emit("        _stats.partitions_high_water = _gl")
    w.emit("if bounds is not None:")
    w.emit("    bounds.append(len(matches))")
    w.depth -= 1
    w.depth -= 1
    w.emit("finally:")
    w.emit("    _op.consumed += _seen - self._events_seen")
    w.emit("    self._events_seen = _seen")
    w.emit("    self._instance_count = _icount")
    w.emit("_op.produced += len(matches)")
    if shape.profiling:
        w.emit("if _prof is not None:")
        w.emit("    _prof.matches_emitted += len(matches)")
    w.emit("return matches")
    w.depth -= 1


def _generate_admit(w: _Writer, shape: _ScanShape, index: int) -> None:
    w.emit(f"# admit into component {index} "
           f"({shape.variables[index]})")
    entry_depth = w.depth
    condition = shape.filter_src[index]
    if condition is not None:
        w.emit("try:")
        w.emit(f"    _ok = {condition}")
        w.emit("except Exception:")
        w.emit(f"    _ok = self._filters_fallback({index}, event)")
        w.emit("if _ok:")
        w.depth += 1
    if shape.key_attrs is not None:
        w.emit(f"_key = event.attributes.get({shape.key_attrs[index]!r})")
        w.emit("if _key is not None:")
        w.depth += 1
        if shape.fused_attrs:
            extra = ", ".join(
                f"event.attributes.get({attrs[index]!r})"
                for attrs in shape.fused_attrs)
            w.emit(f"_key = (_key, {extra})")
        key_src = "_key"
    else:
        key_src = "_NO_PARTITION"
    w.emit(f"_group = _groups.get({key_src})")
    if shape.has_kleene:
        _emit_admit_pruning(w, shape, index, key_src)
    else:
        _emit_admit_fast(w, shape, index, key_src)
    w.depth = entry_depth


def _emit_group_prune(w: _Writer, shape: _ScanShape) -> None:
    """The unrolled body of ``StackGroup.prune_before(_ts - window)``:
    one bisect per stack, bulk-delete only when something expired.
    Byte-identical stack state to the interpreter's per-admit prune."""
    w.emit(f"_cut = _ts - {shape.window!r}")
    for position in range(shape.n):
        w.emit(f"_ps = _group.stacks[{position}]")
        w.emit("_pst = _ps._timestamps")
        w.emit("if _pst and _pst[0] < _cut:")
        w.emit("    _pc = _bisect_left(_pst, _cut)")
        w.emit("    del _ps._instances[:_pc]")
        w.emit("    del _pst[:_pc]")
        w.emit("    _ps._offset += _pc")
        w.emit("    _icount -= _pc")


def _emit_admit_pruning(w: _Writer, shape: _ScanShape, index: int,
                        key_src: str) -> None:
    """Admission with per-admit front pruning — the exact interpreted
    behaviour, required for Kleene shapes whose binding contents
    enumerate raw stack ranges."""
    if index == 0:
        w.emit("if _group is None:")
        w.emit(f"    _group = StackGroup({shape.n})")
        w.emit(f"    _groups[{key_src}] = _group")
        if shape.window is not None:
            w.emit("else:")
            w.depth += 1
            _emit_group_prune(w, shape)
            w.depth -= 1
        w.emit("_s = _group.stacks[0]")
        w.emit("_inst = Instance(event, -1)")
        w.emit("_s._instances.append(_inst)")
        w.emit("_s._timestamps.append(_ts)")
        w.emit("_icount += 1")
        w.emit("_pushed = True")
        if shape.profiling:
            w.emit("if _prof is not None:")
            w.emit("    _prof.admits[0] += 1")
        if shape.n == 1:
            w.emit("self._construct(_group, _inst, matches)")
    else:
        w.emit("if _group is not None:")
        w.depth += 1
        if shape.window is not None:
            _emit_group_prune(w, shape)
        w.emit(f"_prev = _group.stacks[{index - 1}]")
        w.emit("_pt = _prev._timestamps")
        w.emit("if _pt and _pt[0] < _ts:")
        w.depth += 1
        w.emit(f"_s = _group.stacks[{index}]")
        w.emit("_inst = Instance(event, _prev._offset + len(_pt) - 1)")
        w.emit("_s._instances.append(_inst)")
        w.emit("_s._timestamps.append(_ts)")
        w.emit("_icount += 1")
        w.emit("_pushed = True")
        if shape.profiling:
            w.emit("if _prof is not None:")
            w.emit(f"    _prof.admits[{index}] += 1")
        if index == shape.n - 1:
            w.emit("self._construct(_group, _inst, matches)")


def _emit_admit_fast(w: _Writer, shape: _ScanShape, index: int,
                     key_src: str) -> None:
    """Admission without per-admit pruning (non-Kleene shapes): pushes
    straight onto the stack slots; staleness is handled by the interval
    prune and the construction window bound (see module docstring)."""
    if index == 0:
        w.emit("if _group is None:")
        w.emit(f"    _group = StackGroup({shape.n})")
        w.emit(f"    _groups[{key_src}] = _group")
        w.emit("_s = _group.stacks[0]")
        w.emit("_inst = Instance(event, -1)")
        w.emit("_s._instances.append(_inst)")
        w.emit("_s._timestamps.append(_ts)")
        w.emit("_icount += 1")
        w.emit("_pushed = True")
        if shape.profiling:
            w.emit("if _prof is not None:")
            w.emit("    _prof.admits[0] += 1")
        if shape.n == 1:
            w.emit("self._construct(_group, _inst, matches)")
    else:
        w.emit("if _group is not None:")
        w.depth += 1
        w.emit(f"_prev = _group.stacks[{index - 1}]")
        w.emit("_pt = _prev._timestamps")
        w.emit("if _pt and _pt[0] < _ts:")
        w.depth += 1
        w.emit(f"_s = _group.stacks[{index}]")
        w.emit("_inst = Instance(event, _prev._offset + len(_pt) - 1)")
        w.emit("_s._instances.append(_inst)")
        w.emit("_s._timestamps.append(_ts)")
        w.emit("_icount += 1")
        w.emit("_pushed = True")
        if shape.profiling:
            w.emit("if _prof is not None:")
            w.emit(f"    _prof.admits[{index}] += 1")
        if index == shape.n - 1:
            if shape.n == 2 and shape.generated_construct:
                _emit_inline_pair_construct(w, shape)
            else:
                w.emit("self._construct(_group, _inst, matches)")


def _emit_inline_pair_construct(w: _Writer, shape: _ScanShape) -> None:
    """Construction fused into the last-admit site for two-component
    non-Kleene patterns: the predecessor stack slots are already in
    locals (``_prev``/``_pt``), and the freshly pushed trigger's RIP
    covers the whole stack, so the strictly-older bisect alone bounds
    the candidate walk — no method call, no rip/offset arithmetic."""
    if shape.profiling:
        w.emit("if _prof is not None:")
        w.emit("    _prof.construct_calls += 1")
    w.emit("_e1 = event")
    if shape.window is not None:
        w.emit(f"_min = _ts - {shape.window!r}")
    condition = shape.check_sources(1, _construct_names(shape, 1))
    if condition is not None:
        w.emit("try:")
        w.emit(f"    _ok = {condition}")
        w.emit("except Exception:")
        w.emit("    _ok = _BASE._passes_construction_checks("
               "self, 1, (None, _e1))")
        w.emit("if _ok:")
        w.depth += 1
    if shape.window is not None:
        # The predecessor stack may be entirely window-stale between
        # interval prunes; its newest entry bounds the whole candidate
        # range, so one comparison skips both bisects.
        w.emit("if _pt[-1] >= _min:")
        w.depth += 1
    w.emit("_hi0 = _bisect_left(_pt, _ts) - 1")
    low = "_bisect_left(_pt, _min)" if shape.window is not None else "0"
    w.emit(f"_l0 = _prev._instances")
    w.emit(f"for _x0 in range({low}, _hi0 + 1):")
    w.depth += 1
    w.emit("_i0 = _l0[_x0]")
    w.emit("_e0 = _i0.event")
    _emit_check_guard(w, shape, 0, "continue")
    bindings = f"{shape.variables[0]!r}: _e0, {shape.variables[1]!r}: _e1"
    w.emit(f"matches.append(Match({{{bindings}}}, _e0.timestamp, _ts))")


def _construct_names(shape: _ScanShape, bound_from: int) -> dict[str, str]:
    """Variable -> local name map for construction-check translation when
    positions ``bound_from .. n-1`` are bound to ``_e<i>`` locals (the
    Kleene position, if any, is bound to a tuple and never referenced by
    a check — Kleene-variable predicates stay in the KleeneFilter)."""
    return {shape.variables[position]: f"_e{position}"
            for position in range(bound_from, shape.n)
            if not shape.kleene[position]}


def _fallback_padding(shape: _ScanShape, index: int) -> str:
    """The ``chosen`` tuple source for the interpreted-check fallback:
    unbound positions are None, bound ones the construct locals."""
    parts = ["None"] * index
    for position in range(index, shape.n):
        parts.append("_bK" if shape.kleene[position] else f"_e{position}")
    return ", ".join(parts)


def _emit_check_guard(w: _Writer, shape: _ScanShape, index: int,
                      on_fail: str) -> None:
    """Inline the construction-pushdown predicates triggered at *index*,
    falling back to the interpreted check (which re-raises exactly) when
    the straight-line evaluation raises."""
    condition = shape.check_sources(index, _construct_names(shape, index))
    if condition is None:
        return
    w.emit("try:")
    w.emit(f"    _ok = {condition}")
    w.emit("except Exception:")
    w.emit(f"    _ok = _BASE._passes_construction_checks("
           f"self, {index}, ({_fallback_padding(shape, index)},))")
    w.emit("if not _ok:")
    w.emit(f"    {on_fail}")


def _emit_level_hoists(w: _Writer, shape: _ScanShape) -> None:
    """Per-level stack slot loads shared by every candidate walk in one
    construct call: timestamps, instances, and the window low bound."""
    for level in range(shape.n - 2, -1, -1):
        w.emit(f"_s{level} = _stacks[{level}]")
        w.emit(f"_t{level} = _s{level}._timestamps")
        w.emit(f"_l{level} = _s{level}._instances")
        if shape.window is not None:
            w.emit(f"_lo{level} = _bisect_left(_t{level}, _min)")


def _emit_descend_loops(w: _Writer, shape: _ScanShape, rip_src: str,
                        before_src: str, kleene_binding: bool) -> None:
    """Nested candidate loops for levels ``n-2 .. 0`` (the interpreted
    ``_descend`` recursion unrolled), ending in the match emission."""
    n = shape.n
    for level in range(n - 2, -1, -1):
        w.emit(f"_hi{level} = _bisect_left(_t{level}, {before_src}) - 1")
        w.emit(f"_r{level} = {rip_src} - _s{level}._offset")
        w.emit(f"if _r{level} < _hi{level}:")
        w.emit(f"    _hi{level} = _r{level}")
        low = f"_lo{level}" if shape.window is not None else "0"
        w.emit(f"for _x{level} in range({low}, _hi{level} + 1):")
        w.depth += 1
        w.emit(f"_i{level} = _l{level}[_x{level}]")
        w.emit(f"_e{level} = _i{level}.event")
        _emit_check_guard(w, shape, level, "continue")
        rip_src = f"_i{level}.rip"
        before_src = f"_t{level}[_x{level}]"
    bindings = ", ".join(
        f"{shape.variables[position]!r}: "
        + ("_bK" if shape.kleene[position] else f"_e{position}")
        for position in range(n))
    if n > 1:
        start = "_e0.timestamp" if not shape.kleene[0] else \
            "_bK[0].timestamp"
    else:
        start = "_bK[0].timestamp" if kleene_binding else "_end"
    w.emit(f"matches.append(Match({{{bindings}}}, {start}, _end))")


def _generate_construct(w: _Writer, shape: _ScanShape) -> None:
    """The backward DFS unrolled into nested loops (non-Kleene patterns),
    walking the stack slots directly with bisect-computed bounds.

    Loop nesting binds components ``n-2 .. 0`` exactly like the
    interpreted ``_descend`` recursion, so the emitted match order is
    identical."""
    n = shape.n
    last = n - 1
    w.emit("def _construct(self, group, trigger, matches):")
    w.depth += 1
    if shape.profiling:
        w.emit("_prof = self._profile")
        w.emit("if _prof is not None:")
        w.emit("    _prof.construct_calls += 1")
    w.emit("_stacks = group.stacks")
    w.emit(f"_e{last} = trigger.event")
    w.emit(f"_end = _e{last}.timestamp")
    if shape.window is not None:
        w.emit(f"_min = _end - {shape.window!r}")
    _emit_check_guard(w, shape, last, "return")
    _emit_level_hoists(w, shape)
    _emit_descend_loops(w, shape, "trigger.rip", "_end",
                        kleene_binding=False)
    w.depth = 0


def _generate_kleene_construct(w: _Writer, shape: _ScanShape) -> None:
    """Trailing-Kleene (MAXIMAL) construction: anchor enumeration and
    extras collection generated from the stack slots, then the same
    unrolled descend as the non-Kleene walk per anchor binding.

    Binding order matches the interpreted ``_last_kleene_bindings``
    exactly: the singleton ``(trigger,)`` first, then every anchor in
    ascending stack order with its maximal run of extras."""
    n = shape.n
    last = n - 1
    w.emit("def _construct(self, group, trigger, matches):")
    w.depth += 1
    if shape.profiling:
        w.emit("_prof = self._profile")
        w.emit("if _prof is not None:")
        w.emit("    _prof.construct_calls += 1")
    w.emit("_stacks = group.stacks")
    w.emit("_eT = trigger.event")
    w.emit("_end = _eT.timestamp")
    if shape.window is not None:
        w.emit(f"_min = _end - {shape.window!r}")
    w.emit(f"_sK = _stacks[{last}]")
    w.emit("_tK = _sK._timestamps")
    w.emit("_lK = _sK._instances")
    # Anchor candidates: index <= last_absolute (always true for the
    # freshly pushed trigger's stack), ts strictly below the trigger,
    # ts >= the window bound.  _hiA + 1 is also the exclusive upper
    # bound of each anchor's extras run (everything below the trigger).
    w.emit("_hiA = _bisect_left(_tK, _end) - 1")
    lo_a = "_bisect_left(_tK, _min)" if shape.window is not None else "0"
    w.emit("_cands = [((_eT,), trigger.rip, _end)]")
    w.emit(f"for _xA in range({lo_a}, _hiA + 1):")
    w.depth += 1
    w.emit("_iA = _lK[_xA]")
    w.emit("_tsA = _tK[_xA]")
    w.emit("_xlo = _bisect_right(_tK, _tsA)")
    w.emit("_cands.append(((_iA.event, "
           "*[_q.event for _q in _lK[_xlo:_hiA + 1]], _eT), "
           "_iA.rip, _tsA))")
    w.depth -= 1
    _emit_level_hoists(w, shape)
    w.emit("for _bK, _ripK, _beforeK in _cands:")
    w.depth += 1
    _emit_check_guard(w, shape, last, "continue")
    _emit_descend_loops(w, shape, "_ripK", "_beforeK",
                        kleene_binding=True)
    w.depth = 0


def _generate_check_override(w: _Writer, shape: _ScanShape) -> None:
    """Inlined construction-pushdown checks for patterns whose (Kleene)
    construction walk stays interpreted."""
    w.emit("def _passes_construction_checks(self, index, chosen):")
    w.depth += 1
    for index in range(shape.n):
        names = {shape.variables[position]: f"chosen[{position}]"
                 for position in range(index, shape.n)
                 if not shape.kleene[position]}
        condition = shape.check_sources(index, names)
        if condition is None:
            continue
        w.emit(f"if index == {index}:")
        w.depth += 1
        w.emit("try:")
        w.emit(f"    return {condition}")
        w.emit("except Exception:")
        w.emit("    return _BASE._passes_construction_checks("
               "self, index, chosen)")
        w.depth -= 1
    w.emit("return True")
    w.depth -= 1


# -- interpreted fallbacks attached to the generated class -------------------

def _filters_fallback(self: SequenceScanConstruct, index: int,
                      event: Any) -> bool:
    """Re-run component *index*'s pushed filters through the interpreted
    closures (one hoisted context), so evaluation errors surface exactly
    as the interpreter raises them."""
    context = EvalContext({self._variables[index]: event},
                          self._functions, self._system)
    for predicate in self._filters[index]:
        if not predicate(context):
            return False
    return True


# -- public entry point ------------------------------------------------------

def compile_scan(analyzed: AnalyzedQuery, *,
                 window_pushdown: bool = True,
                 partition_pushdown: bool = True,
                 filter_pushdown: bool = True,
                 construction_pushdown: bool = False,
                 kleene_maximal: bool = True,
                 max_kleene_events: int = 10,
                 prune_interval: int = 512,
                 stats: PlanStats | None = None,
                 functions: Any = None,
                 system: Any = None,
                 profiling: bool = False) -> SequenceScanConstruct | None:
    """Build a code-generated SSC operator for *analyzed*.

    Returns ``None`` when the query uses an expression shape the
    translator does not cover — the caller then instantiates the
    interpreted operator instead.
    """
    try:
        shape_source = generate_scan_source(
            analyzed, window_pushdown=window_pushdown,
            partition_pushdown=partition_pushdown,
            filter_pushdown=filter_pushdown,
            construction_pushdown=construction_pushdown,
            prune_interval=prune_interval,
            kleene_maximal=kleene_maximal, profiling=profiling)
    except UnsupportedShape:
        return None

    namespace: dict[str, Any] = {
        "Match": Match,
        "Instance": Instance,
        "StackGroup": StackGroup,
        "_NO_PARTITION": _NO_PARTITION,
        "_as_bool": _as_bool,
        "_BASE": SequenceScanConstruct,
        "_bisect_left": _bisect_left,
        "_bisect_right": _bisect_right,
    }
    exec(compile(shape_source, "<sase-codegen>", "exec"), namespace)

    members: dict[str, Any] = {
        "feed_batch": namespace["feed_batch"],
        "_filters_fallback": _filters_fallback,
        "compiled": True,
        "profiled": profiling,
        "generated_batch": True,
        "generated_construct": "_construct" in namespace,
        "codegen_source": shape_source,
    }
    for name in ("_construct", "_passes_construction_checks"):
        if name in namespace:
            members[name] = namespace[name]
    generated = type("CompiledSequenceScanConstruct",
                     (SequenceScanConstruct,), members)
    return generated(
        analyzed, window_pushdown=window_pushdown,
        partition_pushdown=partition_pushdown,
        filter_pushdown=filter_pushdown,
        construction_pushdown=construction_pushdown,
        kleene_maximal=kleene_maximal,
        max_kleene_events=max_kleene_events,
        prune_interval=prune_interval,
        stats=stats, functions=functions, system=system)
