"""Semantic analysis: bind a parsed query against a schema registry.

The analyzer performs the work the paper's implementation section implies
must happen before planning:

* every pattern component's event type is resolved to a schema, and every
  ``var.attr`` reference is checked against it (with type checking of
  comparisons and arithmetic);
* the WHERE qualification is flattened into a conjunction and each conjunct
  is classified by which kind of operator must evaluate it — a per-component
  filter (pushable into the sequence scan), a multi-variable parameterized
  predicate (the Selection operator), a negation predicate (the Negation
  operator), or a Kleene per-event predicate;
* equality conjuncts between components are grouped into equivalence
  classes; a class that covers every positive component yields the
  *partition attribute* that enables the Partitioned Active Instance Stack
  (PAIS) optimization of reference [8].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import SemanticError
from repro.events.model import AttributeType, EventSchema, SchemaRegistry
from repro.lang.ast import (
    AggregateCall,
    AggregateKind,
    AttributeRef,
    BinaryOp,
    BinOpKind,
    Expr,
    FunctionCall,
    Literal,
    PatternComponent,
    Query,
    ReturnClause,
    ReturnItem,
    SeqPattern,
    UnaryOp,
    VariableRef,
)

# A pseudo-type for expressions whose type we cannot know statically
# (function calls into the extensible `_` library).
_ANY = "any"
_NUMERIC = (AttributeType.INT, AttributeType.FLOAT)


@dataclass(frozen=True)
class PredicateInfo:
    """One conjunct of the WHERE clause, with its classification inputs."""

    expr: Expr
    variables: frozenset[str]
    negative_var: str | None = None
    kleene_var: str | None = None
    is_partition_equality: bool = False


@dataclass(frozen=True)
class PartitionScheme:
    """A full-cover equality class: each variable's partition attribute.

    When present, events can be hashed into per-value partitions before
    sequence scan (PAIS), and every equality conjunct the class implies can
    be dropped from the Selection operator.
    """

    attr_by_var: dict[str, str]

    def key_attribute(self, variable: str) -> str | None:
        return self.attr_by_var.get(variable)


@dataclass(frozen=True)
class ResolvedReturnItem:
    expr: Expr
    name: str


@dataclass
class AnalyzedQuery:
    """A parsed query bound to schemas and decomposed for planning."""

    query: Query
    registry: SchemaRegistry
    components: tuple[PatternComponent, ...]
    positives: tuple[PatternComponent, ...]
    schemas: dict[str, EventSchema]          # variable -> schema
    window: float | None                     # seconds, None = unbounded
    component_filters: dict[str, list[PredicateInfo]] = field(
        default_factory=dict)
    selection_predicates: list[PredicateInfo] = field(default_factory=list)
    negation_predicates: dict[str, list[PredicateInfo]] = field(
        default_factory=dict)
    kleene_predicates: dict[str, list[PredicateInfo]] = field(
        default_factory=dict)
    partition: PartitionScheme | None = None
    return_items: tuple[ResolvedReturnItem, ...] = ()
    output_type: str = "Match"
    output_stream: str | None = None

    @property
    def positive_index(self) -> dict[str, int]:
        return {component.variable: index
                for index, component in enumerate(self.positives)}

    @property
    def has_negation(self) -> bool:
        return any(component.negated for component in self.components)

    @property
    def has_kleene(self) -> bool:
        return any(component.kleene for component in self.components)

    @property
    def where_calls_functions(self) -> bool:
        """True when a WHERE conjunct, whichever operator evaluates it,
        calls an external function, which may read mutable system state
        such as the event database."""
        conjuncts = list(self.selection_predicates)
        for block in (self.component_filters, self.negation_predicates,
                      self.kleene_predicates):
            for infos in block.values():
                conjuncts.extend(infos)
        return any(_calls_functions(info.expr) for info in conjuncts)

    def negation_layout(self) -> list[tuple[PatternComponent, int, int]]:
        """For each negated component, its neighbouring positive positions.

        Returns ``(component, prev_index, next_index)`` where the indexes
        are positions into :attr:`positives`; ``-1`` means the negation
        leads the pattern and ``len(positives)`` means it trails it.
        """
        layout: list[tuple[PatternComponent, int, int]] = []
        positive_position = -1
        for component in self.components:
            if component.negated:
                layout.append((component, positive_position,
                               positive_position + 1))
            else:
                positive_position += 1
        return layout


def _calls_functions(expr: Expr) -> bool:
    if isinstance(expr, FunctionCall):
        return True
    if isinstance(expr, BinaryOp):
        return _calls_functions(expr.left) or _calls_functions(expr.right)
    if isinstance(expr, UnaryOp):
        return _calls_functions(expr.operand)
    if isinstance(expr, AggregateCall):
        return expr.arg is not None and _calls_functions(expr.arg)
    return False


def analyze(query: Query, registry: SchemaRegistry) -> AnalyzedQuery:
    """Validate *query* against *registry* and decompose it for planning."""
    return _Analyzer(query, registry).run()


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(self, item: tuple[str, str]) -> tuple[str, str]:
        parent = self._parent.setdefault(item, item)
        if parent != item:
            parent = self.find(parent)
            self._parent[item] = parent
        return parent

    def union(self, a: tuple[str, str], b: tuple[str, str]) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def classes(self) -> list[set[tuple[str, str]]]:
        groups: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for item in list(self._parent):
            groups.setdefault(self.find(item), set()).add(item)
        return list(groups.values())


class _Analyzer:
    def __init__(self, query: Query, registry: SchemaRegistry):
        self._query = query
        self._registry = registry
        self._pattern: SeqPattern = query.pattern
        self._schemas: dict[str, EventSchema] = {}
        self._negative_vars = {component.variable
                               for component in self._pattern.negatives}
        self._kleene_vars = {component.variable
                             for component in self._pattern.components
                             if component.kleene}

    def run(self) -> AnalyzedQuery:
        self._bind_components()
        analyzed = AnalyzedQuery(
            query=self._query,
            registry=self._registry,
            components=self._pattern.components,
            positives=self._pattern.positives,
            schemas=dict(self._schemas),
            window=(self._query.within.seconds
                    if self._query.within else None),
            component_filters={component.variable: []
                               for component in self._pattern.components},
            negation_predicates={variable: []
                                 for variable in self._negative_vars},
            kleene_predicates={variable: []
                               for variable in self._kleene_vars},
        )
        if self._query.where is not None:
            self._classify_where(analyzed)
        self._find_partition(analyzed)
        self._resolve_return(analyzed)
        return analyzed

    # -- pattern binding ---------------------------------------------------

    def _bind_components(self) -> None:
        for component in self._pattern.components:
            if component.is_any:
                self._schemas[component.variable] = \
                    self._intersection_schema(component)
            else:
                self._schemas[component.variable] = \
                    self._registry.get(component.event_type)

    def _intersection_schema(self, component: PatternComponent) \
            -> EventSchema:
        """An ANY component's variable can only reference attributes that
        every alternative type declares with the same type."""
        schemas = [self._registry.get(name)
                   for name in component.event_types]
        common = []
        first = schemas[0]
        for spec in first:
            if all(spec.name in schema
                   and schema.attribute(spec.name).type is spec.type
                   for schema in schemas[1:]):
                common.append((spec.name, spec.type))
        return EventSchema(f"ANY_{component.variable}", common)

    # -- WHERE classification ----------------------------------------------

    def _classify_where(self, analyzed: AnalyzedQuery) -> None:
        for conjunct in _flatten_and(self._query.where):
            result_type = self._check_expr(conjunct, allow_aggregates=False)
            if result_type not in (AttributeType.BOOL, _ANY):
                raise SemanticError(
                    "WHERE conjunct does not evaluate to a boolean: "
                    f"{conjunct!r}")
            variables = frozenset(_collect_variables(conjunct))
            negatives = variables & self._negative_vars
            kleenes = variables & self._kleene_vars
            if len(negatives) > 1:
                raise SemanticError(
                    "a WHERE conjunct may reference at most one negated "
                    f"component; found {sorted(negatives)}")
            if negatives and kleenes:
                raise SemanticError(
                    "a WHERE conjunct may not mix negated and Kleene "
                    f"components: {conjunct!r}")
            if len(kleenes) > 1:
                raise SemanticError(
                    "a WHERE conjunct may reference at most one Kleene "
                    f"component; found {sorted(kleenes)}")
            info = PredicateInfo(
                expr=conjunct,
                variables=variables,
                negative_var=next(iter(negatives), None),
                kleene_var=next(iter(kleenes), None),
            )
            if info.negative_var is not None:
                analyzed.negation_predicates[info.negative_var].append(info)
            elif info.kleene_var is not None:
                analyzed.kleene_predicates[info.kleene_var].append(info)
            elif len(variables) == 1:
                analyzed.component_filters[next(iter(variables))].append(info)
            else:
                analyzed.selection_predicates.append(info)

    # -- partition discovery -------------------------------------------------

    def _find_partition(self, analyzed: AnalyzedQuery) -> None:
        """Union-find over ``var.attr`` pairs linked by equality conjuncts.

        A class covering all positive components becomes the partition
        scheme (the optimizer may then hash events into per-value stacks and
        drop the implied equality conjuncts from Selection).
        """
        union_find = _UnionFind()
        equality_conjuncts: list[PredicateInfo] = []
        buckets: list[PredicateInfo] = list(analyzed.selection_predicates)
        for predicates in analyzed.negation_predicates.values():
            buckets.extend(predicates)
        for predicates in analyzed.kleene_predicates.values():
            buckets.extend(predicates)
        for info in buckets:
            expr = info.expr
            if isinstance(expr, BinaryOp) and expr.op is BinOpKind.EQ and \
                    isinstance(expr.left, AttributeRef) and \
                    isinstance(expr.right, AttributeRef) and \
                    expr.left.variable != expr.right.variable:
                union_find.union((expr.left.variable, expr.left.attribute),
                                 (expr.right.variable, expr.right.attribute))
                equality_conjuncts.append(info)

        positive_vars = {component.variable
                         for component in analyzed.positives}
        for cls in union_find.classes():
            vars_in_class = {variable for variable, _ in cls}
            if positive_vars <= vars_in_class:
                attr_by_var: dict[str, str] = {}
                ambiguous = False
                for variable, attribute in cls:
                    if attr_by_var.get(variable, attribute) != attribute:
                        # Two different attributes of one variable in the
                        # same class (x.a = y.b AND x.c = y.b): cannot key
                        # the variable on a single attribute.
                        ambiguous = True
                    attr_by_var.setdefault(variable, attribute)
                if ambiguous:
                    continue
                analyzed.partition = PartitionScheme(attr_by_var)
                class_set = set(cls)
                replacements: dict[int, PredicateInfo] = {}
                for info in equality_conjuncts:
                    expr = info.expr
                    assert isinstance(expr, BinaryOp)
                    assert isinstance(expr.left, AttributeRef)
                    assert isinstance(expr.right, AttributeRef)
                    left = (expr.left.variable, expr.left.attribute)
                    right = (expr.right.variable, expr.right.attribute)
                    if left in class_set and right in class_set:
                        replacements[id(info)] = PredicateInfo(
                            expr=info.expr, variables=info.variables,
                            negative_var=info.negative_var,
                            kleene_var=info.kleene_var,
                            is_partition_equality=True)
                _replace_in_place(analyzed.selection_predicates, replacements)
                for predicates in analyzed.negation_predicates.values():
                    _replace_in_place(predicates, replacements)
                for predicates in analyzed.kleene_predicates.values():
                    _replace_in_place(predicates, replacements)
                return

    # -- RETURN resolution ---------------------------------------------------

    def _resolve_return(self, analyzed: AnalyzedQuery) -> None:
        clause = self._query.return_clause
        if clause is None:
            analyzed.return_items = tuple(
                ResolvedReturnItem(VariableRef(component.variable),
                                   component.variable)
                for component in self._pattern.positives)
            return
        items: list[ResolvedReturnItem] = []
        used_names: set[str] = set()
        for item in clause.items:
            expanded = self._expand_item(item)
            for expr, name in expanded:
                self._check_expr(expr, allow_aggregates=True)
                final = _unique_name(name, used_names)
                used_names.add(final)
                items.append(ResolvedReturnItem(expr, final))
        analyzed.return_items = tuple(items)
        if clause.event_name:
            analyzed.output_type = clause.event_name
        analyzed.output_stream = clause.into_stream

    def _expand_item(self, item: ReturnItem) -> list[tuple[Expr, str]]:
        expr = item.expr
        if isinstance(expr, VariableRef) and expr.name == "*":
            expanded: list[tuple[Expr, str]] = []
            for component in self._pattern.positives:
                schema = self._schemas[component.variable]
                for spec in schema:
                    expanded.append((
                        AttributeRef(component.variable, spec.name),
                        f"{component.variable}_{spec.name}"))
            return expanded
        return [(expr, item.alias or _default_name(expr))]

    # -- type checking -------------------------------------------------------

    def _check_expr(self, expr: Expr,
                    allow_aggregates: bool) -> AttributeType | str:
        if isinstance(expr, Literal):
            return _literal_type(expr.value)
        if isinstance(expr, AttributeRef):
            schema = self._schema_for(expr.variable)
            if expr.attribute in ("Timestamp", "timestamp"):
                # every event carries an implicit timestamp (the paper's
                # Q2 reads y.Timestamp)
                return AttributeType.FLOAT
            return schema.attribute(expr.attribute).type
        if isinstance(expr, VariableRef):
            self._schema_for(expr.name)
            return _ANY
        if isinstance(expr, UnaryOp):
            inner = self._check_expr(expr.operand, allow_aggregates)
            if expr.op.name == "NOT":
                if inner not in (AttributeType.BOOL, _ANY):
                    raise SemanticError(f"NOT applied to non-boolean: "
                                        f"{expr.operand!r}")
                return AttributeType.BOOL
            if inner not in (*_NUMERIC, _ANY):
                raise SemanticError(
                    f"unary minus applied to non-numeric: {expr.operand!r}")
            return inner if inner != _ANY else _ANY
        if isinstance(expr, BinaryOp):
            return self._check_binary(expr, allow_aggregates)
        if isinstance(expr, FunctionCall):
            for arg in expr.args:
                self._check_expr(arg, allow_aggregates)
            return _ANY
        if isinstance(expr, AggregateCall):
            if not allow_aggregates:
                raise SemanticError(
                    "aggregates are only allowed in the RETURN clause")
            return self._check_aggregate(expr)
        raise SemanticError(f"unsupported expression node: {expr!r}")

    def _check_binary(self, expr: BinaryOp,
                      allow_aggregates: bool) -> AttributeType | str:
        left = self._check_expr(expr.left, allow_aggregates)
        right = self._check_expr(expr.right, allow_aggregates)
        if expr.op.is_logical:
            for side, tree in ((left, expr.left), (right, expr.right)):
                if side not in (AttributeType.BOOL, _ANY):
                    raise SemanticError(
                        f"{expr.op.value} operand is not boolean: {tree!r}")
            return AttributeType.BOOL
        if expr.op.is_comparison:
            if not _comparable(left, right):
                raise SemanticError(
                    f"cannot compare {_type_name(left)} with "
                    f"{_type_name(right)} in {expr!r}")
            if expr.op not in (BinOpKind.EQ, BinOpKind.NEQ) and \
                    AttributeType.BOOL in (left, right):
                raise SemanticError(
                    f"ordering comparison on boolean values: {expr!r}")
            return AttributeType.BOOL
        # arithmetic
        for side, tree in ((left, expr.left), (right, expr.right)):
            if side == _ANY:
                continue
            if expr.op is BinOpKind.ADD and side is AttributeType.STRING:
                continue  # string concatenation
            if side not in _NUMERIC:
                raise SemanticError(
                    f"arithmetic on non-numeric operand: {tree!r}")
        if AttributeType.STRING in (left, right):
            if left is not right and _ANY not in (left, right):
                raise SemanticError(
                    f"cannot mix string and numeric operands in {expr!r}")
            return AttributeType.STRING
        if _ANY in (left, right):
            return _ANY
        if AttributeType.FLOAT in (left, right) or expr.op is BinOpKind.DIV:
            return AttributeType.FLOAT
        return AttributeType.INT

    def _check_aggregate(self, expr: AggregateCall) -> AttributeType | str:
        if expr.arg is None:  # COUNT(*)
            return AttributeType.INT
        if isinstance(expr.arg, VariableRef):
            self._schema_for(expr.arg.name)
            if expr.kind is not AggregateKind.COUNT:
                raise SemanticError(
                    f"{expr.kind.value} needs an attribute reference, "
                    f"e.g. {expr.kind.value}(d.Price)")
            return AttributeType.INT
        if isinstance(expr.arg, AttributeRef):
            schema = self._schema_for(expr.arg.variable)
            attr_type = schema.attribute(expr.arg.attribute).type
            if expr.kind is AggregateKind.COUNT:
                return AttributeType.INT
            if expr.kind in (AggregateKind.SUM, AggregateKind.AVG):
                if attr_type not in _NUMERIC:
                    raise SemanticError(
                        f"{expr.kind.value} over non-numeric attribute "
                        f"{expr.arg.variable}.{expr.arg.attribute}")
                return AttributeType.FLOAT
            return attr_type  # MIN / MAX / FIRST / LAST
        raise SemanticError(
            "aggregate argument must be a variable or attribute reference")

    def _schema_for(self, variable: str) -> EventSchema:
        try:
            return self._schemas[variable]
        except KeyError:
            raise SemanticError(
                f"unknown pattern variable {variable!r}; bound variables: "
                f"{', '.join(self._schemas) or '(none)'}") from None


# -- helpers ---------------------------------------------------------------

def _flatten_and(expr: Expr) -> Iterable[Expr]:
    if isinstance(expr, BinaryOp) and expr.op is BinOpKind.AND:
        yield from _flatten_and(expr.left)
        yield from _flatten_and(expr.right)
    else:
        yield expr


def _collect_variables(expr: Expr) -> set[str]:
    variables: set[str] = set()
    _walk_variables(expr, variables)
    return variables


def _walk_variables(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, AttributeRef):
        out.add(expr.variable)
    elif isinstance(expr, VariableRef):
        if expr.name != "*":
            out.add(expr.name)
    elif isinstance(expr, BinaryOp):
        _walk_variables(expr.left, out)
        _walk_variables(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _walk_variables(expr.operand, out)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            _walk_variables(arg, out)
    elif isinstance(expr, AggregateCall):
        if expr.arg is not None:
            _walk_variables(expr.arg, out)


def _literal_type(value: object) -> AttributeType:
    if isinstance(value, bool):
        return AttributeType.BOOL
    if isinstance(value, int):
        return AttributeType.INT
    if isinstance(value, float):
        return AttributeType.FLOAT
    return AttributeType.STRING


def _comparable(left: AttributeType | str,
                right: AttributeType | str) -> bool:
    if _ANY in (left, right):
        return True
    if left in _NUMERIC and right in _NUMERIC:
        return True
    return left is right


def _type_name(attr_type: AttributeType | str) -> str:
    return attr_type if isinstance(attr_type, str) else attr_type.value


def _default_name(expr: Expr) -> str:
    if isinstance(expr, AttributeRef):
        return f"{expr.variable}_{expr.attribute}"
    if isinstance(expr, VariableRef):
        return expr.name
    if isinstance(expr, FunctionCall):
        return expr.name.lstrip("_") or "value"
    if isinstance(expr, AggregateCall):
        if expr.arg is None:
            return "count"
        return f"{expr.kind.value.lower()}_{_default_name(expr.arg)}"
    return "value"


def _unique_name(name: str, used: set[str]) -> str:
    if name not in used:
        return name
    suffix = 2
    while f"{name}_{suffix}" in used:
        suffix += 1
    return f"{name}_{suffix}"


def _replace_in_place(predicates: list[PredicateInfo],
                      replacements: dict[int, PredicateInfo]) -> None:
    for index, info in enumerate(predicates):
        replacement = replacements.get(id(info))
        if replacement is not None:
            predicates[index] = replacement
