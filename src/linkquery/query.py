"""
Parsing and evaluation of the SELECT query subset.

Grammar: optional PREFIX declarations, SELECT with an explicit variable list,
a WHERE block of triple patterns (`.`-separated, `;` predicate-object lists
allowed) and zero or more non-nested OPTIONAL groups of triple patterns.
Terms are written as in Turtle, plus `?variables`; `#` comments run to the end
of the line and may appear anywhere whitespace may, including before a
variable or a brace.

Evaluation is the standard algebra: natural join of the required patterns,
then each OPTIONAL group left-joins the result all-or-nothing (a group either
extends a solution completely or leaves its variables unbound). It is an
index nested-loop join in three stages:

- Plan: the required patterns, and each OPTIONAL group, are ordered greedily,
  next the pattern with the most bound positions (constants, and variables
  bound by earlier steps); ties keep the written order. So a join starts
  from its constants (Hartig, "Zero-knowledge query planning for an iterator
  implementation of link traversal based query execution", ESWC 2011).
- Compile: each step is compiled once for the variables it will find bound,
  into its index shape (its first two bound positions), the lookup key a
  solution gives, the residual checks (a third bound position, a variable
  repeated in the pattern) and the triple positions that bind new variables.
  A partial solution is a tuple of terms, one slot per variable bound so
  far, in the order the plan binds them, and a step reads its bound
  variables by slot. An OPTIONAL group is compiled once for each slot
  layout of the solutions reaching it: a solution whose earlier group
  failed binds fewer variables, and two layouts may hold the same variables
  in different orders. A step compiled with no variable bound is also how
  `graph_match` and c-match's check (`traversal._compile_patterns`) match
  one pattern.
- Run: each partial solution makes one lookup in the graph's index of the
  step's shape (`Graph.index`), and each candidate triple gets the residual
  checks and extends the solution by concatenation: its terms for the new
  variables join the end. An extension starts with the solution it extends,
  so an OPTIONAL group fails the solutions that none of its extensions
  starts with.

Each layout's solutions are projected by one getter, unbound cells None.
The projected rows are deduplicated and sorted by value, NULL last, so the
order of the join never shows, and a row dict is built for each answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .rdf import (
    Graph,
    IriError,
    SolutionMapping,
    Term,
    Triple,
    TriplePattern,
    is_absolute_iri,
)
from .turtle import (
    DEFAULT_PREFIXES,
    QUERY_GRAMMAR,
    RDF_TYPE,
    Token,
    TurtleParseError,
    tokenize,
)

_UNSUPPORTED = {
    "FILTER",
    "UNION",
    "GRAPH",
    "SERVICE",
    "BIND",
    "VALUES",
    "MINUS",
    "EXISTS",
    "ORDER",
    "GROUP",
    "HAVING",
    "LIMIT",
    "OFFSET",
    "DISTINCT",
    "REDUCED",
    "ASK",
    "CONSTRUCT",
    "DESCRIBE",
}


class QueryParseError(Exception):
    pass


class UnsupportedFeatureError(QueryParseError):
    def __init__(self, feature: str):
        super().__init__("unsupported query construct: %s" % feature)
        self.feature = feature


@dataclass
class Query:
    projection: List[str]
    required: List[TriplePattern]
    optional_groups: List[List[TriplePattern]] = field(default_factory=list)

    def __post_init__(self):
        if not self.projection:
            raise QueryParseError("projection must be non-empty")
        if len(set(self.projection)) != len(self.projection):
            raise QueryParseError("duplicate variable in projection")
        bound = {v for pattern in triple_patterns(self) for v in pattern.variables()}
        for var in self.projection:
            if var not in bound:
                raise QueryParseError(
                    "projected variable ?%s does not occur in any pattern" % var
                )


def triple_patterns(query: Query) -> List[TriplePattern]:
    """All patterns of the query, required then optional, deduplicated."""
    seen = []
    for pattern in query.required + [tp for group in query.optional_groups for tp in group]:
        if pattern not in seen:
            seen.append(pattern)
    return seen


class _QueryParser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes = dict(DEFAULT_PREFIXES)

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise QueryParseError("unexpected end of query")
        self.pos += 1
        return tok

    def _check_supported(self, tok: Token) -> None:
        if tok.type == "word" and tok.value.upper() in _UNSUPPORTED:
            raise UnsupportedFeatureError(tok.value.upper())

    def _term(self, tok: Token) -> Term:
        self._check_supported(tok)
        if tok.type == "var":
            return Term.var(tok.value)
        if tok.type == "iriref" or tok.type == "pname":
            iri = tok.value
            if tok.type == "pname":
                prefix, local = tok.value.split(":", 1)
                if prefix not in self.prefixes:
                    raise QueryParseError("unknown prefix %r" % prefix)
                iri = self.prefixes[prefix] + local
            if not is_absolute_iri(iri):
                raise QueryParseError("relative IRI %r in query" % iri)
            return Term.iri(iri)
        if tok.type == "literal":
            return Term.literal(tok.value, tok.language)
        if tok.type == "word" and tok.value == "a":
            return Term.iri(RDF_TYPE)
        raise QueryParseError("unexpected token %r" % tok.value)

    def parse(self) -> Query:
        while True:
            tok = self._peek()
            if tok is None:
                raise QueryParseError("empty query")
            if tok.type == "word" and tok.value.upper() == "PREFIX":
                self._take()
                name = self._take()
                if name.type != "pname" or not name.value.endswith(":"):
                    raise QueryParseError("expected prefix name after PREFIX")
                iri = self._take()
                if iri.type != "iriref":
                    raise QueryParseError("expected namespace IRI in PREFIX")
                self.prefixes[name.value[:-1]] = iri.value
                continue
            break
        tok = self._take()
        self._check_supported(tok)
        if tok.type != "word" or tok.value.upper() != "SELECT":
            raise QueryParseError("expected SELECT")
        projection: List[str] = []
        while True:
            tok = self._peek()
            if tok is not None and tok.type == "var":
                projection.append(self._take().value)
            else:
                break
        tok = self._take()
        self._check_supported(tok)
        if tok.type != "word" or tok.value.upper() != "WHERE":
            raise QueryParseError("expected WHERE")
        tok = self._take()
        if tok.type != "brace" or tok.value != "{":
            raise QueryParseError("expected '{' after WHERE")
        required, optional_groups = self._parse_group(allow_optional=True)
        if self._peek() is not None:
            trailing = self._take()
            self._check_supported(trailing)
            raise QueryParseError("unexpected trailing token %r" % trailing.value)
        return Query(projection, required, optional_groups)

    def _parse_group(self, allow_optional: bool) -> Tuple[List[TriplePattern], List[List[TriplePattern]]]:
        patterns: List[TriplePattern] = []
        optional_groups: List[List[TriplePattern]] = []
        while True:
            tok = self._take()
            if tok.type == "brace" and tok.value == "}":
                return patterns, optional_groups
            if tok.type == "word" and tok.value.upper() == "OPTIONAL":
                if not allow_optional:
                    raise UnsupportedFeatureError("nested OPTIONAL")
                opening = self._take()
                if opening.type != "brace" or opening.value != "{":
                    raise QueryParseError("expected '{' after OPTIONAL")
                group, nested = self._parse_group(allow_optional=False)
                assert not nested
                optional_groups.append(group)
                continue
            if tok.type == "dot":
                continue
            self._check_supported(tok)
            subject = self._term(tok)
            while True:
                predicate = self._term(self._take())
                obj = self._term(self._take())
                patterns.append(TriplePattern(subject, predicate, obj))
                sep = self._peek()
                if sep is not None and sep.type == "semi":
                    self._take()
                    continue
                break


def parse_query(text: str) -> Query:
    try:
        return _QueryParser(tokenize(text, QUERY_GRAMMAR)).parse()
    except (TurtleParseError, IriError) as exc:
        raise QueryParseError(str(exc)) from exc


Row = Dict[str, Optional[Term]]


class _Step(NamedTuple):
    """A pattern compiled for the variables bound before it. A solution is a
    tuple of terms, one slot per variable bound so far, in the order the plan
    binds them; a step reads the bound ones by slot."""

    shape: Tuple[int, ...]  # the index it looks up: at most two bound positions
    key: Callable[[tuple], object]  # a solution's key in that index
    accept: Optional[Callable[[Triple, tuple], bool]]  # residual checks
    binds: Tuple[str, ...]  # the new variables, in the slot order they take
    grab: Callable[[Triple], tuple]  # a triple's terms for them, in that order


def _cells(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A getter of a tuple's items at the positions, always as a tuple."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else lambda t: ()


def _bound_positions(pattern: TriplePattern, bound: Tuple[str, ...]) -> int:
    return sum(not term.is_variable or term.value in bound for term in pattern)


def _compile(pattern: TriplePattern, slots: Tuple[str, ...]) -> _Step:
    fixed = []  # bound positions: (position, constant, or None and the bound variable's slot)
    binds: Dict[str, int] = {}  # each new variable: the position that binds it
    repeats = []  # (position, earlier position) of a new variable repeated
    for position, term in enumerate(pattern):
        if not term.is_variable:
            fixed.append((position, term, None))
        elif term.value in slots:
            fixed.append((position, None, slots.index(term.value)))
        elif term.value in binds:
            repeats.append((position, binds[term.value]))
        else:
            binds[term.value] = position
    keyed, residual = fixed[:2], fixed[2:]
    read = [slot for _, _, slot in keyed if slot is not None]
    if not read:
        constant = keyed[0][1] if len(keyed) == 1 else tuple(term for _, term, _ in keyed)
        key = lambda m: constant
    elif len(read) == len(keyed):
        key = itemgetter(*read)  # a term for one slot, a tuple for two
    elif keyed[0][2] is None:
        first, slot = keyed[0][1], read[0]
        key = lambda m: (first, m[slot])
    else:
        slot, second = read[0], keyed[1][1]
        key = lambda m: (m[slot], second)
    accept = None
    if residual or repeats:
        def accept(t: Triple, m: tuple) -> bool:
            return (all(t[pos] == (m[slot] if term is None else term)
                        for pos, term, slot in residual)
                    and all(t[pos] == t[earlier] for pos, earlier in repeats))
    return _Step(tuple(position for position, _, _ in keyed), key, accept,
                 tuple(binds), _cells(tuple(binds.values())))


def graph_match(graph: Graph, pattern: TriplePattern) -> List[Tuple[Triple, SolutionMapping]]:
    """All triples in the graph matching the pattern, with their bindings,
    sorted by triple, so that results never depend on insertion order.

    The pattern is compiled as `evaluate` compiles a first step, with no
    variable bound, so only its bucket of `Graph.index` is checked and
    sorted, not the whole graph. `explain --row` calls it.
    """
    step = _compile(pattern, ())
    out = [(t, dict(zip(step.binds, step.grab(t))))
           for t in graph.index(step.shape).get(step.key(()), ())
           if step.accept is None or step.accept(t, ())]
    out.sort(key=itemgetter(0))
    return out


def _plan(patterns: List[TriplePattern], slots: Tuple[str, ...]
          ) -> Tuple[List[_Step], Tuple[str, ...]]:
    """The patterns as compiled steps, in greedy order: next the first of
    those with the most bound positions; and the slots after the last."""
    todo = list(patterns)
    steps = []
    while todo:
        pattern = max(todo, key=lambda tp: _bound_positions(tp, slots))
        todo.remove(pattern)
        steps.append(_compile(pattern, slots))
        slots += steps[-1].binds
    return steps, slots


def _join(solutions: List[tuple], steps: List[_Step], graph: Graph) -> List[tuple]:
    for step in steps:
        if not solutions:
            break
        bucket = graph.index(step.shape).get
        key, accept, grab = step.key, step.accept, step.grab
        solutions = [m + grab(t) for m in solutions for t in bucket(key(m), ())
                     if accept is None or accept(t, m)]
    return solutions


_NULL_SORT_KEY = (True, ())  # after every (False, term)


def _row_sort_key(cells: tuple) -> tuple:
    """One flat tuple: each cell as a flag and its term, which sorts as a
    tuple, so that NULL sorts after any term."""
    key = ()
    for term in cells:
        key += _NULL_SORT_KEY if term is None else (False, term)
    return key


def evaluate(query: Query, graph: Graph) -> List[Row]:
    """Evaluate the query over a graph, returning sorted, deduplicated rows."""
    steps, slots = _plan(query.required, ())
    by_layout = {slots: _join([()], steps, graph)}  # solutions by their slots
    for group in query.optional_groups:
        joined: Dict[Tuple[str, ...], List[tuple]] = {}
        for layout, solutions in by_layout.items():
            steps, extended = _plan(group, layout)
            extensions = _join(solutions, steps, graph)
            # An extension starts with its solution, so the solutions no
            # extension starts with are those the group fails.
            width = len(layout)
            starts = {e[:width] for e in extensions}
            failed = [m for m in solutions if m not in starts]
            if extensions:
                joined.setdefault(extended, []).extend(extensions)
            if failed:
                joined.setdefault(layout, []).extend(failed)
        by_layout = joined
    projected = set()
    for layout, solutions in by_layout.items():
        # A variable the layout lacks reads the None past its last slot.
        width = len(layout)
        positions = [layout.index(v) if v in layout else width for v in query.projection]
        if width in positions:
            solutions = [m + (None,) for m in solutions]
        projected.update(map(_cells(positions), solutions))
    return [dict(zip(query.projection, cells))
            for cells in sorted(projected, key=_row_sort_key)]


def _cell(term: Optional[Term]) -> str:
    return "NULL" if term is None else term.n3()


def render_table(rows: List[Row], projection: List[str]) -> str:
    headers = ["?" + v for v in projection]
    table = [headers] + [[_cell(row[v]) for v in projection] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(out) + "\n"


def render_tsv(rows: List[Row], projection: List[str]) -> str:
    lines = ["\t".join("?" + v for v in projection)]
    for row in rows:
        lines.append(
            "\t".join("" if row[v] is None else row[v].n3() for v in projection)
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: List[Row], projection: List[str]) -> List[Dict[str, Optional[str]]]:
    return [
        {v: (None if row[v] is None else row[v].n3()) for v in projection}
        for row in rows
    ]
