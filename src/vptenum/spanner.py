"""Extraction grammars over nested documents, compiled to transducers.

A grammar assigns spans to variables by deriving ref-words: document
letters interleaved with capture markers (written ⊢x for the start of
x's span and ⊣x for its end). Productions come in exactly three
shapes: erase, prepend one neutral-or-marker symbol, or wrap an
open/close pair around one nonterminal and continue with another.

Compilation goes grammar -> marker-reading acceptor -> transducer. The
acceptor reads markers as extra neutral letters; the transducer hides
them by fusing every maximal chain of marker transitions into the
following letter transition, whose output symbol is the set of fused
markers. Evaluating the transducer on the document (with a synthetic
end marker appended, so trailing marker chains have a letter to fuse
into) yields one output word per span assignment.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import chain

from vptenum.nested import FrozenRecord, InputError, Span, StructuredAlphabet, Token, TokenKind, _set
from vptenum import engine
from vptenum.enumtree import Enumerator
from vptenum.vpt import ResourceCapError, Vpt, is_io_deterministic, level_reach, stable_key

END_MARKER = "#"
MAX_VPATHS = 100_000  # the most marker chains evpa_to_vpt expands
# evaluate_spanner's own end marker: no document token can name it, so
# the pass refuses END_MARKER in a document like any foreign letter
_END = object()


class GrammarError(InputError):
    """The grammar file is malformed or breaks a shape rule."""


class NotFunctionalError(InputError):
    """Some accepted ref-word does not use every variable exactly once."""


def open_marker(var: str) -> str:
    return "⊢" + var  # ⊢x


def close_marker(var: str) -> str:
    return "⊣" + var  # ⊣x


class EpsProduction(FrozenRecord):
    _fields = ("head",)

    def __init__(self, head: str) -> None:
        _set(self, "head", head)


class ChainProduction(FrozenRecord):
    """head -> sym tail, where sym is a neutral letter or a marker."""

    _fields = ("head", "sym", "is_marker", "tail")

    def __init__(self, head: str, sym: str, is_marker: bool, tail: str) -> None:
        _set(self, "head", head)
        _set(self, "sym", sym)
        _set(self, "is_marker", is_marker)
        _set(self, "tail", tail)


class NestProduction(FrozenRecord):
    """head -> <a inner a> tail."""

    _fields = ("head", "letter", "inner", "tail")

    def __init__(self, head: str, letter: str, inner: str, tail: str) -> None:
        _set(self, "head", head)
        _set(self, "letter", letter)
        _set(self, "inner", inner)
        _set(self, "tail", tail)


class Vpeg(FrozenRecord):
    _fields = ("variables", "nonterminals", "alphabet", "start", "productions")

    def __init__(
        self,
        variables: frozenset,
        nonterminals: frozenset,
        alphabet: StructuredAlphabet,
        start: str,
        productions: tuple,
    ) -> None:
        _set(self, "variables", variables)
        _set(self, "nonterminals", nonterminals)
        _set(self, "alphabet", alphabet)
        _set(self, "start", start)
        _set(self, "productions", productions)


def parse_vpeg(text: str) -> Vpeg:
    """Parse the grammar format:

        var x y
        start S
        S -> eps | a S | (x S | x) S | <a S a> S

    Alternatives separated by `|`; captures written `(x` and `x)`;
    `#` starts a comment. Nonterminals are the tokens that appear on
    the left of `->`.
    """
    lines = []
    for raw in text.split("\n"):  # only "\n" ends a line, as in documents
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    variables: list[str] = []
    start: str | None = None
    rule_lines: list[tuple[str, str]] = []
    for line in lines:
        parts = line.split()
        if parts[1:2] == ["->"]:  # a production, whatever its head is named
            rule_lines.append((parts[0], " ".join(parts[2:])))
        elif parts[0] == "var":
            variables.extend(parts[1:])
        elif parts[0] == "start":
            if len(parts) != 2:
                raise GrammarError(f"start line needs one symbol: {line!r}")
            if start is not None:
                raise GrammarError("duplicate start line")
            start = parts[1]
        elif "->" in parts:
            raise GrammarError(f"production needs a single head: {line!r}")
        else:
            raise GrammarError(f"expected a production: {line!r}")
    if start is None:
        raise GrammarError("missing start line")
    if len(set(variables)) != len(variables):
        raise GrammarError("duplicate variable declaration")
    varset = frozenset(variables)
    heads = frozenset(h for h, _ in rule_lines)
    if start not in heads:
        raise GrammarError(f"start symbol {start!r} has no production")

    def parse_alt(head: str, alt: str):
        toks = alt.split()
        if not toks:
            raise GrammarError(f"empty alternative in {head!r}")
        if toks == ["eps"]:
            return EpsProduction(head)
        if len(toks) == 2:
            sym, tail = toks
            if tail not in heads:
                raise GrammarError(f"unknown nonterminal {tail!r} in {head!r}")
            if sym.startswith("(") and len(sym) > 1:
                var = sym[1:]
                if var not in varset:
                    raise GrammarError(f"undeclared variable {var!r} in {head!r}")
                return ChainProduction(head, open_marker(var), True, tail)
            if sym.endswith(")") and len(sym) > 1:
                var = sym[:-1]
                if var not in varset:
                    raise GrammarError(f"undeclared variable {var!r} in {head!r}")
                return ChainProduction(head, close_marker(var), True, tail)
            if sym in heads:
                raise GrammarError(
                    f"rule {head!r} -> {alt!r} rejected: not a grammar shape"
                )
            if sym.startswith("<") or sym.endswith(">"):
                raise GrammarError(f"stray bracket symbol {sym!r} in {head!r}")
            return ChainProduction(head, sym, False, tail)
        if len(toks) == 4:
            o, inner, c, tail = toks
            if not (o.startswith("<") and len(o) > 1 and c.endswith(">") and len(c) > 1):
                raise GrammarError(f"malformed bracket production {alt!r} in {head!r}")
            if o[1:] != c[:-1]:
                raise GrammarError(f"mismatched brackets {o!r} {c!r} in {head!r}")
            for nt in (inner, tail):
                if nt not in heads:
                    raise GrammarError(f"unknown nonterminal {nt!r} in {head!r}")
            return NestProduction(head, o[1:], inner, tail)
        raise GrammarError(f"rule {head!r} -> {alt!r} rejected: not a grammar shape")

    productions = []
    for head, rhs in rule_lines:
        for alt in rhs.split("|"):
            productions.append(parse_alt(head, alt.strip()))

    opens, closes, neutrals = set(), set(), set()
    for p in productions:
        if isinstance(p, NestProduction):
            opens.add(p.letter)
            closes.add(p.letter)
        elif isinstance(p, ChainProduction) and not p.is_marker:
            neutrals.add(p.sym)
    alphabet = StructuredAlphabet(
        opens=frozenset(opens), closes=frozenset(closes), neutrals=frozenset(neutrals)
    )
    return Vpeg(
        variables=varset,
        nonterminals=heads,
        alphabet=alphabet,
        start=start,
        productions=tuple(productions),
    )


def nullable_set(vpeg: Vpeg) -> frozenset:
    """Nonterminals that derive the empty ref-word.

    Every production shape but erasure emits at least one ref-word
    symbol, so these are exactly the heads of erase productions, found
    in one pass over the productions.
    """
    return frozenset(p.head for p in vpeg.productions if isinstance(p, EpsProduction))


def to_evpa(vpeg: Vpeg, *, ops: list | None = None) -> Vpt:
    """Acceptor (output-free Vpt) for the grammar's ref-words; markers
    ride as neutrals.

    States are the nonterminals. A chain production becomes one neutral
    transition; a bracket production pushes its own stack symbol on the
    open and pops it into the continuation from every erasing state.
    One pass over the productions, so construction is linear in them;
    when `ops` is given, the number of loop iterations executed
    (including the erasable-set pass) is appended to it.
    """
    finals = nullable_set(vpeg)
    steps = len(vpeg.productions)  # the erasable-set pass
    opens, closes, neutrals = set(), set(), set()
    stack_symbols = set()
    marker_letters = set()
    for i, p in enumerate(vpeg.productions):
        steps += 1
        if isinstance(p, ChainProduction):
            neutrals.add((p.head, p.sym, None, p.tail))
            if p.is_marker:
                marker_letters.add(p.sym)
        elif isinstance(p, NestProduction):
            z = f"z{i}"
            stack_symbols.add(z)
            opens.add((p.head, p.letter, None, p.inner, z))
            for w in finals:
                steps += 1
                closes.add((w, p.letter, None, z, p.tail))
    if ops is not None:
        ops.append(steps)
    alphabet = StructuredAlphabet(
        opens=vpeg.alphabet.opens,
        closes=vpeg.alphabet.closes,
        neutrals=vpeg.alphabet.neutrals | marker_letters,
    )
    return Vpt(
        states=vpeg.nonterminals,
        alphabet=alphabet,
        stack_symbols=frozenset(stack_symbols) or frozenset({"z"}),
        output_symbols=frozenset(),
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(neutrals),
        initial=frozenset({vpeg.start}),
        final=finals,
    )


def _marker_edges(evpa: Vpt, variables) -> list[tuple[str, str, str]]:
    """The marker transitions in stable_key order, which fixes how a search
    over them goes in every process and which state a cycle refusal names."""
    markers = {open_marker(x) for x in variables} | {close_marker(x) for x in variables}
    edges = [(q, a, q2) for q, a, _, q2 in evpa.neutrals if a in markers]
    return sorted(edges, key=stable_key)


def check_functional(evpa: Vpt, variables) -> None:
    """Reject unless every accepted ref-word opens and closes every
    variable exactly once, start before end.

    A variable's status moves only on its own two markers, so each
    variable is checked on its own, in sorted order, in time linear in
    the variables. The check runs `level_reach` over pairs of an
    acceptor state and the status: 0 unopened, 1 open, 2 closed, or
    None once one of the variable's markers repeats or comes out of
    order. Opens and closes carry the status unchanged into and out of
    the inner level. Every accepting state that the initial level
    reaches must hold status 2. A repeated or misordered capture of any
    variable is reported first, else the first variable that some
    accepted ref-word leaves unassigned.
    """
    moves: dict = {q: [] for q in evpa.states}
    pushes: dict = {q: [] for q in evpa.states}
    pops: dict = {}
    for q, a, _, q2 in evpa.neutrals:
        moves[q].append((a, q2))
    for q, _, _, q2, z in evpa.opens:
        pushes[q].append((q2, z))
    for q, _, _, z, q2 in evpa.closes:
        pops.setdefault((q, z), []).append(q2)
    initial = [(q0, 0) for q0 in evpa.initial]

    def opens(state):
        q, status = state
        return [((q2, status), z) for q2, z in pushes[q]]

    def closes(state, z):
        q, status = state
        return [(q2, status) for q2 in pops.get((q, z), ())]

    def accepted_statuses(x) -> set:
        o, c = open_marker(x), close_marker(x)
        bump = {(o, 0): 1, (c, 1): 2}  # any other status meeting o or c: None

        def neutral(state):
            q, status = state
            return [(q2, bump.get((a, status)) if a == o or a == c else status) for a, q2 in moves[q]]

        reach = level_reach(initial, neutral, opens, closes)
        return {status for entry in initial for q, status in reach[entry] if q in evpa.final}

    unassigned = None
    for x in sorted(variables):
        statuses = accepted_statuses(x)
        if None in statuses:
            raise NotFunctionalError(
                "grammar not functional: some accepted ref-word "
                "repeats or misorders a capture"
            )
        if unassigned is None and statuses - {2}:
            unassigned = x
    if unassigned is not None:
        raise NotFunctionalError(
            "grammar not functional: some accepted ref-word leaves "
            f"variable(s) {unassigned} unassigned"
        )


def evpa_to_vpt(evpa: Vpt, variables, end_letter=END_MARKER) -> Vpt:
    """Fuse marker chains into the following letter transition.

    One walk expands every marker chain and refuses a chain that ends
    at its start, which could be pumped forever. It uses up each start's
    chains before the next start's, in stable_key order, so a refusal
    names the least state on a marker cycle. Each letter transition
    leaving p gets one copy per chain ending at p, whose source is the
    chain's start and whose output is the set of markers along the
    chain; the empty chain leaves the transition as it is, with empty
    output. A fresh final state is reachable only by the synthetic end
    marker, the neutral ``end_letter``, fused or not.
    """
    edges = _marker_edges(evpa, variables)
    adj: dict = {}
    for q, a, q2 in edges:
        adj.setdefault(q, []).append((a, q2))
    # (chain start, fused marker set) per chain end state, each state's
    # empty chain (q, None) included
    ending_at = {q: {(q, None)} for q in evpa.states}
    count = 0
    work = [(q, frozenset({a}), q2) for q, a, q2 in reversed(edges)]
    while work:
        start, fused, end = work.pop()
        if end == start:
            raise GrammarError(f"capture transitions form a cycle through state {start!r}")
        bucket = ending_at[end]
        if (start, fused) in bucket:
            continue
        bucket.add((start, fused))
        count += 1
        if count > MAX_VPATHS:
            raise ResourceCapError(f"marker chain expansion exceeded {MAX_VPATHS}")
        for a, q2 in adj.get(end, ()):
            work.append((start, fused | {a}, q2))

    final = "qf"
    while final in evpa.states:
        final += "_"
    marker_letters = {a for _, a, _ in edges}
    moves = [t for t in evpa.neutrals if t[1] not in marker_letters]
    moves += [(q, end_letter, None, final) for q in evpa.final]
    opens = {(s, a, out, q2, x) for q, a, _, q2, x in evpa.opens for s, out in ending_at[q]}
    closes = {(s, a, out, x, q2) for q, a, _, x, q2 in evpa.closes for s, out in ending_at[q]}
    neutrals = {(s, a, out, q2) for q, a, _, q2 in moves for s, out in ending_at[q]}
    outputs = {t[2] for t in chain(opens, closes, neutrals)} - {None}
    alphabet = StructuredAlphabet(
        opens=evpa.alphabet.opens,
        closes=evpa.alphabet.closes,
        neutrals=(evpa.alphabet.neutrals - marker_letters) | {end_letter},
    )
    return Vpt(
        states=evpa.states | {final},
        alphabet=alphabet,
        stack_symbols=evpa.stack_symbols,
        output_symbols=frozenset(outputs),
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(neutrals),
        initial=evpa.initial,
        final=frozenset({final}),
    )


class SpanLayout:
    """How the spans of one variable set are decoded and printed.

    The variables are sorted once: the start marker of the i-th fills
    slot 2i of a result's bounds, its end marker slot 2i+1. Each output
    symbol (a set of markers) compiles to the tuple of slots it fills,
    the first time it is seen, so decoding a result costs one slot
    write per marker plus one check per variable. The print format is
    fixed here too, with `%` in a name escaped so it prints literally.
    """

    __slots__ = ("variables", "width", "template", "_starts", "_marker_slots", "_slots")

    def __init__(self, variables):
        xs = tuple(sorted(variables))
        self.variables = xs
        self.width = 2 * len(xs)
        self._starts = tuple(range(0, self.width, 2))
        self.template = " ".join(x.replace("%", "%%") + "=[%d,%d)" for x in xs)
        self._marker_slots = {}
        for i, x in enumerate(xs):
            self._marker_slots[open_marker(x)] = 2 * i
            self._marker_slots[close_marker(x)] = 2 * i + 1
        self._slots: dict = {}

    def compile(self, out) -> tuple:
        """The slots one output symbol fills; markers of other variables
        fill none."""
        marker_slots = self._marker_slots
        slots = self._slots[out] = tuple(sorted(marker_slots[m] for m in out if m in marker_slots))
        return slots

    def decode(self, output_word) -> "SpanMapping":
        """Read span ends off a (marker set, position) word, checked as
        by ``fill``."""
        slots, outs, positions = self._slots, [], []
        for out, pos in output_word:
            if out not in slots:
                self.compile(out)
            outs.append(out)
            positions.append(pos)
        return SpanMapping(self, self.fill(range(len(outs)), outs, positions, slots))

    def fill(self, symbols, output_of, position_of, slots) -> tuple:
        """The bounds that a result's symbols fill. Each symbol is a key:
        ``output_of[key]`` is its output's key in ``slots``, which maps it
        to the slots it fills (see ``compile``), and ``position_of[key]``
        its position.

        A start marker at position k begins the span at k; an end marker
        at position k ends it exclusively at k, so a pair at the same
        position is the empty span. Each variable must start once and
        end once, in that order.
        """
        bounds = [None] * self.width
        for key in symbols:
            pos = position_of[key]
            for s in slots[output_of[key]]:
                if bounds[s] is not None:
                    raise NotFunctionalError(
                        f"duplicate capture for variable {self.variables[s >> 1]!r}"
                    )
                bounds[s] = pos
        if None in bounds:
            self._reject(bounds)
        for i in self._starts:
            if not 1 <= bounds[i] <= bounds[i + 1]:
                self._reject(bounds)
        return tuple(bounds)

    def _reject(self, bounds: list) -> None:
        """Raise for the first variable, in sorted order, whose span is bad."""
        for i, x in enumerate(self.variables):
            start, end = bounds[2 * i], bounds[2 * i + 1]
            if start is None or end is None:
                raise NotFunctionalError(f"missing capture for variable {x!r}")
            if start > end:
                raise NotFunctionalError(f"span of variable {x!r} ends before it starts")
            Span(start, end)  # raises for a position before the document


class SpanMapping:
    """One result: the layout it was decoded with and its bounds, the
    start and end of each variable's span in the layout's order."""

    __slots__ = ("layout", "bounds")

    def __init__(self, layout: SpanLayout, bounds: tuple):
        self.layout = layout
        self.bounds = bounds

    @property
    def spans(self) -> tuple:
        """Sorted tuple of (variable, Span)."""
        b = self.bounds
        return tuple(
            (x, Span(b[2 * i], b[2 * i + 1])) for i, x in enumerate(self.layout.variables)
        )

    def render(self) -> str:
        return self.layout.template % self.bounds

    def __eq__(self, other):
        if not isinstance(other, SpanMapping):
            return NotImplemented
        return self.bounds == other.bounds and self.layout.variables == other.layout.variables

    def __hash__(self):
        return hash((self.layout.variables, self.bounds))

    def __repr__(self):
        return f"SpanMapping({self.spans!r})"


@lru_cache(maxsize=64)
def _layout(variables: frozenset) -> SpanLayout:
    return SpanLayout(variables)


def decode_mapping(output_word, variables) -> SpanMapping:
    """Decode one output word through the variable set's cached layout."""
    return _layout(frozenset(variables)).decode(output_word)


def compile_vpeg(vpeg: Vpeg, end_letter=END_MARKER) -> Vpt:
    evpa = to_evpa(vpeg)
    check_functional(evpa, vpeg.variables)
    return evpa_to_vpt(evpa, vpeg.variables, end_letter=end_letter)


def preprocess(vpeg: Vpeg, tokens) -> engine.PreprocessResult:
    """The grammar's single pass over the document, with a synthetic
    end marker appended; the result's words are its span assignments.

    The pass checks the letters against the grammar's alphabet where it
    first meets each one, so a foreign symbol, END_MARKER included, is
    refused before any result. Structurally deterministic compilations
    run as-is; anything else goes through determinization first, which
    also squeezes out duplicate results that grammar-level ambiguity
    would produce.
    """
    vpt = compile_vpeg(vpeg, end_letter=_END)
    doc = chain(tokens, [Token(TokenKind.NEUTRAL, _END)])
    mode = "trust" if is_io_deterministic(vpt) else "determinize"
    try:
        return engine.preprocess(engine.resolve_mode(vpt, mode), doc, alphabet=vpt.alphabet)
    except engine.SymbolError as exc:
        raise GrammarError(f"document symbol {exc.token.name!r} not in grammar alphabet") from None


def evaluate_spanner(vpeg: Vpeg, tokens) -> Iterator[SpanMapping]:
    """The grammar's span assignments over the document, one mapping
    per result. The pass (``preprocess``) runs when this is called, as
    in `engine.evaluate`; each result is decoded as it is pulled."""
    result = preprocess(vpeg, tokens)
    return map(SpanLayout(vpeg.variables).decode, Enumerator(result.arena, result.root))
