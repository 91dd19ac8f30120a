"""Transducers over the structured alphabet, with positional output.

A transducer reads one input letter per step, pushing on opens and
popping on closes, and may emit at most one output symbol per step. A
run's result is the sequence of (symbol, position) pairs for the steps
that actually emitted; steps with empty output leave no trace, so the
empty output word is a single possible result, not one per run length.

``io_determinize`` rebuilds an equivalent transducer whose transition
relation is a partial function of (state, letter, output symbol). The
deterministic states are sets of state pairs (level origin, current
state) and the stack symbols are sets of (origin, pushed, target)
triples, keyed by output. Which of them exist is the question which
states well-nested words reach from a level's entry; ``level_reach``
answers it with one worklist, for determinization here and for the
spanner's functionality check.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType

from vptenum.nested import FrozenRecord, StructuredAlphabet, TokenKind, _set


class ResourceCapError(RuntimeError):
    """An exhaustive check outgrew its configured budget."""


OutputWord = tuple  # tuple of (symbol, position) pairs; () is the empty word

NO_MOVES = MappingProxyType({})  # the index row of a letter without transitions


class Vpt(FrozenRecord):
    """Nondeterministic transducer.

    Transitions (out is None for an emission-free step):
      opens:    set of (q, a, out, q2, x)   push x
      closes:   set of (q, a, out, x, q2)   pop x
      neutrals: set of (q, a, out, q2)

    An acceptor is a transducer that never emits: empty
    ``output_symbols`` and out=None on every transition.
    """

    _fields = (
        "states", "alphabet", "stack_symbols", "output_symbols", "opens", "closes", "neutrals", "initial", "final"
    )

    def __init__(
        self,
        states: frozenset,
        alphabet: StructuredAlphabet,
        stack_symbols: frozenset,
        output_symbols: frozenset,
        opens: frozenset,
        closes: frozenset,
        neutrals: frozenset,
        initial: frozenset,
        final: frozenset,
    ) -> None:
        _set(self, "states", states)
        _set(self, "alphabet", alphabet)
        _set(self, "stack_symbols", stack_symbols)
        _set(self, "output_symbols", output_symbols)
        _set(self, "opens", opens)
        _set(self, "closes", closes)
        _set(self, "neutrals", neutrals)
        _set(self, "initial", initial)
        _set(self, "final", final)

        def check_out(out, t):
            if out is not None and out not in self.output_symbols:
                raise ValueError(f"transition emits undeclared output symbol: {t}")

        for t in self.opens:
            q, a, out, q2, x = t
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"open transition uses undeclared state: {t}")
            if a not in self.alphabet.opens:
                raise ValueError(f"open transition on non-open letter {a!r}")
            if x not in self.stack_symbols:
                raise ValueError(f"open transition pushes undeclared symbol {x!r}")
            check_out(out, t)
        for t in self.closes:
            q, a, out, x, q2 = t
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"close transition uses undeclared state: {t}")
            if a not in self.alphabet.closes:
                raise ValueError(f"close transition on non-close letter {a!r}")
            if x not in self.stack_symbols:
                raise ValueError(f"close transition pops undeclared symbol {x!r}")
            check_out(out, t)
        for t in self.neutrals:
            q, a, out, q2 = t
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"neutral transition uses undeclared state: {t}")
            if a not in self.alphabet.neutrals:
                raise ValueError(f"neutral transition on non-neutral letter {a!r}")
            check_out(out, t)
        if not self.initial <= self.states or not self.final <= self.states:
            raise ValueError("initial and final states must be declared states")

    # the indexes are keyed by letter first, so the pass looks a letter
    # up once per token: open_index[a][q], close_index[a][(q, x)] and
    # neutral_index[a][q] list the moves, in stable order so that the
    # order of the results does not depend on the process. The three
    # are built together on first use, not at construction, so set-up
    # does not pay for them; as non-fields they stay out of equality,
    # hashing and the repr.
    def __getattr__(self, name):
        if name not in _INDEXES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(zip(_INDEXES, _transition_indexes(self)))
        return self.__dict__[name]


_INDEXES = ("open_index", "close_index", "neutral_index")


def stable_key(value) -> tuple:
    """A sort key that does not depend on hashing.

    Iterating a frozenset follows the hash seed, and `hash(None)` is an
    address. Here a string is its own key, a tuple is keyed member by
    member, a frozenset by its members' sorted keys and anything else by
    its repr, so states, letters, outputs and stack symbols of any of
    these shapes sort the same way in every process.
    """
    if isinstance(value, str):
        return (0, value)
    if isinstance(value, tuple):
        return (2, tuple(map(stable_key, value)))
    if isinstance(value, frozenset):
        return (3, tuple(sorted(map(stable_key, value))))
    return (1, repr(value))


def _transition_indexes(vpt: Vpt) -> tuple:
    """The open, close and neutral indexes of ``vpt``. Each row of two
    or more moves is sorted in stable_key order, which keys a move part
    by part."""
    oidx: dict = {}
    cidx: dict = {}
    nidx: dict = {}
    for q, a, out, q2, x in vpt.opens:
        oidx.setdefault(a, {}).setdefault(q, []).append((out, q2, x))
    for q, a, out, x, q2 in vpt.closes:
        cidx.setdefault(a, {}).setdefault((q, x), []).append((out, q2))
    for q, a, out, q2 in vpt.neutrals:
        nidx.setdefault(a, {}).setdefault(q, []).append((out, q2))
    for idx in (oidx, cidx, nidx):
        for row in idx.values():
            for moves in row.values():
                if len(moves) > 1:
                    moves.sort(key=stable_key)
    return oidx, cidx, nidx


def oracle_enumerate(vpt: Vpt, tokens, max_configs: int = 5_000_000) -> frozenset:
    """Reference result set, by brute-force search over accepting runs.

    Deduplicates output words, so ambiguity in the transducer does not
    show in the result. Fails loudly when the search visits more than
    max_configs configurations; it never silently truncates.
    """
    toks = list(tokens)
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    results: set[OutputWord] = set()
    visited = 0
    work = [(0, q, (), ()) for q in vpt.initial]
    while work:
        visited += 1
        if visited > max_configs:
            raise ResourceCapError(f"oracle exceeded {max_configs} configurations")
        i, q, stack, out = work.pop()
        if i == len(toks):
            if not stack and q in vpt.final:
                results.add(out)
            continue
        tok = toks[i]
        k = i + 1
        if tok.kind == TokenKind.OPEN:
            for o, q2, x in oidx.get(tok.name, NO_MOVES).get(q, ()):
                work.append((k, q2, stack + (x,), out if o is None else out + ((o, k),)))
        elif tok.kind == TokenKind.CLOSE:
            if not stack:
                continue
            x = stack[-1]
            for o, q2 in cidx.get(tok.name, NO_MOVES).get((q, x), ()):
                work.append((k, q2, stack[:-1], out if o is None else out + ((o, k),)))
        else:
            for o, q2 in nidx.get(tok.name, NO_MOVES).get(q, ()):
                work.append((k, q2, stack, out if o is None else out + ((o, k),)))
    return frozenset(results)


def is_io_deterministic(vpt: Vpt) -> bool:
    """True when runs are forced by input letter plus emitted symbol.

    Requires a single initial state and, per transition class, at most
    one successor for each key that includes the output symbol (and the
    popped symbol at closes): no two transitions share the prefix
    before their target.
    """
    return (
        len(vpt.initial) == 1
        and len({t[:3] for t in vpt.opens}) == len(vpt.opens)
        and len({t[:4] for t in vpt.closes}) == len(vpt.closes)
        and len({t[:3] for t in vpt.neutrals}) == len(vpt.neutrals)
    )


def level_reach(initial, neutral, opens, closes) -> dict:
    """States that well-nested words reach from each level entry.

    The summary construction of Alur & Madhusudan (STOC 2004) as one
    worklist of (entry, state) pairs. `initial` lists the entries of
    the outermost level, and three step functions say where one letter
    leads from a state: `neutral(S)` yields states, `opens(S)` yields
    an (entry, pushed) pair per inner level that S opens, and
    `closes(S, pushed)` yields the states that popping `pushed` leads
    to. A level that opens (entry, pushed) waits in
    callers[entry][pushed], so each state of the inner level's reach
    set closes straight into the reach set of every caller. Returns a
    dict from each level entry to its reach set.

    The work is taken first in, first out: breadth first, new states
    turn up before the close steps of deep levels pile up, so a cap on
    the states found trips sooner than it does depth first.
    """
    reach: dict = {}
    callers: dict = {}  # entry -> {pushed: entries of the levels that open it}
    work: deque = deque()

    def add(entry, S):
        seen = reach[entry]
        if S not in seen:
            seen.add(S)
            work.append((entry, S))

    def enter(entry):
        if entry not in reach:
            reach[entry] = set()
            callers[entry] = {}
            add(entry, entry)

    for entry in initial:
        enter(entry)
    while work:
        entry, S = work.popleft()
        for S2 in neutral(S):
            add(entry, S2)
        for child, pushed in opens(S):
            enter(child)
            waiting = callers[child].setdefault(pushed, set())
            if entry not in waiting:
                waiting.add(entry)
                for S2 in list(reach[child]):
                    for S3 in closes(S2, pushed):
                        add(entry, S3)
        for pushed, waiting in callers[entry].items():
            for S3 in closes(S, pushed):
                for caller in waiting:
                    add(caller, S3)
    return reach


def _det_tables(vpt: Vpt, max_states: int):
    """Reachable fragment of the pair-set construction.

    Three step functions over one subset state S, a set of (level
    origin, current state) pairs, are driven by `level_reach`: neutral,
    open (which gives the inner level's entry and the summary, a set of
    (origin, pushed, entry state) triples) and close under a summary.
    Each computes the row of its state, or of its (state, summary)
    pair, once, keyed by (letter, output), and counts every new target
    towards the cap. Returns (states, open_edges, close_edges,
    neutral_edges): open_edges[S] maps a key to (entry, summary), and
    close_edges[S, summary] and neutral_edges[S] map it to the target.
    """
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    states: set = set()
    open_edges: dict = {}
    close_edges: dict = {}
    neutral_edges: dict = {}

    def count(S):
        if S not in states:
            states.add(S)
            if len(states) > max_states:
                raise ResourceCapError(
                    f"determinization exceeded {max_states} subset states"
                )

    def freeze(rows: dict) -> dict:
        row = {key: frozenset(T) for key, T in rows.items()}
        for T in row.values():
            count(T)
        return row

    def neutral(S):
        row = neutral_edges.get(S)
        if row is None:
            rows: dict = {}
            for a, moves in nidx.items():
                for p, q in S:
                    for out, q2 in moves.get(q, ()):
                        rows.setdefault((a, out), set()).add((p, q2))
            row = neutral_edges[S] = freeze(rows)
        return row.values()

    def open_(S):
        row = open_edges.get(S)
        if row is None:
            rows: dict = {}
            for a, moves in oidx.items():
                for p, p2 in S:
                    for out, q2, x in moves.get(p2, ()):
                        entry, summary = rows.setdefault((a, out), (set(), set()))
                        entry.add((q2, q2))
                        summary.add((p, x, q2))
            row = open_edges[S] = {
                key: (frozenset(entry), frozenset(summary))
                for key, (entry, summary) in rows.items()
            }
            for entry, _ in row.values():
                count(entry)
        return row.values()

    def close(S, summary):
        row = close_edges.get((S, summary))
        if row is None:
            by_first: dict = {}
            for p2, q2 in S:
                by_first.setdefault(p2, []).append(q2)
            rows: dict = {}
            for a, moves in cidx.items():
                for p, x, p2 in summary:
                    for q2 in by_first.get(p2, ()):
                        for out, q3 in moves.get((q2, x), ()):
                            rows.setdefault((a, out), set()).add((p, q3))
            row = close_edges[S, summary] = freeze(rows)
        return row.values()

    init = frozenset((q, q) for q in vpt.initial)
    count(init)
    level_reach([init], neutral, open_, close)
    return states, open_edges, close_edges, neutral_edges


def io_determinize(vpt: Vpt, max_states: int = 4096) -> Vpt:
    """Equivalent transducer keyed deterministically by (letter, output).

    The result has one initial state and a partial transition function.
    Only the pair-set states that `level_reach` finds are materialized:
    those that well-nested factors reach from the initial level, and
    from every inner level entry that an open reaches, with each close
    taken under the summaries of the levels that wait on it. More than
    max_states distinct subset states raise ResourceCapError. States
    are renamed s0, s1, ... and stack symbols t0, t1, ... in a stable
    order.
    """
    states, open_edges, close_edges, neutral_edges = _det_tables(vpt, max_states)
    init = frozenset((q, q) for q in vpt.initial)

    def sort_key(fs):
        return tuple(sorted(map(repr, fs)))

    state_names = {S: f"s{i}" for i, S in enumerate(sorted(states, key=sort_key))}
    summaries = {summary for row in open_edges.values() for _, summary in row.values()}
    summary_names = {T: f"t{i}" for i, T in enumerate(sorted(summaries, key=sort_key))}

    opens = {
        (state_names[S], a, out, state_names[entry], summary_names[summary])
        for S, row in open_edges.items()
        for (a, out), (entry, summary) in row.items()
    }
    closes = {
        (state_names[S], a, out, summary_names[summary], state_names[tgt])
        for (S, summary), row in close_edges.items()
        for (a, out), tgt in row.items()
    }
    neutrals = {
        (state_names[S], a, out, state_names[tgt])
        for S, row in neutral_edges.items()
        for (a, out), tgt in row.items()
    }
    final = frozenset(
        state_names[S]
        for S in states
        if any(p in vpt.initial and q in vpt.final for p, q in S)
    )
    det = Vpt(
        states=frozenset(state_names.values()),
        alphabet=vpt.alphabet,
        stack_symbols=frozenset(summary_names.values()) or frozenset({"t0"}),
        output_symbols=vpt.output_symbols,
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(neutrals),
        initial=frozenset({state_names[init]}),
        final=final,
    )
    assert is_io_deterministic(det)
    return det
