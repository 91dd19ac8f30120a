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
triples, keyed by output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from vptenum.nested import StructuredAlphabet, TokenKind


class ResourceCapError(RuntimeError):
    """An exhaustive check outgrew its configured budget."""


OutputWord = tuple  # tuple of (symbol, position) pairs

NO_MOVES = MappingProxyType({})  # the index row of a letter without transitions


@dataclass(frozen=True)
class Vpt:
    """Nondeterministic transducer.

    Transitions (out is None for an emission-free step):
      opens:    set of (q, a, out, q2, x)   push x
      closes:   set of (q, a, out, x, q2)   pop x
      neutrals: set of (q, a, out, q2)

    An acceptor is a transducer that never emits: empty
    ``output_symbols`` and out=None on every transition.
    """

    states: frozenset
    alphabet: StructuredAlphabet
    stack_symbols: frozenset
    output_symbols: frozenset
    opens: frozenset
    closes: frozenset
    neutrals: frozenset
    initial: frozenset
    final: frozenset

    def __post_init__(self):
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

    # indices are built once per machine and keyed by letter first, so
    # the pass looks a letter up once per token: open_index[a][q],
    # close_index[a][(q, x)] and neutral_index[a][q] list the moves, in
    # stable order so that the order of the results does not depend on
    # the process; as non-fields they stay out of equality and hashing
    @cached_property
    def open_index(self) -> dict:
        idx: dict = {}
        for q, a, out, q2, x in self.opens:
            idx.setdefault(a, {}).setdefault(q, []).append((out, q2, x))
        return _stable_rows(idx)

    @cached_property
    def close_index(self) -> dict:
        idx: dict = {}
        for q, a, out, x, q2 in self.closes:
            idx.setdefault(a, {}).setdefault((q, x), []).append((out, q2))
        return _stable_rows(idx)

    @cached_property
    def neutral_index(self) -> dict:
        idx: dict = {}
        for q, a, out, q2 in self.neutrals:
            idx.setdefault(a, {}).setdefault(q, []).append((out, q2))
        return _stable_rows(idx)


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


def _stable_rows(idx: dict) -> dict:
    """Sort every index row of two or more moves part by part in
    stable_key order; each distinct output, state or stack symbol is
    keyed once."""
    keys: dict = {}

    def key_of(part):
        key = keys.get(part)
        if key is None:
            key = keys[part] = stable_key(part)
        return key

    for row in idx.values():
        for moves in row.values():
            if len(moves) > 1:
                moves.sort(key=lambda move: tuple(map(key_of, move)))
    return idx


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
    popped symbol at closes).
    """
    if len(vpt.initial) != 1:
        return False
    seen: set = set()
    for q, a, out, q2, x in vpt.opens:
        key = ("o", q, a, out)
        if key in seen:
            return False
        seen.add(key)
    for q, a, out, x, q2 in vpt.closes:
        key = ("c", q, a, out, x)
        if key in seen:
            return False
        seen.add(key)
    for q, a, out, q2 in vpt.neutrals:
        key = ("n", q, a, out)
        if key in seen:
            return False
        seen.add(key)
    return True


def _det_tables(vpt: Vpt, max_states: int):
    """Reachable fragment of the pair-set construction.

    Returns (states, reach, open_edges, close_edges, neutral_edges,
    summary_entries) where reach maps each level entry to the pair-set
    states reachable from it by well-nested factors, and
    summary_entries maps each summary (stack symbol) to the level
    entries it can open into.
    """
    oidx = vpt.open_index
    cidx = vpt.close_index
    nidx = vpt.neutral_index
    open_keys = sorted({(a, out) for _, a, out, _, _ in vpt.opens}, key=repr)
    close_keys = sorted({(a, out) for _, a, out, _, _ in vpt.closes}, key=repr)
    neutral_keys = sorted({(a, out) for _, a, out, _ in vpt.neutrals}, key=repr)

    def d_open(S, a, out):
        summary, seed = set(), set()
        for p, p2 in S:
            for o, q2, x in oidx[a].get(p2, ()):
                if o == out:
                    summary.add((p, x, q2))
                    seed.add((q2, q2))
        return frozenset(seed), frozenset(summary)

    def d_close(S, a, out, summary):
        by_first: dict = {}
        for p2, q2 in S:
            by_first.setdefault(p2, []).append(q2)
        nxt = set()
        for p, x, p2 in summary:
            for q2 in by_first.get(p2, ()):
                for o, q3 in cidx[a].get((q2, x), ()):
                    if o == out:
                        nxt.add((p, q3))
        return frozenset(nxt)

    def d_neutral(S, a, out):
        nxt = set()
        for p, q in S:
            for o, q2 in nidx[a].get(q, ()):
                if o == out:
                    nxt.add((p, q2))
        return frozenset(nxt)

    init = frozenset((q, q) for q in vpt.initial)
    states = {init}
    entries = {init}
    reach: dict = {init: {init}}
    open_edges: dict = {}
    close_edges: dict = {}
    neutral_edges: dict = {}
    summary_entries: dict = {}

    changed = True
    while changed:
        changed = False
        for S in sorted(states, key=repr):
            for a, out in neutral_keys:
                key = (S, a, out)
                if key not in neutral_edges:
                    S2 = d_neutral(S, a, out)
                    neutral_edges[key] = S2 if S2 else None
                    if S2 and S2 not in states:
                        states.add(S2)
                        changed = True
            for a, out in open_keys:
                key = (S, a, out)
                if key not in open_edges:
                    entry, summary = d_open(S, a, out)
                    if entry:
                        open_edges[key] = (entry, summary)
                        summary_entries.setdefault(summary, set()).add(entry)
                        if entry not in states:
                            states.add(entry)
                            changed = True
                        if entry not in entries:
                            entries.add(entry)
                            reach[entry] = {entry}
                            changed = True
                    else:
                        open_edges[key] = None
        # close transitions: any state within a summary's level may pop
        for summary, ents in list(summary_entries.items()):
            sources = set()
            for entry in ents:
                sources |= reach[entry]
            for S2 in sorted(sources, key=repr):
                for a, out in close_keys:
                    key = (S2, a, out, summary)
                    if key not in close_edges:
                        S3 = d_close(S2, a, out, summary)
                        close_edges[key] = S3 if S3 else None
                        if S3 and S3 not in states:
                            states.add(S3)
                            changed = True
        # grow the per-level reach sets through neutral and composite hops
        for entry in list(entries):
            frontier = list(reach[entry])
            while frontier:
                S = frontier.pop()
                hops = []
                for a, out in neutral_keys:
                    tgt = neutral_edges.get((S, a, out))
                    if tgt:
                        hops.append(tgt)
                for a, out in open_keys:
                    edge = open_edges.get((S, a, out))
                    if not edge:
                        continue
                    child_entry, summary = edge
                    for S2 in list(reach.get(child_entry, ())):
                        for b, out2 in close_keys:
                            tgt = close_edges.get((S2, b, out2, summary))
                            if tgt:
                                hops.append(tgt)
                for tgt in hops:
                    if tgt not in reach[entry]:
                        reach[entry].add(tgt)
                        frontier.append(tgt)
                        changed = True
        if len(states) > max_states:
            raise ResourceCapError(
                f"determinization exceeded {max_states} subset states"
            )
    return states, reach, open_edges, close_edges, neutral_edges, summary_entries


def io_determinize(vpt: Vpt, max_states: int = 4096) -> Vpt:
    """Equivalent transducer keyed deterministically by (letter, output).

    The result has one initial state and a partial transition function;
    only pair-set states reachable through well-nested factors are
    materialized. States are renamed s0, s1, ... and stack symbols
    t0, t1, ... in a stable order.
    """
    states, reach, open_edges, close_edges, neutral_edges, summary_entries = _det_tables(
        vpt, max_states
    )
    init = frozenset((q, q) for q in vpt.initial)

    def sort_key(fs):
        return tuple(sorted(map(repr, fs)))

    state_names = {S: f"s{i}" for i, S in enumerate(sorted(states, key=sort_key))}
    summaries = sorted(summary_entries, key=sort_key)
    summary_names = {T: f"t{i}" for i, T in enumerate(summaries)}

    opens = set()
    for (S, a, out), edge in open_edges.items():
        if edge is None:
            continue
        entry, summary = edge
        opens.add((state_names[S], a, out, state_names[entry], summary_names[summary]))
    closes = set()
    for (S, a, out, summary), tgt in close_edges.items():
        if tgt is None:
            continue
        closes.add((state_names[S], a, out, summary_names[summary], state_names[tgt]))
    neutrals = set()
    for (S, a, out), tgt in neutral_edges.items():
        if tgt is None:
            continue
        neutrals.add((state_names[S], a, out, state_names[tgt]))

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
