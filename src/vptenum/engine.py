"""One-pass evaluation: read the document once, then enumerate results.

The pass maintains a table keyed by state pairs (p, q): p is the state
the current level was entered in, q a state reachable now, and the
stored arena handle collects the outputs produced between those two
points. Opens push the table's summary onto a stack (re-keyed by the
pushed stack symbol) and start a fresh level; closes combine the saved
summary with the finished level and pop. Because arena nodes are
persistent, popped levels stay valid inside whatever handles they were
combined into.

The input is pulled exactly once per token plus one probe that detects
the end, and per-token work is bounded by the table and transition
sizes, never by the number of results collected so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from vptenum import ecs
from vptenum.ecs import EMPTY, EcsArena
from vptenum.enumtree import DEFAULT_SMOOTHING, Enumerator, OutputWord
from vptenum.nested import TokenKind
from vptenum.vpt import Vpt, is_io_deterministic, io_determinize


class NestingError(ValueError):
    """The document is not well nested."""


class AmbiguityError(ValueError):
    """The transducer could not be verified safe for single-pass use."""


@dataclass
class SymbolStats:
    visits: int = 0  # (table entry, transition) matches processed
    scans: int = 0  # table entries inspected without a match
    ecs_calls: int = 0
    nodes_added: int = 0


@dataclass
class EngineStats:
    pulls: int = 0
    per_symbol: list[SymbolStats] = field(default_factory=list)
    finalize: SymbolStats = field(default_factory=SymbolStats)

    def totals(self) -> SymbolStats:
        t = SymbolStats()
        for s in self.per_symbol + [self.finalize]:
            t.visits += s.visits
            t.scans += s.scans
            t.ecs_calls += s.ecs_calls
            t.nodes_added += s.nodes_added
        return t


@dataclass
class EngineState:
    """Mutable pass state: the pair table, the frame stack, the arena."""

    arena: EcsArena
    table: dict
    frames: list
    open_positions: list
    epsilon: int

    @classmethod
    def initial(cls, vpt: Vpt) -> "EngineState":
        arena = ecs.new_arena()
        eps = arena.epsilon_node()
        table = {(q, q): eps for q in vpt.initial}
        return cls(arena=arena, table=table, frames=[], open_positions=[], epsilon=eps)


def if_prod(arena: EcsArena, v: int, out, k: int, stats: SymbolStats | None = None):
    """Append (out, k) to every word in v; identity when out is empty.

    The sentinel passes through: extending no word still leaves no word.
    """
    if out is None or v == EMPTY:
        return v
    before = len(arena.labels)
    leaf = arena.add((out, k))
    result = arena.prod(v, leaf)
    if stats is not None:
        stats.ecs_calls += 2
        stats.nodes_added += len(arena.labels) - before
    return result


def _union_into(state: EngineState, table: dict, key, v: int, stats: SymbolStats):
    before = len(state.arena.labels)
    table[key] = state.arena.union(table.get(key, EMPTY), v)
    stats.ecs_calls += 1
    stats.nodes_added += len(state.arena.labels) - before


def open_step(state: EngineState, vpt_index: dict, name: str, k: int, stats: SymbolStats) -> None:
    """Consume an open letter: stash the level summary, seed a new level."""
    summary: dict = {}
    seed: dict = {}
    for (p, p2), handle in state.table.items():
        rules = vpt_index.get((p2, name))
        if not rules:
            stats.scans += 1
            continue
        for out, q2, x in rules:
            stats.visits += 1
            v = if_prod(state.arena, handle, out, k, stats)
            _union_into(state, summary, (p, x, q2), v, stats)
            seed[(q2, q2)] = state.epsilon
    state.frames.append(summary)
    state.open_positions.append(k)
    state.table = seed


def close_step(state: EngineState, vpt_index: dict, name: str, k: int, stats: SymbolStats) -> None:
    """Consume a close letter: fold the finished level into the saved one."""
    if not state.frames:
        raise NestingError(f"unbalanced close at position {k}")
    summary = state.frames.pop()
    state.open_positions.pop()
    by_first: dict = {}
    for (p2, q2), handle in state.table.items():
        by_first.setdefault(p2, []).append((q2, handle))
    nxt: dict = {}
    for (p, x, p2), upper in summary.items():
        inner = by_first.get(p2)
        if not inner:
            stats.scans += 1
            continue
        for q2, lower in inner:
            rules = vpt_index.get((q2, name, x))
            if not rules:
                stats.scans += 1
                continue
            for out, q3 in rules:
                stats.visits += 1
                before = len(state.arena.labels)
                v = state.arena.prod(upper, lower)
                stats.ecs_calls += 1
                stats.nodes_added += len(state.arena.labels) - before
                v = if_prod(state.arena, v, out, k, stats)
                _union_into(state, nxt, (p, q3), v, stats)
    state.table = nxt


def neutral_step(state: EngineState, vpt_index: dict, name: str, k: int, stats: SymbolStats) -> None:
    """Consume a neutral letter: extend the level in place, stack untouched."""
    nxt: dict = {}
    for (p, q), handle in state.table.items():
        rules = vpt_index.get((q, name))
        if not rules:
            stats.scans += 1
            continue
        for out, q2 in rules:
            stats.visits += 1
            v = if_prod(state.arena, handle, out, k, stats)
            _union_into(state, nxt, (p, q2), v, stats)
    state.table = nxt


def _finalize(state: EngineState, vpt: Vpt, stats: SymbolStats) -> int:
    root = EMPTY
    for (p, q), handle in state.table.items():
        if p in vpt.initial and q in vpt.final:
            stats.visits += 1
            before = len(state.arena.labels)
            root = state.arena.union(root, handle)
            stats.ecs_calls += 1
            stats.nodes_added += len(state.arena.labels) - before
        else:
            stats.scans += 1
    return root


@dataclass
class PreprocessResult:
    arena: EcsArena
    root: int
    stats: EngineStats
    length: int
    trace: list | None = None
    checkpoints: list | None = None


def preprocess(
    vpt: Vpt,
    tokens,
    trace: bool = False,
    checkpoints: bool = False,
) -> PreprocessResult:
    """Run the single pass and return the collected result handle.

    The caller vouches that vpt admits at most one accepting run per
    (document, output) pair; ``evaluate`` enforces that contract.

    With ``trace``, snapshots (table copy, list of frame copies) are
    recorded before the first token and after every token. With
    ``checkpoints``, after each token the accepting entries seen so far
    are folded into a handle, recorded as (position, depth, handle).
    """
    state = EngineState.initial(vpt)
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    stats = EngineStats()
    trace_log: list | None = [] if trace else None
    checkpoint_log: list | None = [] if checkpoints else None
    if trace_log is not None:
        trace_log.append((dict(state.table), [dict(f) for f in state.frames]))

    it = iter(tokens)
    k = 0
    while True:
        stats.pulls += 1
        try:
            tok = next(it)
        except StopIteration:
            break
        k += 1
        sym = SymbolStats()
        if tok.kind == TokenKind.OPEN:
            open_step(state, oidx, tok.name, k, sym)
        elif tok.kind == TokenKind.CLOSE:
            close_step(state, cidx, tok.name, k, sym)
        else:
            neutral_step(state, nidx, tok.name, k, sym)
        stats.per_symbol.append(sym)
        if trace_log is not None:
            trace_log.append((dict(state.table), [dict(f) for f in state.frames]))
        if checkpoint_log is not None:
            probe = SymbolStats()
            handle = _finalize(state, vpt, probe)
            checkpoint_log.append((k, len(state.frames), handle))
    if state.frames:
        raise NestingError(f"unbalanced open at position {state.open_positions[0]}")
    root = _finalize(state, vpt, stats.finalize)
    return PreprocessResult(
        arena=state.arena,
        root=root,
        stats=stats,
        length=k,
        trace=trace_log,
        checkpoints=checkpoint_log,
    )


def accepts(vpt: Vpt, tokens) -> bool:
    """Whether an output-free vpt accepts the document, however
    nondeterministic it is.

    Without outputs every table handle is the single epsilon leaf or
    EMPTY, so no union can join overlapping languages and the
    unambiguity contract of ``preprocess`` cannot be broken; the pair
    table is then the plain (origin, current) subset simulation.
    Raises NestingError on documents that are not well nested.
    """
    return preprocess(vpt, tokens).root != EMPTY


def resolve_mode(vpt: Vpt, mode: str) -> Vpt:
    """Gate for the unambiguity contract; exactly one regime applies.

      "check"       refuse transducers that are not structurally
                    deterministic in (letter, output);
      "trust"       take the caller's word that at most one accepting
                    run yields each result;
      "determinize" rebuild a deterministic equivalent first.
    """
    if mode == "check":
        if not is_io_deterministic(vpt):
            raise AmbiguityError(
                "transducer is not deterministic in (letter, output); "
                "pass mode='determinize' or vouch with mode='trust'"
            )
        return vpt
    if mode == "determinize":
        return io_determinize(vpt)
    if mode != "trust":
        raise ValueError(f"unknown mode {mode!r}")
    return vpt


def evaluate(
    vpt: Vpt,
    tokens,
    mode: str = "check",
    smoothing: int = DEFAULT_SMOOTHING,
    stats_out: EngineStats | None = None,
) -> Iterator[OutputWord]:
    """Evaluate vpt on the document and stream the distinct results."""
    vpt = resolve_mode(vpt, mode)
    result = preprocess(vpt, tokens)
    if stats_out is not None:
        stats_out.pulls = result.stats.pulls
        stats_out.per_symbol = result.stats.per_symbol
        stats_out.finalize = result.stats.finalize
    return iter(Enumerator(result.arena, result.root, smoothing=smoothing))
