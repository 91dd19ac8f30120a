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
from vptenum.vpt import NO_MOVES, Vpt, is_io_deterministic, io_determinize, stable_key

OPEN, NEUTRAL = TokenKind.OPEN, TokenKind.NEUTRAL


class NestingError(ValueError):
    """The document is not well nested."""


class AmbiguityError(ValueError):
    """The transducer could not be verified safe for single-pass use."""


@dataclass
class SymbolStats:
    """Unit-step counters: one token's, or (as EngineStats) the pass's."""

    visits: int = 0  # (table entry, transition) matches processed
    scans: int = 0  # table entries inspected without a match
    ecs_calls: int = 0
    nodes_added: int = 0

    def add(self, other: "SymbolStats") -> None:
        self.visits += other.visits
        self.scans += other.scans
        self.ecs_calls += other.ecs_calls
        self.nodes_added += other.nodes_added


@dataclass
class EngineStats(SymbolStats):
    """Running totals of the whole pass, finalization included, in O(1)
    memory. ``per_symbol`` holds one record per token only when
    ``preprocess`` was asked for them."""

    pulls: int = 0
    per_symbol: list[SymbolStats] = field(default_factory=list)
    finalize: SymbolStats = field(default_factory=SymbolStats)

    def totals(self) -> SymbolStats:
        return SymbolStats(self.visits, self.scans, self.ecs_calls, self.nodes_added)


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
        table = {(q, q): eps for q in sorted(vpt.initial, key=stable_key)}
        return cls(arena=arena, table=table, frames=[], open_positions=[], epsilon=eps)


# Each step takes its letter's row of the transition index and returns
# its (visits, scans, arena calls). A visit extends the entry's handle
# by the move's output, if any, with a fresh symbol leaf (2 calls) and
# unions it into the new entry (1 call; a vacant entry just takes it,
# as a union with EMPTY would). Table handles are never EMPTY.


def open_step(state: EngineState, moves, k: int) -> tuple[int, int, int]:
    """Consume an open letter: stash the level summary, seed a new level."""
    arena = state.arena
    eps = state.epsilon
    visits = scans = calls = 0
    summary: dict = {}
    seed: dict = {}
    for (p, p2), handle in state.table.items():
        rules = moves.get(p2)
        if not rules:
            scans += 1
            continue
        for out, q2, x in rules:
            visits += 1
            calls += 1 if out is None else 3
            v = handle if out is None else arena.prod(handle, arena.add((out, k)))
            key = (p, x, q2)
            old = summary.get(key)
            summary[key] = v if old is None else arena.union(old, v)
            seed[(q2, q2)] = eps
    state.frames.append(summary)
    state.open_positions.append(k)
    state.table = seed
    return visits, scans, calls


def close_step(state: EngineState, moves, k: int) -> tuple[int, int, int]:
    """Consume a close letter: fold the finished level into the saved one."""
    if not state.frames:
        raise NestingError(f"unbalanced close at position {k}")
    summary = state.frames.pop()
    state.open_positions.pop()
    arena = state.arena
    visits = scans = calls = 0
    by_first: dict = {}
    for (p2, q2), handle in state.table.items():
        by_first.setdefault(p2, []).append((q2, handle))
    nxt: dict = {}
    for (p, x, p2), upper in summary.items():
        inner = by_first.get(p2)
        if not inner:
            scans += 1
            continue
        for q2, lower in inner:
            rules = moves.get((q2, x))
            if not rules:
                scans += 1
                continue
            for out, q3 in rules:
                visits += 1
                calls += 2 if out is None else 4
                v = arena.prod(upper, lower)
                if out is not None:
                    v = arena.prod(v, arena.add((out, k)))
                key = (p, q3)
                old = nxt.get(key)
                nxt[key] = v if old is None else arena.union(old, v)
    state.table = nxt
    return visits, scans, calls


def neutral_step(state: EngineState, moves, k: int) -> tuple[int, int, int]:
    """Consume a neutral letter: extend the level in place, stack untouched."""
    arena = state.arena
    visits = scans = calls = 0
    nxt: dict = {}
    for (p, q), handle in state.table.items():
        rules = moves.get(q)
        if not rules:
            scans += 1
            continue
        for out, q2 in rules:
            visits += 1
            calls += 1 if out is None else 3
            v = handle if out is None else arena.prod(handle, arena.add((out, k)))
            key = (p, q2)
            old = nxt.get(key)
            nxt[key] = v if old is None else arena.union(old, v)
    state.table = nxt
    return visits, scans, calls


def _finalize(state: EngineState, vpt: Vpt, stats: SymbolStats) -> int:
    arena = state.arena
    before = len(arena.labels)
    root = EMPTY
    for (p, q), handle in state.table.items():
        if p in vpt.initial and q in vpt.final:
            stats.visits += 1
            root = arena.union(root, handle)
            stats.ecs_calls += 1
        else:
            stats.scans += 1
    stats.nodes_added += len(arena.labels) - before
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
    per_symbol: bool = False,
) -> PreprocessResult:
    """Run the single pass and return the collected result handle.

    The caller vouches that vpt admits at most one accepting run per
    (document, output) pair; ``evaluate`` enforces that contract.

    The result's stats always hold the pass's running totals; with
    ``per_symbol`` they also list one SymbolStats per token. With
    ``trace``, snapshots (table copy, list of frame copies) are
    recorded before the first token and after every token. With
    ``checkpoints``, after each token the accepting entries seen so far
    are folded into a handle, recorded as (position, depth, handle).
    """
    state = EngineState.initial(vpt)
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    labels = state.arena.labels
    stats = EngineStats()
    trace_log: list | None = [] if trace else None
    checkpoint_log: list | None = [] if checkpoints else None
    if trace_log is not None:
        trace_log.append((dict(state.table), [dict(f) for f in state.frames]))

    k = 0
    for tok in tokens:
        k += 1
        before = len(labels)
        kind = tok.kind
        if kind is NEUTRAL:
            visits, scans, calls = neutral_step(state, nidx.get(tok.name, NO_MOVES), k)
        elif kind is OPEN:
            visits, scans, calls = open_step(state, oidx.get(tok.name, NO_MOVES), k)
        else:
            visits, scans, calls = close_step(state, cidx.get(tok.name, NO_MOVES), k)
        nodes = len(labels) - before
        stats.visits += visits
        stats.scans += scans
        stats.ecs_calls += calls
        stats.nodes_added += nodes
        if per_symbol:
            stats.per_symbol.append(SymbolStats(visits, scans, calls, nodes))
        if trace_log is not None:
            trace_log.append((dict(state.table), [dict(f) for f in state.frames]))
        if checkpoint_log is not None:
            handle = _finalize(state, vpt, SymbolStats())
            checkpoint_log.append((k, len(state.frames), handle))
    stats.pulls = k + 1  # one pull per token plus the one that found the end
    if state.frames:
        raise NestingError(f"unbalanced open at position {state.open_positions[0]}")
    root = _finalize(state, vpt, stats.finalize)
    stats.add(stats.finalize)
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
    result = preprocess(vpt, tokens, per_symbol=stats_out is not None)
    if stats_out is not None:
        vars(stats_out).update(vars(result.stats))
    return iter(Enumerator(result.arena, result.root, smoothing=smoothing))
