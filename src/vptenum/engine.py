"""One-pass evaluation: read the document once, then enumerate results.

The pass maintains a table keyed by state pairs (p, q): p is the state
the current level was entered in, q a state reachable now, and the
stored arena handle collects the outputs produced between those two
points. Opens push the table's summary onto a stack (re-keyed by the
pushed stack symbol) and start a fresh level; closes combine the saved
summary with the finished level and pop. Because arena nodes are
persistent, popped levels stay valid inside whatever handles they were
combined into.

Shapes and plans. The keys of a table, in order, are its *shape*: a
tuple of (p, q) pairs for a level, of (p, x, q2) triples for a summary.
Shapes are interned per pass, so a table is a shape id plus a list of
handles, one slot per key, and a frame is the summary's shape id, its
handles and the position of its open. What a step does with the keys
depends only on the shape(s) and the letter, so each distinct step is
compiled once into a *plan*: its instructions (source slot or slots,
output symbol, target slot) in the order the keys and moves are met,
the target shape, and the step's (visits, scans, arena calls). Running
a plan is one list read, the arena calls and one list write per
instruction; the pair keys are not touched again, and a neutral step
that maps every key to itself without output keeps the handle list as
it is. ``preprocess`` caches its plans in dicts of its own, keyed by
(shape, letter) for neutrals and opens and by (summary shape, shape,
letter) for closes: the lazy subset construction of on-the-fly DFA
matchers, applied to the level summaries.

The input is pulled exactly once per token plus one probe that detects
the end. A token costs at most one plan build, bounded by the table and
transition sizes like the step it compiles, plus one run of the same
size, never anything that grows with the number of results collected
so far. The cache gains at most one plan per token, and no plan is
larger than the work of the token that built it, so what it retains
stays within the arena's own O(work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

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
    memory. ``plans`` counts the step plans the pass compiled.
    ``per_symbol`` holds one record per token only when ``preprocess``
    was asked for them."""

    pulls: int = 0
    plans: int = 0
    per_symbol: list[SymbolStats] = field(default_factory=list)
    finalize: SymbolStats = field(default_factory=SymbolStats)

    def totals(self) -> SymbolStats:
        return SymbolStats(self.visits, self.scans, self.ecs_calls, self.nodes_added)


class Shapes:
    """The shapes met in one pass, each interned to a small int id."""

    __slots__ = ("keys", "ids")

    def __init__(self) -> None:
        self.keys: list[tuple] = []  # shape id -> its keys
        self.ids: dict[tuple, int] = {}

    def intern(self, keys: tuple) -> int:
        sid = self.ids.get(keys)
        if sid is None:
            sid = self.ids[keys] = len(self.keys)
            self.keys.append(keys)
        return sid


@dataclass(slots=True)
class EngineState:
    """Mutable pass state: the pair table, the frame stack, the arena.

    The table is ``handles`` under the keys of shape ``shape``; each
    stack entry is (summary shape id, handles, open position). ``table``
    and ``frames`` materialize them as {key: handle} dicts."""

    arena: EcsArena
    shapes: Shapes
    shape: int
    handles: list
    stack: list
    epsilon: int

    @classmethod
    def initial(cls, vpt: Vpt) -> "EngineState":
        arena = ecs.new_arena()
        eps = arena.epsilon_node()
        shapes = Shapes()
        keys = tuple((q, q) for q in sorted(vpt.initial, key=stable_key))
        return cls(arena, shapes, shapes.intern(keys), [eps] * len(keys), [], eps)

    @property
    def table(self) -> dict:
        return dict(zip(self.shapes.keys[self.shape], self.handles))

    @property
    def frames(self) -> list[dict]:
        keys = self.shapes.keys
        return [dict(zip(keys[sid], handles)) for sid, handles, _ in self.stack]


class Plan(NamedTuple):
    """One compiled step. An open's target is the summary it pushes;
    its new level is ``seed_width`` epsilon handles of shape ``seed``.
    A neutral plan's ``code`` is None when the table stays as it is."""

    code: tuple | None  # (source slot(s), output or None, target slot), run in order
    width: int  # target slots, numbered by first write
    shape: int  # the target's shape id
    counts: tuple  # the step's (visits, scans, arena calls)
    seed: int = -1
    seed_width: int = 0


# A plan visits the keys in table order and each key's moves in row
# order. A visit extends the entry's handle by the move's output, if
# any, with a fresh symbol leaf (2 calls) and unions it into the target
# slot (1 call; a vacant slot just takes it, as a union with EMPTY
# would). Table handles are never EMPTY.


def neutral_plan(shapes: Shapes, sid: int, moves) -> Plan:
    """Compile a neutral letter's row against level shape ``sid``."""
    visits = scans = calls = 0
    code = []
    slots: dict = {}
    for i, (p, q) in enumerate(shapes.keys[sid]):
        rules = moves.get(q)
        if not rules:
            scans += 1
            continue
        for out, q2 in rules:
            visits += 1
            calls += 1 if out is None else 3
            code.append((i, out, slots.setdefault((p, q2), len(slots))))
    shape = shapes.intern(tuple(slots))
    code = tuple(code)
    if shape == sid and code == tuple((i, None, i) for i in range(len(code))):
        code = None  # the table stays as it is
    return Plan(code, len(slots), shape, (visits, scans, calls))


def open_plan(shapes: Shapes, sid: int, moves) -> Plan:
    """Compile an open letter's row against level shape ``sid``."""
    visits = scans = calls = 0
    code = []
    slots: dict = {}
    seed: dict = {}
    for i, (p, p2) in enumerate(shapes.keys[sid]):
        rules = moves.get(p2)
        if not rules:
            scans += 1
            continue
        for out, q2, x in rules:
            visits += 1
            calls += 1 if out is None else 3
            code.append((i, out, slots.setdefault((p, x, q2), len(slots))))
            seed.setdefault((q2, q2))
    return Plan(
        tuple(code),
        len(slots),
        shapes.intern(tuple(slots)),
        (visits, scans, calls),
        shapes.intern(tuple(seed)),
        len(seed),
    )


def close_plan(shapes: Shapes, summary_sid: int, sid: int, moves) -> Plan:
    """Compile a close letter's row against summary shape
    ``summary_sid`` over level shape ``sid``."""
    visits = scans = calls = 0
    code = []
    slots: dict = {}
    by_first: dict = {}
    for j, (p2, q2) in enumerate(shapes.keys[sid]):
        by_first.setdefault(p2, []).append((q2, j))
    for i, (p, x, p2) in enumerate(shapes.keys[summary_sid]):
        inner = by_first.get(p2)
        if not inner:
            scans += 1
            continue
        for q2, j in inner:
            rules = moves.get((q2, x))
            if not rules:
                scans += 1
                continue
            for out, q3 in rules:
                visits += 1
                calls += 2 if out is None else 4
                code.append((i, j, out, slots.setdefault((p, q3), len(slots))))
    return Plan(tuple(code), len(slots), shapes.intern(tuple(slots)), (visits, scans, calls))


def _extend(arena: EcsArena, code: tuple, handles: list, width: int, k: int) -> list:
    """Run an open's or a neutral's instructions: the target's handles."""
    new: list = [None] * width
    for src, out, tgt in code:
        v = handles[src]
        if out is not None:
            v = arena.prod(v, arena.add((out, k)))
        old = new[tgt]
        new[tgt] = v if old is None else arena.union(old, v)
    return new


# Each runner applies its plan to the state at position k and returns
# the step's (visits, scans, arena calls).


def run_neutral(state: EngineState, plan: Plan, k: int) -> tuple:
    code, width, shape, counts, _, _ = plan
    if code is not None:
        state.handles = _extend(state.arena, code, state.handles, width, k)
        state.shape = shape
    return counts


def run_open(state: EngineState, plan: Plan, k: int) -> tuple:
    code, width, shape, counts, seed, seed_width = plan
    state.stack.append((shape, _extend(state.arena, code, state.handles, width, k), k))
    state.handles = [state.epsilon] * seed_width
    state.shape = seed
    return counts


def run_close(state: EngineState, plan: Plan, k: int) -> tuple:
    code, width, shape, counts, _, _ = plan
    _, uppers, _ = state.stack.pop()
    lowers = state.handles
    arena = state.arena
    new: list = [None] * width
    for up, low, out, tgt in code:
        v = arena.prod(uppers[up], lowers[low])
        if out is not None:
            v = arena.prod(v, arena.add((out, k)))
        old = new[tgt]
        new[tgt] = v if old is None else arena.union(old, v)
    state.handles = new
    state.shape = shape
    return counts


def _summary_shape(state: EngineState, k: int) -> int:
    if not state.stack:
        raise NestingError(f"unbalanced close at position {k}")
    return state.stack[-1][0]


# Each step takes its letter's row of the transition index, compiles it
# against the current shapes and runs it once.


def open_step(state: EngineState, moves, k: int) -> tuple[int, int, int]:
    """Consume an open letter: stash the level summary, seed a new level."""
    return run_open(state, open_plan(state.shapes, state.shape, moves), k)


def close_step(state: EngineState, moves, k: int) -> tuple[int, int, int]:
    """Consume a close letter: fold the finished level into the saved one."""
    summary_sid = _summary_shape(state, k)
    return run_close(state, close_plan(state.shapes, summary_sid, state.shape, moves), k)


def neutral_step(state: EngineState, moves, k: int) -> tuple[int, int, int]:
    """Consume a neutral letter: extend the level in place, stack untouched."""
    return run_neutral(state, neutral_plan(state.shapes, state.shape, moves), k)


def _finalize(state: EngineState, vpt: Vpt, stats: SymbolStats) -> int:
    """Fold the handles of the level's accepting slots into one."""
    arena = state.arena
    before = len(arena.labels)
    root = EMPTY
    for (p, q), handle in zip(state.shapes.keys[state.shape], state.handles):
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
    shapes = state.shapes
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    labels = state.arena.labels
    stats = EngineStats()
    # the plan caches: (shape, letter) for neutrals and opens,
    # (summary shape, shape, letter) for closes
    neutral_plans: dict = {}
    open_plans: dict = {}
    close_plans: dict = {}
    trace_log: list | None = [] if trace else None
    checkpoint_log: list | None = [] if checkpoints else None
    if trace_log is not None:
        trace_log.append((state.table, state.frames))

    k = total_visits = total_scans = total_calls = 0
    start = counted = len(labels)  # counted: the arena's size after the last record
    uncounted = 0  # nodes added by the checkpoints' unions, which are no token's
    for tok in tokens:
        k += 1
        kind = tok.kind
        if kind is NEUTRAL:
            key = (state.shape, tok.name)
            plan = neutral_plans.get(key)
            if plan is None:
                plan = neutral_plans[key] = neutral_plan(shapes, key[0], nidx.get(key[1], NO_MOVES))
            visits, scans, calls = run_neutral(state, plan, k)
        elif kind is OPEN:
            key = (state.shape, tok.name)
            plan = open_plans.get(key)
            if plan is None:
                plan = open_plans[key] = open_plan(shapes, key[0], oidx.get(key[1], NO_MOVES))
            visits, scans, calls = run_open(state, plan, k)
        else:
            key = (_summary_shape(state, k), state.shape, tok.name)
            plan = close_plans.get(key)
            if plan is None:
                plan = close_plans[key] = close_plan(shapes, key[0], key[1], cidx.get(key[2], NO_MOVES))
            visits, scans, calls = run_close(state, plan, k)
        total_visits += visits
        total_scans += scans
        total_calls += calls
        if per_symbol:
            stats.per_symbol.append(SymbolStats(visits, scans, calls, len(labels) - counted))
            counted = len(labels)
        if trace_log is not None:
            trace_log.append((state.table, state.frames))
        if checkpoint_log is not None:
            sink = SymbolStats()
            handle = _finalize(state, vpt, sink)
            checkpoint_log.append((k, len(state.stack), handle))
            uncounted += sink.nodes_added
            counted = len(labels)
    if state.stack:
        raise NestingError(f"unbalanced open at position {state.stack[0][2]}")
    stats.visits, stats.scans, stats.ecs_calls = total_visits, total_scans, total_calls
    stats.nodes_added = len(labels) - start - uncounted
    stats.pulls = k + 1  # one pull per token plus the one that found the end
    stats.plans = len(neutral_plans) + len(open_plans) + len(close_plans)
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
