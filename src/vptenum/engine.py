"""One-pass evaluation: read the document once, then enumerate results.

The pass maintains a table keyed by state pairs (p, q): p is the state
the current level was entered in, q a state reachable now, and the
stored arena handle collects the outputs produced between those two
points. Opens push the table's summary onto a stack (re-keyed by the
pushed stack symbol) and start a fresh level; closes combine the saved
summary with the finished level and pop. Because arena nodes are
persistent, popped levels stay valid inside whatever handles they were
combined into.

Shapes and plans. A table's *shape* is its keys in order, (p, q) pairs
for a level and (p, x, q2) triples for a summary, plus one epsilon flag
per key: set exactly when the slot holds the pass's epsilon leaf.
Shapes are interned per pass, so a table is a shape id plus a list of
handles, one slot per key, and a frame is the summary's shape id, its
handles and the position of its open. What a step does depends only on
the shape(s) and the letter, so each distinct step is compiled once into
a *plan*, the target shape and the step's (visits, scans, arena calls).
The flags are exact, so the compile folds every epsilon operand as the
arena would: epsilon factors drop out of products and a union of two
epsilons is one. What is left a copy of a source handle becomes a slot
move, and all moves run as one ``operator.itemgetter`` gather; only the
instructions that create nodes (a symbol leaf, a product of two
non-epsilon handles, a union) remain as per-token *work*, in the order
the keys and moves are met. Sibling outputs are factored there too:
moves that print into the same slot after the same operands become one
instruction, the product of that prefix and the union of their leaves,
``prod(X, u | v)`` rather than ``prod(X, u) | prod(X, v)``, so the
enumerator switches one leaf where it would rebuild all of X. A neutral
step that maps every key to itself keeps the handle list as it is.
``preprocess`` caches its plans in dicts of its own, keyed by (shape,
letter) for neutrals and opens and by (summary shape, shape, letter)
for closes: the lazy subset construction of on-the-fly DFA matchers,
applied to the level summaries.

The input is pulled exactly once per token plus one probe that detects
the end. A token costs at most one plan build, bounded by the table and
transition sizes like the step it compiles, plus one run of the same
size, never anything that grows with the number of results collected
so far. The cache gains at most one plan per token, and no plan is
larger than the work of the token that built it, so what it retains
stays within the arena's own O(work).

Identity runs. A neutral step whose plan keeps the table as it is
leaves the shape unchanged, so the same token right after it finds the
same plan and again changes nothing. Without an observer, each repeat
of that token object costs one identity test, and the plan's counts are
added once per run, times the run's length, when another token or the
end arrives. The tokenizer hands out one object per distinct word, so a
long stretch of padding costs O(1) Python work per run, not per token.
Equal tokens that are distinct objects take the step each time.

Letters. ``preprocess(..., alphabet=...)`` checks a token's letter only
where a plan is built for it, once per (shape, letter): no plan exists
for a letter that failed, so a cached plan needs no check.

Observers. ``preprocess(vpt, tokens, observer=None)`` keeps O(1) totals.
An observer is called after every token with the position, the
``EngineState`` and the token's ``SymbolStats``, so a CSV row or a
checkpoint line is written as the token is consumed and nothing is
kept; arena nodes it adds (an ``accepting`` fold) count for no token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from vptenum.ecs import EMPTY, EcsArena
from vptenum.enumtree import Enumerator, OutputWord
from vptenum.nested import StructuredAlphabet, TokenKind
from vptenum.vpt import NO_MOVES, Vpt, is_io_deterministic, io_determinize, stable_key

OPEN, NEUTRAL = TokenKind.OPEN, TokenKind.NEUTRAL


class NestingError(ValueError):
    """The document is not well nested."""


class AmbiguityError(ValueError):
    """The transducer could not be verified safe for single-pass use."""


class SymbolError(ValueError):
    """A token whose letter is outside the alphabet the pass checks."""

    def __init__(self, token, k: int):
        super().__init__(f"unknown {token.kind.value} symbol {token.name!r} at position {k}")
        self.token = token


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
    memory. ``plans`` counts the step plans the pass compiled."""

    pulls: int = 0
    plans: int = 0
    finalize: SymbolStats = field(default_factory=SymbolStats)

    def totals(self) -> SymbolStats:
        return SymbolStats(self.visits, self.scans, self.ecs_calls, self.nodes_added)


class Shapes:
    """The shapes met in one pass, each interned to a small int id.

    A shape is a table's keys, in order, and one epsilon flag per slot:
    true exactly when the slot's handle is the pass's epsilon leaf."""

    __slots__ = ("keys", "eps", "ids")

    def __init__(self) -> None:
        self.keys: list[tuple] = []  # shape id -> its keys
        self.eps: list[tuple] = []  # shape id -> its epsilon flags
        self.ids: dict[tuple, int] = {}

    def intern(self, keys: tuple, eps: tuple) -> int:
        sid = self.ids.get((keys, eps))
        if sid is None:
            sid = self.ids[keys, eps] = len(self.keys)
            self.keys.append(keys)
            self.eps.append(eps)
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
        arena = EcsArena()
        eps = arena.epsilon_node()
        shapes = Shapes()
        keys = tuple((q, q) for q in sorted(vpt.initial, key=stable_key))
        sid = shapes.intern(keys, (True,) * len(keys))
        return cls(arena, shapes, sid, [eps] * len(keys), [], eps)

    @property
    def table(self) -> dict:
        return dict(zip(self.shapes.keys[self.shape], self.handles))

    @property
    def frames(self) -> list[dict]:
        keys = self.shapes.keys
        return [dict(zip(keys[sid], handles)) for sid, handles, _ in self.stack]

    def accepting(self, vpt: Vpt, stats: SymbolStats | None = None) -> int:
        """Fold the handles of the level's accepting slots into one,
        counting the work into ``stats`` if given. At depth 0 this is
        the result set of the prefix read so far."""
        stats = SymbolStats() if stats is None else stats
        arena = self.arena
        before = len(arena)
        root = EMPTY
        for (p, q), handle in zip(self.shapes.keys[self.shape], self.handles):
            if p in vpt.initial and q in vpt.final:
                stats.visits += 1
                root = arena.union(root, handle)
                stats.ecs_calls += 1
            else:
                stats.scans += 1
        stats.nodes_added += len(arena) - before
        return root


class Plan(NamedTuple):
    """One compiled step over a *pool* of handles: the table, or for a
    close the summary's handles followed by the level's. ``gather``
    picks the target's handles out of the pool (None: a neutral keeps
    the table as it is), then ``work`` runs. An open's target is the
    summary it pushes; its new level is ``seed_width`` epsilon handles
    of shape ``seed``."""

    gather: Callable | None
    work: tuple  # (a, b, out, tgt, join), or a group (None, (a, b), outs, tgt, join): see _assemble
    shape: int  # the target's shape id
    counts: tuple  # the step's (visits, scans, arena calls)
    seed: int = -1
    seed_width: int = 0


# A plan visits the keys in table order and each key's moves in row
# order. A visit extends the entry's handle by the move's output, if
# any, with a fresh symbol leaf (2 calls) and unions it into the target
# slot (1 call; a vacant slot just takes it, as a union with EMPTY
# would). Table handles are never EMPTY. The counts are those of this
# model, whatever the folding of epsilon operands and the merging of
# sibling outputs leave to run.


def _gatherer(take: list) -> Callable:
    if len(take) == 1:
        (i,) = take
        return lambda pool: (pool[i],)
    return itemgetter(*take) if take else lambda pool: ()


def _assemble(shapes: Shapes, keys: tuple, code: list, pool_eps: tuple) -> tuple:
    """Fold the epsilon operands out of a step's instructions, merge the
    sibling outputs and split the rest into a gather and work; returns
    both and the target's shape id.

    An instruction (a, b, out, tgt) puts pool[a] . pool[b] . leaf(out)
    into slot tgt, by a union if the slot is taken; b, out may be None.
    After the folding, instructions that carry an output and share their
    operands (a, b) and slot tgt become one, where the first of them
    stood: a group (None, (a, b), outs, tgt, join) that puts pool[a] .
    pool[b] . (leaf(o1) | leaf(o2) | ...) into tgt. The leaves' outputs
    differ, so their union is disjoint, and each is one symbol long, so
    the product splits uniquely; an advance of the enumerator then
    switches one leaf instead of rebuilding the shared prefix."""
    take = [0] * len(keys)  # a slot that work fills first gathers a placeholder
    eps: list = [None] * len(keys)  # None while the slot is vacant
    work = []
    outs: dict = {}  # (a, b, tgt) of each output-carrying instruction -> its outputs
    for a, b, out, tgt in code:
        if b is not None and pool_eps[a]:
            a, b = b, None
        elif b is not None and pool_eps[b]:
            b = None
        if out is not None:
            if b is None and pool_eps[a]:
                a = None  # epsilon . leaf is the leaf
            if (a, b, tgt) in outs:
                outs[a, b, tgt].append(out)
                continue
            outs[a, b, tgt] = [out]
        copy = out is None and b is None
        if eps[tgt] is None:
            eps[tgt] = copy and pool_eps[a]
            if copy:
                take[tgt] = a
            else:
                work.append((a, b, out, tgt, False))
        elif not (eps[tgt] and copy and pool_eps[a]):
            eps[tgt] = False
            work.append((a, b, out, tgt, True))
    for i, (a, b, out, tgt, join) in enumerate(work):
        if out is not None and len(outs[a, b, tgt]) > 1:
            work[i] = (None, (a, b), tuple(outs[a, b, tgt]), tgt, join)
    return _gatherer(take), tuple(work), shapes.intern(keys, tuple(eps))


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
            code.append((i, None, out, slots.setdefault((p, q2), len(slots))))
    gather, work, shape = _assemble(shapes, tuple(slots), code, shapes.eps[sid])
    if shape == sid and not work and all(i == tgt for i, _, _, tgt in code):
        gather = None  # the table stays as it is
    return Plan(gather, work, shape, (visits, scans, calls))


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
            code.append((i, None, out, slots.setdefault((p, x, q2), len(slots))))
            seed.setdefault((q2, q2))
    gather, work, shape = _assemble(shapes, tuple(slots), code, shapes.eps[sid])
    seed_keys = tuple(seed)
    seed_sid = shapes.intern(seed_keys, (True,) * len(seed_keys))
    return Plan(gather, work, shape, (visits, scans, calls), seed_sid, len(seed_keys))


def close_plan(shapes: Shapes, summary_sid: int, sid: int, moves) -> Plan:
    """Compile a close letter's row against summary shape
    ``summary_sid`` over level shape ``sid``."""
    visits = scans = calls = 0
    code = []
    slots: dict = {}
    by_first: dict = {}
    uppers = len(shapes.keys[summary_sid])  # the level's handles follow in the pool
    for j, (p2, q2) in enumerate(shapes.keys[sid]):
        by_first.setdefault(p2, []).append((q2, uppers + j))
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
    pool_eps = shapes.eps[summary_sid] + shapes.eps[sid]
    gather, work, shape = _assemble(shapes, tuple(slots), code, pool_eps)
    return Plan(gather, work, shape, (visits, scans, calls))


def _run(arena: EcsArena, gather: Callable, work: tuple, pool: list, k: int) -> list:
    """The target's handles: the gathered moves, then the work at position k."""
    new = list(gather(pool))
    if work:
        add, prod, union = arena.add, arena.prod, arena.union
        for a, b, out, tgt, join in work:
            if out is None:  # a copy into a taken slot, or a product of two handles
                v = pool[a] if b is None else prod(pool[a], pool[b])
            elif b is None:  # a leaf, after pool[a] unless a is None
                v = add((out, k)) if a is None else prod(pool[a], add((out, k)))
            elif a is not None:  # a leaf after pool[a] . pool[b]
                v = prod(prod(pool[a], pool[b]), add((out, k)))
            else:  # a group: b is its operands, out its outputs
                v = _group(arena, pool, b, out, k)
            new[tgt] = union(new[tgt], v) if join else v
    return new


def _group(arena: EcsArena, pool: list, operands: tuple, outs: tuple, k: int) -> int:
    """pool[a] . pool[b] . (leaf(o1) | leaf(o2) | ...) at position k,
    where a, b may be None."""
    a, b = operands
    prefix = None if a is None else pool[a] if b is None else arena.prod(pool[a], pool[b])
    add, union = arena.add, arena.union
    v = add((outs[0], k))
    for out in outs[1:]:
        v = union(v, add((out, k)))
    return v if prefix is None else arena.prod(prefix, v)


# Each runner applies its plan to the state at position k and returns
# the step's (visits, scans, arena calls).


def run_neutral(state: EngineState, plan: Plan, k: int) -> tuple:
    gather, work, shape, counts, _, _ = plan
    if gather is not None:
        state.handles = _run(state.arena, gather, work, state.handles, k)
        state.shape = shape
    return counts


def run_open(state: EngineState, plan: Plan, k: int) -> tuple:
    gather, work, shape, counts, seed, seed_width = plan
    state.stack.append((shape, _run(state.arena, gather, work, state.handles, k), k))
    state.handles = [state.epsilon] * seed_width
    state.shape = seed
    return counts


def run_close(state: EngineState, plan: Plan, k: int) -> tuple:
    gather, work, shape, counts, _, _ = plan
    _, uppers, _ = state.stack.pop()
    state.handles = _run(state.arena, gather, work, uppers + state.handles, k)
    state.shape = shape
    return counts


def _check(alphabet: StructuredAlphabet | None, tok, k: int) -> None:
    """Refuse tok at position k if its letter is outside ``alphabet``."""
    if alphabet is not None and not alphabet.kind_of(tok.name, tok.kind):
        raise SymbolError(tok, k)


@dataclass
class PreprocessResult:
    arena: EcsArena
    root: int
    stats: EngineStats
    length: int


def preprocess(
    vpt: Vpt, tokens, observer: Callable | None = None, alphabet: StructuredAlphabet | None = None
) -> PreprocessResult:
    """Run the single pass and return the collected result handle.

    The caller vouches that vpt admits at most one accepting run per
    (document, output) pair; ``evaluate`` enforces that contract.

    A letter the machine has no moves for empties the table; with an
    ``alphabet``, a letter outside it raises SymbolError before its step.

    The result's stats hold the pass's running totals. An ``observer``
    is called after each token as ``observer(k, state, counts)``: the
    position k, the pass state and that token's SymbolStats. Arena
    nodes it adds count for no token and not in the totals.

    Without an observer, a token that ``is`` the one before it, whose
    neutral step left the table as it was, is skipped: the totals gain
    the step's counts for it all the same. With an observer every token
    takes its step, so the observer sees each one.
    """
    state = EngineState.initial(vpt)
    shapes = state.shapes
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    nodes = state.arena.kinds
    stats = EngineStats()
    # the plan caches: (shape, letter) for neutrals and opens,
    # (summary shape, shape, letter) for closes
    neutral_plans: dict = {}
    open_plans: dict = {}
    close_plans: dict = {}

    k = total_visits = total_scans = total_calls = 0
    start = counted = len(nodes)  # counted: the arena's size after the last observer call
    uncounted = 0  # nodes added by the observer, which are no token's
    # an identity run: the token whose identity plan ran last, where its
    # repeats start, and the plan's counts, added once the run ends
    same = None
    for k, tok in enumerate(tokens, 1):
        if tok is same:
            continue
        if same is not None:
            repeats = k - resume
            total_visits += repeats * same_visits
            total_scans += repeats * same_scans
            total_calls += repeats * same_calls
            same = None
        kind = tok.kind
        if kind is NEUTRAL:
            key = (state.shape, tok.name)
            plan = neutral_plans.get(key)
            if plan is None:
                _check(alphabet, tok, k)
                plan = neutral_plans[key] = neutral_plan(shapes, key[0], nidx.get(key[1], NO_MOVES))
            visits, scans, calls = run_neutral(state, plan, k)
            if plan.gather is None and observer is None:
                # the table is as it was: a repeat of this token object
                # would find this plan again and change nothing either
                same, resume = tok, k + 1
                same_visits, same_scans, same_calls = visits, scans, calls
        elif kind is OPEN:
            key = (state.shape, tok.name)
            plan = open_plans.get(key)
            if plan is None:
                _check(alphabet, tok, k)
                plan = open_plans[key] = open_plan(shapes, key[0], oidx.get(key[1], NO_MOVES))
            visits, scans, calls = run_open(state, plan, k)
        else:
            if not state.stack:
                _check(alphabet, tok, k)  # a foreign letter is named before the nesting
                raise NestingError(f"unbalanced close at position {k}")
            key = (state.stack[-1][0], state.shape, tok.name)
            plan = close_plans.get(key)
            if plan is None:
                _check(alphabet, tok, k)
                plan = close_plans[key] = close_plan(shapes, key[0], key[1], cidx.get(key[2], NO_MOVES))
            visits, scans, calls = run_close(state, plan, k)
        total_visits += visits
        total_scans += scans
        total_calls += calls
        if observer is not None:
            size = len(nodes)
            observer(k, state, SymbolStats(visits, scans, calls, size - counted))
            counted = len(nodes)
            uncounted += counted - size
    if same is not None:
        repeats = k + 1 - resume
        total_visits += repeats * same_visits
        total_scans += repeats * same_scans
        total_calls += repeats * same_calls
    if state.stack:
        raise NestingError(f"unbalanced open at position {state.stack[0][2]}")
    stats.visits, stats.scans, stats.ecs_calls = total_visits, total_scans, total_calls
    stats.nodes_added = len(nodes) - start - uncounted
    stats.pulls = k + 1  # one pull per token plus the one that found the end
    stats.plans = len(neutral_plans) + len(open_plans) + len(close_plans)
    root = state.accepting(vpt, stats.finalize)
    stats.add(stats.finalize)
    return PreprocessResult(arena=state.arena, root=root, stats=stats, length=k)


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
    stats_out: EngineStats | None = None,
    alphabet: StructuredAlphabet | None = None,
) -> Iterator[OutputWord]:
    """Evaluate vpt on the document and stream the distinct results;
    ``alphabet`` is checked as by ``preprocess``."""
    vpt = resolve_mode(vpt, mode)
    result = preprocess(vpt, tokens, alphabet=alphabet)
    if stats_out is not None:
        vars(stats_out).update(vars(result.stats))
    return iter(Enumerator(result.arena, result.root))
