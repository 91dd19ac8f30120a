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
move, and the moves pick the target's handles in one gather; only the
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

Compiled steps. A plan first runs generically: a gather of ``take``,
then a loop over the work instructions. Once it has run HOT times, its
gather and work are generated as one Python function, compiled once and
kept with the plan, as Thompson (CACM 1968) compiled a regular
expression to machine code. Each work instruction
becomes one assignment that calls the arena's ``add``, ``prod`` and
``union`` (or ``_group``) as the generic run does, so only ``ecs``
writes nodes and the nodes and their order are those of the generic
run; the function returns the target's handles as one list display. A
close takes the summary's handles and the level's as two arguments.
HOT is the measured ratio of one compile to one generic run of the
same plan (see the constant), so a plan compiles only after its runs
have cost about what the compile will, and a step that occurs a few
dozen times in a document never pays for one.

The input is pulled exactly once per token plus one probe that detects
the end. A token costs at most one plan build, bounded by the table and
transition sizes like the step it compiles, plus one run of the same
size, never anything that grows with the number of results collected
so far; a plan compiles at most once, at a cost of the same bound. The
cache gains at most one plan per token, and no plan is larger than the
work of the token that built it, so what it retains stays within the
arena's own O(work).

Identity runs. A neutral step whose plan keeps the table as it is
leaves the shape unchanged, so the same token right after it finds the
same plan and again changes nothing. Without an observer, each repeat
of that token object costs one identity test, and the run's length is
added to the plan's run count when another token or the end arrives.
The pass's totals are each plan's counts times its runs, summed once
at the end. The tokenizer hands out one object per distinct word, so a
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

from collections.abc import Callable, Iterator

from vptenum.ecs import EMPTY, EcsArena
from vptenum.enumtree import Enumerator
from vptenum.nested import InputError, Record, StructuredAlphabet, TokenKind
from vptenum.vpt import NO_MOVES, OutputWord, Vpt, is_io_deterministic, io_determinize, stable_key

OPEN, NEUTRAL = TokenKind.OPEN, TokenKind.NEUTRAL


class NestingError(InputError):
    """The document is not well nested."""


class AmbiguityError(ValueError):
    """The transducer could not be verified safe for single-pass use."""


class SymbolError(InputError):
    """A token whose letter is outside the alphabet the pass checks."""

    def __init__(self, token, k: int):
        super().__init__(f"unknown {token.kind.value} symbol {token.name!r} at position {k}")
        self.token = token


class SymbolStats(Record):
    """Unit-step counters: one token's, or (as EngineStats) the pass's."""

    _fields = ("visits", "scans", "ecs_calls", "nodes_added")

    def __init__(self, visits: int = 0, scans: int = 0, ecs_calls: int = 0, nodes_added: int = 0) -> None:
        self.visits = visits  # (table entry, transition) matches processed
        self.scans = scans  # table entries inspected without a match
        self.ecs_calls = ecs_calls
        self.nodes_added = nodes_added

    def add(self, other: "SymbolStats") -> None:
        self.visits += other.visits
        self.scans += other.scans
        self.ecs_calls += other.ecs_calls
        self.nodes_added += other.nodes_added


class EngineStats(SymbolStats):
    """Running totals of the whole pass, finalization included, in O(1)
    memory. ``plans`` counts the step plans the pass compiled."""

    _fields = (*SymbolStats._fields, "pulls", "plans", "finalize")

    def __init__(
        self,
        visits: int = 0,
        scans: int = 0,
        ecs_calls: int = 0,
        nodes_added: int = 0,
        pulls: int = 0,
        plans: int = 0,
        finalize: SymbolStats | None = None,
    ) -> None:
        super().__init__(visits, scans, ecs_calls, nodes_added)
        self.pulls = pulls
        self.plans = plans
        self.finalize = SymbolStats() if finalize is None else finalize

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


class EngineState(Record):
    """Mutable pass state: the pair table, the frame stack, the arena.

    The table is ``handles`` under the keys of shape ``shape``, the i-th
    handle that of the i-th key; each stack entry is (summary shape id,
    handles, open position), its handles under the summary's keys."""

    __slots__ = _fields = ("arena", "shapes", "shape", "handles", "stack", "epsilon")

    def __init__(
        self, arena: EcsArena, shapes: Shapes, shape: int, handles: list, stack: list, epsilon: int
    ) -> None:
        self.arena = arena
        self.shapes = shapes
        self.shape = shape
        self.handles = handles
        self.stack = stack
        self.epsilon = epsilon

    @classmethod
    def initial(cls, vpt: Vpt) -> "EngineState":
        arena = EcsArena()
        eps = arena.epsilon_node()
        shapes = Shapes()
        keys = tuple((q, q) for q in sorted(vpt.initial, key=stable_key))
        sid = shapes.intern(keys, (True,) * len(keys))
        return cls(arena, shapes, sid, [eps] * len(keys), [], eps)

    def accepting(self, vpt: Vpt, stats: SymbolStats | None = None) -> int:
        """Fold the handles of the level's accepting slots into one,
        counting the work into ``stats`` if given. At depth 0 this is
        the result set of the prefix read so far."""
        stats = SymbolStats() if stats is None else stats
        arena = self.arena
        before = len(arena.kinds)
        root = EMPTY
        for (p, q), handle in zip(self.shapes.keys[self.shape], self.handles):
            if p in vpt.initial and q in vpt.final:
                stats.visits += 1
                root = arena.union(root, handle)
                stats.ecs_calls += 1
            else:
                stats.scans += 1
        stats.nodes_added += len(arena.kinds) - before
        return root


class Plan:
    """One compiled step over a *pool* of handles: the table, or for a
    close the summary's handles followed by the level's. Target slot i
    takes pool[take[i]], then ``work`` runs; take None marks a neutral
    that keeps the table as it is. An open's target is the summary it
    pushes; its new level is ``seed_width`` epsilon handles of shape
    ``seed``. ``runs`` counts the plan's uses so far, and ``step`` is its
    generated function, once it has one (see _compile)."""

    __slots__ = ("take", "work", "shape", "counts", "seed", "seed_width", "runs", "step")

    def __init__(self, take: list, work: tuple, shape: int, counts: tuple, seed: int = -1, seed_width: int = 0):
        self.take: tuple | None = tuple(take)
        self.work = work  # (a, b, outs, tgt, join) instructions: see _assemble
        self.shape = shape  # the target's shape id
        self.counts = counts  # the step's (visits, scans, arena calls)
        self.seed = seed
        self.seed_width = seed_width
        self.runs = 0
        self.step: Callable | None = None


# A plan visits the keys in table order and each key's moves in row
# order. A visit extends the entry's handle by the move's output, if
# any, with a fresh symbol leaf (2 calls) and unions it into the target
# slot (1 call; a vacant slot just takes it, as a union with EMPTY
# would). Table handles are never EMPTY. The counts are those of this
# model, whatever the folding of epsilon operands and the merging of
# sibling outputs leave to run.


def _assemble(shapes: Shapes, arena: EcsArena, keys: tuple, code: list, pool_eps: tuple) -> tuple:
    """Fold the epsilon operands out of a step's instructions, merge the
    sibling outputs and split the rest into moves and work; returns the
    pool index each target slot gathers, the work and the target's
    shape id. The work names each output by its id in ``arena``.

    An instruction (a, b, out, tgt) puts pool[a] . pool[b] . leaf(out)
    into slot tgt, by a union if the slot is taken; b, out may be None.
    Work has one form, (a, b, outs, tgt, join): it puts pool[a] .
    pool[b] . (leaf(o1) | leaf(o2) | ...) into tgt, by a union if join;
    a, b may be None, and outs is empty for a copy or a product. After
    the folding, instructions that carry an output and share their
    operands (a, b) and slot tgt become one, where the first of them
    stood, with all their outputs. The leaves' outputs differ, so their
    union is disjoint, and each is one symbol long, so the product
    splits uniquely; an advance of the enumerator then switches one
    leaf instead of rebuilding the shared prefix. The outputs get their
    ids in the order of the work, which is the order the step's first
    run adds their leaves in."""
    take = [0] * len(keys)  # a slot that work fills first gathers a placeholder
    eps: list = [None] * len(keys)  # None while the slot is vacant
    work = []
    outs: dict = {}  # (a, b, tgt) of each output-carrying instruction -> its outputs
    for a, b, out, tgt in code:
        if b is not None and pool_eps[a]:
            a, b = b, None
        elif b is not None and pool_eps[b]:
            b = None
        leaves = []
        if out is not None:
            if b is None and pool_eps[a]:
                a = None  # epsilon . leaf is the leaf
            if (a, b, tgt) in outs:
                outs[a, b, tgt].append(out)
                continue
            leaves = outs[a, b, tgt] = [out]
        copy = out is None and b is None
        if eps[tgt] is None:
            eps[tgt] = copy and pool_eps[a]
            if copy:
                take[tgt] = a
            else:
                work.append((a, b, leaves, tgt, False))
        elif not (eps[tgt] and copy and pool_eps[a]):
            eps[tgt] = False
            work.append((a, b, leaves, tgt, True))
    ids = arena.output_id
    work = tuple((a, b, tuple(map(ids, leaves)), tgt, join) for a, b, leaves, tgt, join in work)
    return take, work, shapes.intern(keys, tuple(eps))


def neutral_plan(shapes: Shapes, arena: EcsArena, sid: int, moves) -> Plan:
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
    take, work, shape = _assemble(shapes, arena, tuple(slots), code, shapes.eps[sid])
    plan = Plan(take, work, shape, (visits, scans, calls))
    if shape == sid and not work and all(i == tgt for i, _, _, tgt in code):
        plan.take = None  # the table stays as it is
    return plan


def open_plan(shapes: Shapes, arena: EcsArena, sid: int, moves) -> Plan:
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
    take, work, shape = _assemble(shapes, arena, tuple(slots), code, shapes.eps[sid])
    seed_keys = tuple(seed)
    seed_sid = shapes.intern(seed_keys, (True,) * len(seed_keys))
    return Plan(take, work, shape, (visits, scans, calls), seed_sid, len(seed_keys))


def close_plan(shapes: Shapes, arena: EcsArena, summary_sid: int, sid: int, moves) -> Plan:
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
    take, work, shape = _assemble(shapes, arena, tuple(slots), code, pool_eps)
    return Plan(take, work, shape, (visits, scans, calls))


# A plan compiles its step (_compile) once it has run HOT times, so the
# compile costs about as much again as the generic runs before it. On
# the 18 hot plans of the spanner-tree benchmark document (CPython
# 3.11, a 2-vCPU x86_64 VM, 10 processes), one compile took 40-140 us,
# median 75-99, and one generic run of the same plan 0.7-4.4 us, median
# 1.9-2.8: a ratio of 27-82, median 37-42, 38 over the 10. HOT is that
# median raised to 40: no plan of the flat scan and enum benchmark
# documents runs more than 39 times, so their passes never compile.
HOT = 40


def _run(plan: Plan, arena: EcsArena, handles: list, k: int, uppers: list | None = None) -> list:
    """The target's handles after plan's step at position k over the
    table's ``handles``, or for a close over the summary's ``uppers``
    and the level's ``handles``: the gathered moves, then the work.
    Once the plan has run HOT times, its generated step runs instead."""
    if plan.runs >= HOT:
        step = plan.step = _compile(plan, arena, None if uppers is None else len(uppers))
        return step(handles, k) if uppers is None else step(uppers, handles, k)
    pool = handles if uppers is None else uppers + handles
    new = [pool[i] for i in plan.take]
    if plan.work:
        add, prod, union = arena.add, arena.prod, arena.union
        for a, b, outs, tgt, join in plan.work:
            v = None if a is None else pool[a] if b is None else prod(pool[a], pool[b])
            if len(outs) == 1:
                leaf = add(outs[0], k)
                v = leaf if v is None else prod(v, leaf)
            elif outs:
                v = _group(arena, v, outs, k)
            new[tgt] = union(new[tgt], v) if join else v
    return new


def _group(arena: EcsArena, prefix: int | None, outs: tuple, k: int) -> int:
    """prefix . (leaf(o1) | leaf(o2) | ...) at position k, the o's output
    ids; no prefix if None."""
    add, union = arena.add, arena.union
    v = add(outs[0], k)
    for oid in outs[1:]:
        v = union(v, add(oid, k))
    return v if prefix is None else arena.prod(prefix, v)


def _compile(plan: Plan, arena: EcsArena, split: int | None) -> Callable:
    """plan's gather and work as one generated function, ``step(h, k)``
    over the table's handles h, or for a close ``step(u, h, k)`` over
    the summary's ``split`` handles u and the level's h. It returns the
    target's handles as one list display.

    Each work instruction is one assignment that calls the arena, the
    same calls in the same order as the generic run, so the nodes are
    those of ``_run``: ``tN = prod(h[a], u[b])``, a leaf ``add(i, k)``
    or ``prod(x, add(i, k))`` with i an output id, a group ``group(arena,
    x, oK, k)``, and ``tN = union(t, value)`` where the slot is taken.
    The source is built from ints and names only: a leaf's output id is
    an int, and a group's tuple of ids is bound to a name in the
    function's namespace."""
    names: dict = {"arena": arena, "add": arena.add, "prod": arena.prod, "union": arena.union, "group": _group}

    def const(value) -> str:
        name = f"o{len(names)}"
        names[name] = value
        return name

    def pool(i: int) -> str:
        if split is None:
            return f"h[{i}]"
        return f"u[{i}]" if i < split else f"h[{i - split}]"

    body = []
    slots = [pool(i) for i in plan.take]
    for a, b, outs, tgt, join in plan.work:
        val = None if a is None else pool(a) if b is None else f"prod({pool(a)}, {pool(b)})"
        if len(outs) == 1:
            leaf = f"add({outs[0]}, k)"
            val = leaf if val is None else f"prod({val}, {leaf})"
        elif outs:
            val = f"group(arena, {val}, {const(outs)}, k)"
        dst = f"t{tgt}"
        body.append(f"{dst} = union({slots[tgt]}, {val})" if join else f"{dst} = {val}")
        slots[tgt] = dst
    head = "def step(h, k):" if split is None else "def step(u, h, k):"
    body.append(f"return [{', '.join(slots)}]")
    exec(compile("\n    ".join([head] + body), "<step plan>", "exec"), names)
    return names["step"]


def _check(alphabet: StructuredAlphabet | None, tok, k: int) -> None:
    """Refuse tok at position k if its letter is outside ``alphabet``."""
    if alphabet is not None and not alphabet.kind_of(tok.name, tok.kind):
        raise SymbolError(tok, k)


class PreprocessResult(Record):
    _fields = ("arena", "root", "stats", "length")

    def __init__(self, arena: EcsArena, root: int, stats: EngineStats, length: int) -> None:
        self.arena = arena
        self.root = root
        self.stats = stats
        self.length = length


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
    shapes, arena, stack, epsilon = state.shapes, state.arena, state.stack, state.epsilon
    shape, handles = state.shape, state.handles  # written back to state for an observer and at the end
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    nodes = arena.kinds
    stats = EngineStats()
    # the plan caches: (shape, letter) for neutrals and opens,
    # (summary shape, shape, letter) for closes
    neutral_plans: dict = {}
    open_plans: dict = {}
    close_plans: dict = {}

    k = 0
    start = counted = len(nodes)  # counted: the arena's size after the last observer call
    uncounted = 0  # nodes added by the observer, which are no token's
    # an identity run: the token whose identity plan ran last and where
    # its repeats start; the plan gains their runs once the run ends
    same = None
    for k, tok in enumerate(tokens, 1):
        if tok is same:
            continue
        if same is not None:
            plan.runs += k - resume  # plan is still the identity plan
            same = None
        kind = tok.kind
        if kind is NEUTRAL:
            key = (shape, tok.name)
            plan = neutral_plans.get(key)
            if plan is None:
                _check(alphabet, tok, k)
                plan = neutral_plans[key] = neutral_plan(shapes, arena, shape, nidx.get(tok.name, NO_MOVES))
            if plan.take is not None:
                step = plan.step
                handles = _run(plan, arena, handles, k) if step is None else step(handles, k)
                shape = plan.shape
            elif observer is None:
                # the table is as it was: a repeat of this token object
                # would find this plan again and change nothing either
                same, resume = tok, k + 1
        elif kind is OPEN:
            key = (shape, tok.name)
            plan = open_plans.get(key)
            if plan is None:
                _check(alphabet, tok, k)
                plan = open_plans[key] = open_plan(shapes, arena, shape, oidx.get(tok.name, NO_MOVES))
            step = plan.step
            stack.append((plan.shape, _run(plan, arena, handles, k) if step is None else step(handles, k), k))
            handles = [epsilon] * plan.seed_width
            shape = plan.seed
        else:
            if not stack:
                _check(alphabet, tok, k)  # a foreign letter is named before the nesting
                raise NestingError(f"unbalanced close at position {k}")
            summary, uppers, _ = stack.pop()
            key = (summary, shape, tok.name)
            plan = close_plans.get(key)
            if plan is None:
                _check(alphabet, tok, k)
                plan = close_plans[key] = close_plan(shapes, arena, summary, shape, cidx.get(tok.name, NO_MOVES))
            step = plan.step
            handles = _run(plan, arena, handles, k, uppers) if step is None else step(uppers, handles, k)
            shape = plan.shape
        plan.runs += 1
        if observer is not None:
            state.shape, state.handles = shape, handles
            size = len(nodes)
            observer(k, state, SymbolStats(*plan.counts, size - counted))
            counted = len(nodes)
            uncounted += counted - size
    if same is not None:
        plan.runs += k + 1 - resume
    state.shape, state.handles = shape, handles
    if state.stack:
        raise NestingError(f"unbalanced open at position {state.stack[0][2]}")
    plans = [*neutral_plans.values(), *open_plans.values(), *close_plans.values()]
    for plan in plans:  # each use of a plan adds its counts
        stats.add(SymbolStats(*(plan.runs * n for n in plan.counts)))
    stats.nodes_added = len(nodes) - start - uncounted
    stats.pulls = k + 1  # one pull per token plus the one that found the end
    stats.plans = len(plans)
    root = state.accepting(vpt, stats.finalize)
    stats.add(stats.finalize)
    return PreprocessResult(arena=state.arena, root=root, stats=stats, length=k)


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


def evaluate(vpt: Vpt, tokens, mode: str = "check") -> Iterator[OutputWord]:
    """Evaluate vpt on the document and stream the distinct results."""
    vpt = resolve_mode(vpt, mode)
    result = preprocess(vpt, tokens)
    return iter(Enumerator(result.arena, result.root))
