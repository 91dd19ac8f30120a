"""Independent reference implementations and random-instance generators.

Everything here recomputes library answers by a different route (brute
force, set algebra, quadratic scans) so the tests never compare a
function against itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Iterable, Iterator

from vptenum.ecs import EcsArena, EMPTY
from vptenum.enumtree import Enumerator
from vptenum.engine import EngineStats, NestingError, PreprocessResult, SymbolStats
from vptenum.nested import (
    Span,
    StructuredAlphabet,
    Token,
    TokenizeError,
    TokenKind,
    token_of_word,
)
from vptenum.spanner import (
    END_MARKER,
    ChainProduction,
    EpsProduction,
    NestProduction,
    NotFunctionalError,
    Vpeg,
    close_marker,
    open_marker,
)
from vptenum.vpt import NO_MOVES, OutputWord, ResourceCapError, Vpt, level_reach, stable_key


# ------------------------------------------- tokens and documents

def serialize_token(token: Token) -> str:
    if token.kind is TokenKind.OPEN:
        return f"<{token.name}"
    if token.kind is TokenKind.CLOSE:
        return f"{token.name}>"
    return token.name


def serialize(tokens: Iterable[Token]) -> str:
    return " ".join(serialize_token(t) for t in tokens)


def validate_nestedness(tokens: Iterable[Token]) -> bool:
    """True iff opens and closes balance (any open pairs with any close)."""
    depth = 0
    for tok in tokens:
        if tok.kind is TokenKind.OPEN:
            depth += 1
        elif tok.kind is TokenKind.CLOSE:
            if depth == 0:
                return False
            depth -= 1
    return depth == 0


def well_nested_words(alphabet: StructuredAlphabet, max_len: int) -> list[tuple[Token, ...]]:
    """Every well-nested token sequence of length at most max_len."""
    opens = sorted(alphabet.opens)
    closes = sorted(alphabet.closes)
    neutrals = sorted(alphabet.neutrals)
    memo: dict[int, list[tuple[Token, ...]]] = {0: [()]}

    def of_len(n: int) -> list[tuple[Token, ...]]:
        if n in memo:
            return memo[n]
        words: list[tuple[Token, ...]] = []
        for c in neutrals:
            head = (Token(TokenKind.NEUTRAL, c),)
            for rest in of_len(n - 1):
                words.append(head + rest)
        for m in range(0, n - 1):
            for a, b in _cartesian(opens, closes):
                for inner in of_len(m):
                    bracketed = (
                        (Token(TokenKind.OPEN, a),)
                        + inner
                        + (Token(TokenKind.CLOSE, b),)
                    )
                    for rest in of_len(n - 2 - m):
                        words.append(bracketed + rest)
        memo[n] = words
        return words

    all_words: list[tuple[Token, ...]] = []
    for n in range(max_len + 1):
        all_words.extend(of_len(n))
    return all_words


def enumerate_words(arena: EcsArena, v: int) -> Iterator[OutputWord]:
    """Enumerate L(v) with no repetitions; the sentinel yields nothing."""
    return iter(Enumerator(arena, v))


# ---------------------------------------------------------------- spans

def is_well_nested(tokens) -> bool:
    depth = 0
    for tok in tokens:
        if tok.kind == TokenKind.OPEN:
            depth += 1
        elif tok.kind == TokenKind.CLOSE:
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def currlevel_by_scan(tokens, k: int) -> Span:
    """Quadratic reference: try every start, keep the longest span."""
    for j in range(1, k + 1):
        if is_well_nested(tokens[j - 1 : k - 1]):
            return Span(j, k)
    raise AssertionError("empty span is always well nested")


def lowerlevel_by_scan(tokens, k: int) -> Span | None:
    j = currlevel_by_scan(tokens, k).start
    if j == 1:
        return None
    return currlevel_by_scan(tokens, j - 1)


def _unmatched_open_positions(tokens: list[Token], upto: int) -> list[int]:
    # positions (1-based) of opens in tokens[0:upto] with no matching close
    stack: list[int] = []
    for idx in range(upto):
        tok = tokens[idx]
        if tok.kind is TokenKind.OPEN:
            stack.append(idx + 1)
        elif tok.kind is TokenKind.CLOSE:
            if not stack:
                raise ValueError(f"unbalanced close at position {idx + 1}")
            stack.pop()
    return stack


def currlevel(tokens: list[Token], k: int) -> Span:
    """Longest well-nested span ending at position k, by a stack.

    Equals <j,k> where j-1 is the deepest open of the prefix that is
    still unmatched at k, or j = 1 when the prefix balances.
    """
    if not 1 <= k <= len(tokens) + 1:
        raise ValueError(f"position {k} out of range")
    stack = _unmatched_open_positions(tokens, k - 1)
    j = stack[-1] + 1 if stack else 1
    return Span(j, k)


def lowerlevel(tokens: list[Token], k: int) -> Span | None:
    """The level just below currlevel(k), or None at the root level."""
    j = currlevel(tokens, k).start
    if j == 1:
        return None
    return currlevel(tokens, j - 1)


# ------------------------------------------------------------ tokenizer

def _chars(source):
    if isinstance(source, str):
        yield from source
        return
    read = getattr(source, "read", None)
    if read is not None:
        while True:
            chunk = read(8192)
            if not chunk:
                return
            yield from chunk
        return
    for chunk in source:
        yield from chunk


def tokenize_by_chars(text, alphabet: StructuredAlphabet):
    """Character-loop reference for ``nested.tokenize``, same errors.

    A ``#`` with no token in progress starts a comment that runs to the
    next ``"\n"``; every other ``str.isspace`` character ends a token.
    """
    buf: list[str] = []
    in_comment = False
    count = 0
    line, col = 1, 0
    where = (1, 1)

    def token():
        try:
            return token_of_word("".join(buf), alphabet)
        except TokenizeError as exc:
            raise TokenizeError(
                f"{exc} at token {count + 1}, line {where[0]}:{where[1]}"
            ) from None

    for ch in _chars(text):
        col += 1
        if ch == "\n":
            line, col = line + 1, 0
        if in_comment:
            if ch == "\n":
                in_comment = False
            continue
        if ch == "#" and not buf:
            in_comment = True
            continue
        if ch.isspace():
            if buf:
                yield token()
                count += 1
                buf.clear()
            continue
        if not buf:
            where = (line, col)
        buf.append(ch)
    if buf:
        yield token()


# ------------------------------------------------- shadow model for ECS

class ShadowEcs:
    """Set-algebra twin of an arena: every handle maps to a frozenset."""

    def __init__(self, arena: EcsArena):
        self.arena = arena
        self.langs: dict[int, frozenset] = {EMPTY: frozenset()}

    def add(self, payload) -> int:
        v = self.arena.add(payload)
        self.langs[v] = frozenset({(payload,)})
        return v

    def epsilon(self) -> int:
        v = self.arena.epsilon_node()
        self.langs[v] = frozenset({()})
        return v

    def union(self, v1: int, v2: int) -> int:
        v = self.arena.union(v1, v2)
        self.langs[v] = self.langs[v1] | self.langs[v2]
        return v

    def prod(self, v1: int, v2: int) -> int:
        v = self.arena.prod(v1, v2)
        if v1 == EMPTY or v2 == EMPTY:
            self.langs[v] = frozenset()
        else:
            self.langs[v] = frozenset(
                a + b for a in self.langs[v1] for b in self.langs[v2]
            )
        return v

    def union_ok(self, v1: int, v2: int) -> bool:
        l1, l2 = self.langs[v1], self.langs[v2]
        return not ((l1 - {()}) & (l2 - {()}))

    def prod_ok(self, v1: int, v2: int) -> bool:
        l1, l2 = self.langs[v1], self.langs[v2]
        if not l1 or not l2:
            return True
        return len({a + b for a in l1 for b in l2}) == len(l1) * len(l2)


def union_of_unions(n: int) -> tuple[EcsArena, int]:
    """Arena built by acc = union(acc, union(add(x_i), add(y_i))), n times.

    x_i is ("x", 2i) and y_i is ("y", 2i + 1). Each round goes through
    the arena's three-node union-of-unions gadget, so the union region
    above a leaf grows with n while every left union depth stays at
    most 2.
    """
    arena = EcsArena()
    acc = EMPTY
    for i in range(n):
        acc = arena.union(acc, arena.union(arena.add(("x", 2 * i)), arena.add(("y", 2 * i + 1))))
    return arena, acc


def check_node_shape(arena: EcsArena, v: int) -> None:
    """2-boundedness of v under the library's depth bookkeeping recomputed
    from scratch (no trust in the arena's own inspectors)."""
    from vptenum.ecs import UNION

    def depth(u):
        if arena.label(u) != UNION:
            return 0
        return depth(arena.lefts[u]) + 1

    assert depth(v) <= 2, f"node {v} has union depth {depth(v)}"
    if arena.label(v) == UNION:
        assert depth(arena.rights[v]) <= 2


# ----------------------------------------------- randomized ECS op suite

class EcsOpSuite:
    """Random op driver asserting every ECS contract after every op.

    Checks per op: node budget, recomputed 2-boundedness and epsilon
    bookkeeping of every appended node, safety of the returned handle.
    Sampled checks: language vs the set-algebra shadow, persistence of
    old snapshots, enumeration correctness with tree-size bounds.
    """

    BUDGET = {"add": 1, "eps": 1, "union": 4, "prod": 5}

    def __init__(self, rng: random.Random, lang_every: int = 50, enum_every: int = 200):
        self.rng = rng
        self.arena = EcsArena()
        self.shadow = ShadowEcs(self.arena)
        self.pool: list[int] = []
        self.snapshots: list[tuple[int, frozenset]] = []
        self.counts = {"add": 0, "eps": 0, "union": 0, "prod": 0, "skipped": 0}
        self.ops_done = 0
        self.lang_every = lang_every
        self.enum_every = enum_every
        self._ref_depth: list[int] = []
        self._ref_reach: list[bool] = []
        self._ref_case: list[int] = []
        self._payload_counter = 0

    # recomputed-from-scratch columns, grown lazily
    def _grow_refs(self) -> None:
        from vptenum.ecs import EPS_UNION, EPSILON, IS_EPS, NO_EPS, PRODUCT, UNION

        a = self.arena
        other = 3  # epsilon in some shape the discipline forbids
        while len(self._ref_depth) < len(a):
            v = len(self._ref_depth)
            lab = a.label(v)
            if lab in (UNION, PRODUCT):
                left, right = a.lefts[v], a.rights[v]
                d = 1 + self._ref_depth[left] if lab == UNION else 0
                r = self._ref_reach[left] or self._ref_reach[right]
                cl, cr = self._ref_case[left], self._ref_case[right]
                if lab == UNION:
                    has_eps = cl != NO_EPS or cr != NO_EPS
                else:
                    has_eps = cl != NO_EPS and cr != NO_EPS
                if not has_eps:
                    c = NO_EPS
                elif lab == UNION and a.label(left) == EPSILON and cr == NO_EPS:
                    c = EPS_UNION
                else:
                    c = other
            elif lab == EPSILON:
                d, r, c = 0, True, IS_EPS
            else:
                d, r, c = 0, False, NO_EPS
            self._ref_depth.append(d)
            self._ref_reach.append(r)
            self._ref_case.append(c)

    def _pick_union_pair(self):
        for _ in range(8):
            v1 = self.rng.choice(self.pool)
            v2 = self.rng.choice(self.pool)
            l1, l2 = self.shadow.langs[v1], self.shadow.langs[v2]
            if len(l1) + len(l2) > 400:
                continue
            if self.shadow.union_ok(v1, v2):
                return v1, v2
        return None

    def _pick_prod_pair(self):
        for _ in range(8):
            v1 = self.rng.choice(self.pool)
            v2 = self.rng.choice(self.pool)
            l1, l2 = self.shadow.langs[v1], self.shadow.langs[v2]
            if len(l1) * len(l2) > 200:
                continue
            if self.shadow.prod_ok(v1, v2):
                return v1, v2
        return None

    def step(self) -> None:
        rng = self.rng
        before = len(self.arena)
        kind = rng.choices(("add", "eps", "union", "prod"), weights=(3, 1, 4, 4))[0]
        if kind == "add":
            self._payload_counter += 1
            v = self.shadow.add((f"s{self._payload_counter}", self._payload_counter))
        elif kind == "eps":
            v = self.shadow.epsilon()
        elif kind == "union":
            pair = self._pick_union_pair() if self.pool else None
            if pair is None:
                self.counts["skipped"] += 1
                return
            if rng.random() < 0.05:
                v = self.shadow_union_with_empty(pair[0])
            else:
                v = self.shadow.union(*pair)
        else:
            pair = self._pick_prod_pair() if self.pool else None
            if pair is None:
                self.counts["skipped"] += 1
                return
            if rng.random() < 0.05:
                v = self.arena.prod(pair[0], EMPTY)
                assert v == EMPTY, "prod with the empty set must be empty"
                self.counts["prod"] += 1
                self.ops_done += 1
                return
            v = self.shadow.prod(*pair)
        self.counts[kind] += 1
        self.ops_done += 1

        added = len(self.arena) - before
        assert added <= self.BUDGET[kind], (
            f"{kind} appended {added} nodes, budget {self.BUDGET[kind]}"
        )
        self._grow_refs()
        a = self.arena
        for u in range(before, len(a)):
            assert self._ref_depth[u] <= 2, f"node {u} breaks 2-boundedness"
            assert self._ref_depth[u] == a.output_depth(u), f"union depth wrong at {u}"
            assert self._ref_reach[u] == a.eps_leaf_reach(u), f"eps reach wrong at {u}"
            assert self._ref_case[u] == a.eps_case(u), f"eps case wrong at {u}"
        if v != EMPTY:
            assert a.is_safe(v), f"public handle {v} not safe"
            assert a.contains_epsilon(v) == (() in self.shadow.langs[v])
            self.pool.append(v)
            if len(self.pool) > 300:
                del self.pool[: len(self.pool) - 300]

        if self.ops_done % self.lang_every == 0 and self.pool:
            w = rng.choice(self.pool)
            assert a.debug_language(w) == self.shadow.langs[w]
            self.snapshots.append((w, self.shadow.langs[w]))
            old, lang = rng.choice(self.snapshots)
            assert a.debug_language(old) == lang, "persistence violated"
        if self.ops_done % self.enum_every == 0 and self.pool:
            self._check_enumeration(rng.choice(self.pool))

    def shadow_union_with_empty(self, v: int) -> int:
        got = self.arena.union(v, EMPTY)
        assert got == v, "union with the empty set must be the identity"
        got = self.arena.union(EMPTY, v)
        assert got == v
        return v

    def _check_enumeration(self, v: int) -> None:
        from vptenum.enumtree import Enumerator

        expect = self.shadow.langs[v]
        if len(expect) > 300:
            return
        en = Enumerator(self.arena, v, instrument=True)
        got = list(en)
        assert len(got) == len(set(got)), "enumeration repeated a word"
        assert set(got) == set(expect), "enumeration language mismatch"
        for size, plen in en.tree_sizes:
            assert size <= 4 * max(1, plen), (
                f"tree size {size} exceeds 4x output length {plen}"
            )

    def run(self, n_ops: int) -> dict:
        while self.ops_done < n_ops:
            self.step()
        return dict(self.counts)


# ------------------------------------------------------- token builders

def tok_open(name: str) -> Token:
    return Token(TokenKind.OPEN, name)


def tok_close(name: str) -> Token:
    return Token(TokenKind.CLOSE, name)


def tok_neutral(name: str) -> Token:
    return Token(TokenKind.NEUTRAL, name)


def brackets(text: str) -> list[Token]:
    """'(()).' style shorthand: ( opens, ) closes, . neutral."""
    out = []
    for ch in text:
        if ch == "(":
            out.append(tok_open("a"))
        elif ch == ")":
            out.append(tok_close("a"))
        elif ch == ".":
            out.append(tok_neutral("c"))
        else:
            raise ValueError(f"bad shorthand {ch!r}")
    return out


def random_well_nested(rng: random.Random, alphabet: StructuredAlphabet, length: int) -> list[Token]:
    """Uniform-ish random well-nested token sequence of exactly `length`
    letters (length must leave bracket parity satisfiable)."""
    opens = sorted(alphabet.opens)
    closes = sorted(alphabet.closes)
    neutrals = sorted(alphabet.neutrals)
    out: list[Token] = []
    depth = 0
    remaining = length
    while remaining > 0:
        moves = []
        if neutrals and remaining > depth:
            moves.append("n")
        if opens and remaining >= depth + 2:
            moves.append("o")
        if depth > 0:
            moves.append("c")
        move = rng.choice(moves)
        if move == "n":
            out.append(tok_neutral(rng.choice(neutrals)))
        elif move == "o":
            out.append(tok_open(rng.choice(opens)))
            depth += 1
        else:
            out.append(tok_close(rng.choice(closes)))
            depth -= 1
        remaining -= 1
    assert depth == 0 and is_well_nested(out)
    return out


# -------------------------------------------------- machine generators

def random_det_vpt(rng: random.Random, n_states: int = 4, n_trans: int = 12) -> Vpt:
    """Deterministic-by-construction transducer: transition keys
    (state, letter, output) never collide and there is one initial
    state, so every instance is safe for the engine's check mode."""
    states = [f"q{i}" for i in range(n_states)]
    alphabet = StructuredAlphabet(
        opens=frozenset({"a", "b"}),
        closes=frozenset({"a", "b"}),
        neutrals=frozenset({"c", "d"}),
    )
    stack = ["X", "Y"]
    outs = ["o", "p", None]
    opens, closes, neutrals = set(), set(), set()
    used = set()
    for _ in range(n_trans):
        kind = rng.choice(("open", "close", "neutral"))
        q = rng.choice(states)
        q2 = rng.choice(states)
        out = rng.choice(outs)
        if kind == "open":
            a = rng.choice(sorted(alphabet.opens))
            key = ("o", q, a, out)
            if key in used:
                continue
            used.add(key)
            opens.add((q, a, out, q2, rng.choice(stack)))
        elif kind == "close":
            a = rng.choice(sorted(alphabet.closes))
            x = rng.choice(stack)
            key = ("c", q, a, out, x)
            if key in used:
                continue
            used.add(key)
            closes.add((q, a, out, x, q2))
        else:
            a = rng.choice(sorted(alphabet.neutrals))
            key = ("n", q, a, out)
            if key in used:
                continue
            used.add(key)
            neutrals.add((q, a, out, q2))
    return Vpt(
        states=frozenset(states),
        alphabet=alphabet,
        stack_symbols=frozenset(stack),
        output_symbols=frozenset({"o", "p"}),
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(neutrals),
        initial=frozenset({states[0]}),
        final=frozenset(rng.sample(states, k=rng.randint(1, n_states))),
    )


def random_nondet_vpt(rng: random.Random, n_states: int = 4, n_trans: int = 12) -> Vpt:
    """No key discipline at all; useful for determinization tests."""
    states = [f"q{i}" for i in range(n_states)]
    alphabet = StructuredAlphabet(
        opens=frozenset({"a"}), closes=frozenset({"a"}), neutrals=frozenset({"c"})
    )
    stack = ["X", "Y"]
    outs = ["o", "p", None]
    opens, closes, neutrals = set(), set(), set()
    for _ in range(n_trans):
        kind = rng.choice(("open", "close", "neutral"))
        q, q2 = rng.choice(states), rng.choice(states)
        out = rng.choice(outs)
        if kind == "open":
            opens.add((q, "a", out, q2, rng.choice(stack)))
        elif kind == "close":
            closes.add((q, "a", out, rng.choice(stack), q2))
        else:
            neutrals.add((q, "c", out, q2))
    return Vpt(
        states=frozenset(states),
        alphabet=alphabet,
        stack_symbols=frozenset(stack),
        output_symbols=frozenset({"o", "p"}),
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(neutrals),
        initial=frozenset(rng.sample(states, k=rng.randint(1, 2))),
        final=frozenset(rng.sample(states, k=rng.randint(1, n_states))),
    )


def random_vpa(rng: random.Random, n_states: int = 5, n_trans: int = 12) -> Vpt:
    """Random acceptor: an output-free, usually nondeterministic Vpt."""
    states = [f"q{i}" for i in range(n_states)]
    alphabet = StructuredAlphabet(
        opens=frozenset({"a"}), closes=frozenset({"a"}), neutrals=frozenset({"c"})
    )
    stack = ["X", "Y"]
    opens, closes, neutrals = set(), set(), set()
    for _ in range(n_trans):
        kind = rng.choice(("open", "close", "neutral"))
        q, q2 = rng.choice(states), rng.choice(states)
        if kind == "open":
            opens.add((q, "a", None, q2, rng.choice(stack)))
        elif kind == "close":
            closes.add((q, "a", None, rng.choice(stack), q2))
        else:
            neutrals.add((q, "c", None, q2))
    return Vpt(
        states=frozenset(states),
        alphabet=alphabet,
        stack_symbols=frozenset(stack),
        output_symbols=frozenset(),
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(neutrals),
        initial=frozenset(rng.sample(states, k=rng.randint(1, 2))),
        final=frozenset(rng.sample(states, k=rng.randint(1, n_states))),
    )


def random_machines():
    """240 random machines, each as (i, machine, three random documents)."""
    rng = random.Random(71)
    makers = (random_det_vpt, random_nondet_vpt, random_vpa)
    for i in range(240):
        m = makers[i % 3](rng)
        yield i, m, [random_well_nested(rng, m.alphabet, rng.randint(0, 14)) for _ in range(3)]


def well_nested_pairs(vpa: Vpt) -> set:
    """Every (p, q) such that some well-nested word leads from p to q.

    Saturates the pair relation under neutral steps, concatenation and
    wrapping in an open-close pair that pushes and pops one symbol, one
    whole round at a time until a round adds nothing.
    """
    pairs = {(q, q) for q in vpa.states} | {(q, q2) for q, _, _, q2 in vpa.neutrals}
    while True:
        new = {(p, r) for p, q in pairs for q2, r in pairs if q == q2}
        new |= {
            (p, r)
            for p, _, _, p2, x in vpa.opens
            for q, _, _, y, r in vpa.closes
            if x == y and (p2, q) in pairs
        }
        if new <= pairs:
            return pairs
        pairs |= new


# ------------------------------------------------ runs by brute force

@dataclass(frozen=True)
class Run:
    """A complete run: n+1 states, per-position emission (None when
    silent) and per-position pushed stack symbol (None off opens)."""

    states: tuple
    outputs: tuple
    pushed: tuple


def out_of_run(run: Run, start: int = 1, end: int | None = None) -> OutputWord:
    """Positional output of run positions start..end (1-based, inclusive).

    A silent step contributes nothing, so a fully silent stretch gives
    the empty word rather than a word of placeholders.
    """
    if end is None:
        end = len(run.outputs)
    return tuple(
        (out, i)
        for i in range(start, end + 1)
        if (out := run.outputs[i - 1]) is not None
    )


def enumerate_runs(vpt: Vpt, tokens, max_runs: int | None = None) -> list[Run]:
    """All runs over the whole token sequence from initial states.

    Runs only need to survive to the end; acceptance is not required.
    Raises ResourceCapError past max_runs.
    """
    toks = list(tokens)
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    runs: list[Run] = []
    work = [(0, q, (), (q,), (), ()) for q in sorted(vpt.initial, key=repr)]
    while work:
        i, q, stack, seen, outs, pushed = work.pop()
        if i == len(toks):
            runs.append(Run(seen, outs, pushed))
            if max_runs is not None and len(runs) > max_runs:
                raise ResourceCapError(f"run enumeration exceeded {max_runs} runs")
            continue
        tok = toks[i]
        if tok.kind == TokenKind.OPEN:
            for out, q2, x in oidx.get(tok.name, NO_MOVES).get(q, ()):
                work.append((i + 1, q2, stack + (x,), seen + (q2,), outs + (out,), pushed + (x,)))
        elif tok.kind == TokenKind.CLOSE:
            if not stack:
                continue
            x = stack[-1]
            for out, q2 in cidx.get(tok.name, NO_MOVES).get((q, x), ()):
                work.append((i + 1, q2, stack[:-1], seen + (q2,), outs + (out,), pushed + (None,)))
        else:
            for out, q2 in nidx.get(tok.name, NO_MOVES).get(q, ()):
                work.append((i + 1, q2, stack, seen + (q2,), outs + (out,), pushed + (None,)))
    return runs


# ------------------------------------------------- recording observers

# Observers for ``engine.preprocess`` and ``reference_preprocess``: each
# is called after every token as observer(k, state, counts).


class PullCounter:
    """An iterator over ``items`` that counts the calls to its
    ``__next__``, the one that finds the end included."""

    def __init__(self, items):
        self._items = iter(items)
        self.pulls = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.pulls += 1
        return next(self._items)


class SymbolRecords(list):
    """The SymbolStats of every token, in order."""

    def __call__(self, k, state, counts) -> None:
        self.append(counts)


class Snapshots(list):
    """(table copy, list of frame copies) before the first token, taken
    from the initial state, and after every token."""

    def __init__(self, initial):
        super().__init__()
        self(0, initial, None)

    def __call__(self, k, state, counts) -> None:
        self.append((dict(state.table), [dict(f) for f in state.frames]))


class Checkpoints(list):
    """(position, depth, handle of the accepting slots) after every token."""

    def __init__(self, vpt: Vpt):
        super().__init__()
        self.vpt = vpt

    def __call__(self, k, state, counts) -> None:
        self.append((k, len(state.frames), state.accepting(self.vpt)))


# ------------------------------------------- engine table invariants

def table_languages(arena, table: dict) -> dict:
    out = {}
    for key, handle in table.items():
        assert handle != EMPTY, f"table stores the empty sentinel at {key}"
        words = list(enumerate_words(arena, handle))
        assert len(words) == len(set(words)), f"duplicate words in entry {key}"
        out[key] = frozenset(words)
    return out


def check_state_invariants(vpt: Vpt, tokens) -> None:
    """Compare every traced engine table against run-DFS groupings.

    At each position k the pair table must hold, per (state at the
    currlevel start, state at k), exactly the positional outputs of the
    partial runs over the whole prefix; the top stack frame likewise
    for the level below, keyed by the pushed symbol and including the
    opening transition's output. Frame contents are frozen at their
    open, so the frame comparison quantifies over runs up to that open
    only (a dead inner level kills prefix runs but not the frame).
    Assumes an I/O-deterministic vpt so entries are duplicate-free.
    """
    from vptenum.engine import EngineState, preprocess

    toks = list(tokens)
    trace = Snapshots(EngineState.initial(vpt))
    res = preprocess(vpt, toks, trace)
    arena = res.arena
    for k in range(1, len(toks) + 2):
        table, frames = trace[k - 1]
        runs = enumerate_runs(vpt, toks[: k - 1])
        j = currlevel(toks, k).start
        expect_s: dict = {}
        for run in runs:
            key = (run.states[j - 1], run.states[k - 1])
            expect_s.setdefault(key, set()).add(out_of_run(run, j, k - 1))
        got_s = table_languages(arena, table)
        assert got_s == {key: frozenset(v) for key, v in expect_s.items()}, (
            f"pair table off at position {k}"
        )
        low = lowerlevel(toks, k)
        if low is None:
            assert frames == [], f"frames must be empty at depth 0 (position {k})"
            continue
        assert frames, f"missing stack frame at position {k}"
        i = low.start
        expect_t: dict = {}
        for run in enumerate_runs(vpt, toks[: j - 1]):
            key = (run.states[i - 1], run.pushed[j - 2], run.states[j - 1])
            expect_t.setdefault(key, set()).add(out_of_run(run, i, j - 1))
        got_t = table_languages(arena, frames[-1])
        assert got_t == {key: frozenset(v) for key, v in expect_t.items()}, (
            f"stack frame off at position {k}"
        )


# ------------------------------- the dict-keyed pass, kept as reference

@dataclass
class ReferenceState:
    """The pass state of the dict-keyed pass: a {key: handle} pair
    table and a list of {key: handle} frames."""

    arena: EcsArena
    table: dict
    frames: list
    open_positions: list
    epsilon: int

    @classmethod
    def initial(cls, vpt: Vpt) -> "ReferenceState":
        arena = EcsArena()
        eps = arena.epsilon_node()
        table = {(q, q): eps for q in sorted(vpt.initial, key=stable_key)}
        return cls(arena=arena, table=table, frames=[], open_positions=[], epsilon=eps)

    def accepting(self, vpt: Vpt, stats: SymbolStats | None = None) -> int:
        stats = SymbolStats() if stats is None else stats
        arena = self.arena
        before = len(arena)
        root = EMPTY
        for (p, q), handle in self.table.items():
            if p in vpt.initial and q in vpt.final:
                stats.visits += 1
                root = arena.union(root, handle)
                stats.ecs_calls += 1
            else:
                stats.scans += 1
        stats.nodes_added += len(arena) - before
        return root


# Each step takes its letter's row of the transition index and returns
# its (visits, scans, arena calls). A visit extends the entry's handle
# by the move's output, if any, with a fresh symbol leaf (2 calls) and
# unions it into the new entry (1 call; a vacant entry just takes it,
# as a union with EMPTY would). Table handles are never EMPTY. The
# steps list their visits, and ``reference_fill`` builds the new table.


def reference_fill(state: ReferenceState, visited: list, k: int, grouped: bool = True) -> dict:
    """The new table from a step's visits (operands, out, key), in
    order. Operands are (name, handle) pairs, the name that of the
    source entry. A visit puts the product of its operands' handles,
    then the leaf (out, k) if out is given, into entry key, by a union
    if the entry is taken.

    Grouped, the visits that carry an output into the same key, and
    whose operands other than the epsilon leaf name the same entries,
    are one visit where the first of them stands: the union of their
    leaves under the product of those operands, as the compiled pass
    builds them. Ungrouped, every visit builds its own product."""
    arena, eps = state.arena, state.epsilon
    outs: dict = {}  # group -> the outputs of its visits
    groups = []
    for i, (operands, out, key) in enumerate(visited):
        group = None
        if out is not None:
            prefix = tuple(name for name, handle in operands if handle != eps)
            group = (prefix, key) if grouped else i
            outs.setdefault(group, []).append(out)
        groups.append(group)
    nxt: dict = {}
    for (operands, out, key), group in zip(visited, groups):
        if out is not None:
            group_outs = outs.pop(group, None)
            if group_outs is None:
                continue  # built with the first visit of its group
        v = operands[0][1]
        for _, handle in operands[1:]:
            v = arena.prod(v, handle)
        if out is not None:
            leaves = arena.add((group_outs[0], k))
            for o in group_outs[1:]:
                leaves = arena.union(leaves, arena.add((o, k)))
            v = arena.prod(v, leaves)
        old = nxt.get(key)
        nxt[key] = v if old is None else arena.union(old, v)
    return nxt


def reference_open_step(
    state: ReferenceState, moves, k: int, grouped: bool = True
) -> tuple[int, int, int]:
    """Consume an open letter: stash the level summary, seed a new level."""
    visits = scans = calls = 0
    visited = []
    seed: dict = {}
    for (p, p2), handle in state.table.items():
        rules = moves.get(p2)
        if not rules:
            scans += 1
            continue
        for out, q2, x in rules:
            visits += 1
            calls += 1 if out is None else 3
            visited.append(((((p, p2), handle),), out, (p, x, q2)))
            seed[(q2, q2)] = state.epsilon
    state.frames.append(reference_fill(state, visited, k, grouped))
    state.open_positions.append(k)
    state.table = seed
    return visits, scans, calls


def reference_close_step(
    state: ReferenceState, moves, k: int, grouped: bool = True
) -> tuple[int, int, int]:
    """Consume a close letter: fold the finished level into the saved one."""
    if not state.frames:
        raise NestingError(f"unbalanced close at position {k}")
    summary = state.frames.pop()
    state.open_positions.pop()
    visits = scans = calls = 0
    by_first: dict = {}
    for (p2, q2), handle in state.table.items():
        by_first.setdefault(p2, []).append((q2, handle))
    visited = []
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
                operands = (("summary", (p, x, p2)), upper), (("level", (p2, q2)), lower)
                visited.append((operands, out, (p, q3)))
    state.table = reference_fill(state, visited, k, grouped)
    return visits, scans, calls


def reference_neutral_step(
    state: ReferenceState, moves, k: int, grouped: bool = True
) -> tuple[int, int, int]:
    """Consume a neutral letter: extend the level in place, stack untouched."""
    visits = scans = calls = 0
    visited = []
    for (p, q), handle in state.table.items():
        rules = moves.get(q)
        if not rules:
            scans += 1
            continue
        for out, q2 in rules:
            visits += 1
            calls += 1 if out is None else 3
            visited.append(((((p, q), handle),), out, (p, q2)))
    state.table = reference_fill(state, visited, k, grouped)
    return visits, scans, calls


def reference_preprocess(vpt: Vpt, tokens, observer=None, grouped: bool = True) -> PreprocessResult:
    """The single pass over {key: handle} dicts, each step a loop over
    the table's keys: the reference that the compiled pass of
    ``engine.preprocess`` is tested against. Same arguments and result;
    ``stats.plans`` stays 0. ``grouped=False`` builds every output under
    its own product, as the compiled pass did before it merged sibling
    outputs (see ``reference_fill``)."""
    state = ReferenceState.initial(vpt)
    oidx, cidx, nidx = vpt.open_index, vpt.close_index, vpt.neutral_index
    nodes = state.arena.kinds
    stats = EngineStats()

    k = 0
    for tok in tokens:
        k += 1
        before = len(nodes)
        kind = tok.kind
        if kind is TokenKind.NEUTRAL:
            step, index = reference_neutral_step, nidx
        elif kind is TokenKind.OPEN:
            step, index = reference_open_step, oidx
        else:
            step, index = reference_close_step, cidx
        visits, scans, calls = step(state, index.get(tok.name, NO_MOVES), k, grouped)
        added = len(nodes) - before
        stats.visits += visits
        stats.scans += scans
        stats.ecs_calls += calls
        stats.nodes_added += added
        if observer is not None:
            observer(k, state, SymbolStats(visits, scans, calls, added))
    stats.pulls = k + 1  # one pull per token plus the one that found the end
    if state.frames:
        raise NestingError(f"unbalanced open at position {state.open_positions[0]}")
    root = state.accepting(vpt, stats.finalize)
    stats.add(stats.finalize)
    return PreprocessResult(arena=state.arena, root=root, stats=stats, length=k)


# ------------------------------------- neutral-step expansion reduction

def expand_neutrals(vpt: Vpt) -> Vpt:
    """Replace every neutral transition by an open/close pair through a
    dedicated middle state, output riding on the open."""
    opens = set(vpt.opens)
    closes = set(vpt.closes)
    states = set(vpt.states)
    stack = set(vpt.stack_symbols)
    open_names = set(vpt.alphabet.opens)
    close_names = set(vpt.alphabet.closes)
    for i, (q, a, out, q2) in enumerate(sorted(vpt.neutrals, key=repr)):
        mid = f"m{i}"
        assert mid not in states
        states.add(mid)
        sym = f"Z{i}"
        stack.add(sym)
        oname, cname = f"{a}__o", f"{a}__c"
        open_names.add(oname)
        close_names.add(cname)
        opens.add((q, oname, out, mid, sym))
        closes.add((mid, cname, None, sym, q2))
    alphabet = StructuredAlphabet(
        opens=frozenset(open_names),
        closes=frozenset(close_names),
        neutrals=frozenset(),
    )
    return Vpt(
        states=frozenset(states),
        alphabet=alphabet,
        stack_symbols=frozenset(stack),
        output_symbols=vpt.output_symbols,
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(),
        initial=vpt.initial,
        final=vpt.final,
    )


def expand_document(tokens) -> tuple[list[Token], dict[int, int]]:
    """Expanded document plus map original position -> expanded position
    (neutrals map to their replacing open)."""
    out: list[Token] = []
    posmap: dict[int, int] = {}
    for k, tok in enumerate(tokens, start=1):
        if tok.kind == TokenKind.NEUTRAL:
            posmap[k] = len(out) + 1
            out.append(tok_open(f"{tok.name}__o"))
            out.append(tok_close(f"{tok.name}__c"))
        else:
            posmap[k] = len(out) + 1
            out.append(tok)
    return out, posmap


def contract_word(word, posmap_inv: dict[int, int]):
    return tuple((sym, posmap_inv[pos]) for sym, pos in word)


# --------------------------------------------------- ref-word semantics

# Capture any <a ...> element at any depth, one mapping per element:
# the grammar of the benchmark's tree workload. Its compilation is not
# deterministic in (letter, output), so it runs determinized.
TREE_VPEG = """\
var x
start N
N -> c N | <a N a> D | <a D a> N | (x E
E -> <a D a> F
F -> x) D
D -> c D | <a D a> D | eps
"""


def tree_document(rng: random.Random, length: int, depth_cap: int) -> list[Token]:
    """A random <a / a> / c document that drifts down to depth_cap,
    closed at the end and followed by the spanner's end marker."""
    tokens, depth = [], 0
    for _ in range(length):
        r = rng.random()
        if r < 0.4 and depth < depth_cap:
            tokens.append(tok_open("a"))
            depth += 1
        elif 0.4 <= r < 0.7 and depth > 0:
            tokens.append(tok_close("a"))
            depth -= 1
        else:
            tokens.append(tok_neutral("c"))
    tokens += [tok_close("a")] * depth
    tokens.append(Token(TokenKind.NEUTRAL, END_MARKER))
    return tokens


def grammar_mappings(vpeg: Vpeg, doc) -> frozenset:
    """Span assignments by direct derivation search over the grammar.

    Walks every derivation whose document letters spell out doc; marker
    runs are capped at 2|X| in a row so marker-only cycles terminate
    (longer runs repeat a marker and decode to nothing anyway).
    """
    toks = list(doc)
    n = len(toks)
    by_head: dict[str, list] = {}
    for p in vpeg.productions:
        by_head.setdefault(p.head, []).append(p)
    cap = 2 * len(vpeg.variables)

    def derive(head: str, i: int, streak: int):
        # yields (next position index, marker tuple ((marker, pos), ...))
        for p in by_head.get(head, ()):
            if isinstance(p, EpsProduction):
                yield i, ()
            elif isinstance(p, ChainProduction):
                if p.is_marker:
                    if streak >= cap:
                        continue
                    for j, ms in derive(p.tail, i, streak + 1):
                        yield j, ((p.sym, i + 1),) + ms
                else:
                    if i < n and toks[i].kind == TokenKind.NEUTRAL and toks[i].name == p.sym:
                        yield from derive(p.tail, i + 1, 0)
            else:
                if i < n and toks[i].kind == TokenKind.OPEN and toks[i].name == p.letter:
                    for j, ms1 in derive(p.inner, i + 1, 0):
                        if j < n and toks[j].kind == TokenKind.CLOSE and toks[j].name == p.letter:
                            for k2, ms2 in derive(p.tail, j + 1, 0):
                                yield k2, ms1 + ms2

    mappings = set()
    for end, markers in derive(vpeg.start, 0, 0):
        if end != n:
            continue
        starts: dict[str, int] = {}
        ends: dict[str, int] = {}
        valid = True
        for marker, pos in markers:
            var = marker[1:]
            if marker == open_marker(var):
                if var in starts or var in ends:
                    valid = False
                    break
                starts[var] = pos
            else:
                if var not in starts or var in ends:
                    valid = False
                    break
                ends[var] = pos
        if not valid:
            continue
        if set(starts) != set(vpeg.variables) or set(ends) != set(vpeg.variables):
            continue
        mappings.add(
            tuple(sorted((x, (starts[x], ends[x])) for x in vpeg.variables))
        )
    return frozenset(mappings)


def random_vpeg(rng: random.Random, n_vars: int = 2) -> Vpeg:
    """Functional grammar built from a derivation spine.

    Each variable's markers sit at fixed positions of one spine (top
    level or inside one bracket segment), so every complete derivation
    places every marker exactly once: functional by construction.
    Branches use distinct letters and loops exit on a different letter,
    keeping the grammar unambiguous.
    """
    variables = [f"x{i}" for i in range(n_vars)] if n_vars else []
    letters = ["c", "d", "e"]
    counter = [0]
    productions: list = []

    def fresh() -> str:
        counter[0] += 1
        return f"N{counter[0]}"

    def build_spine(head: str, markers: list[str], depth: int) -> None:
        # consume a random spine of segments, placing `markers` in order
        current = head
        segments = rng.randint(1, 3) + len(markers)
        marker_slots = sorted(rng.sample(range(segments), k=len(markers)))
        slot_of = {s: m for s, m in zip(marker_slots, markers)}
        for seg in range(segments):
            nxt = fresh()
            if seg in slot_of:
                productions.append(ChainProduction(current, slot_of[seg], True, nxt))
            else:
                choice = rng.random()
                if choice < 0.45 or depth >= 2:
                    letter = rng.choice(letters)
                    productions.append(ChainProduction(current, letter, False, nxt))
                    if rng.random() < 0.3:
                        # optional loop; exit letter differs by choice below
                        loop_letter = rng.choice([l for l in letters if l != letter])
                        productions.append(ChainProduction(current, loop_letter, False, current))
                elif choice < 0.7:
                    a, b = rng.sample(letters, k=2)
                    productions.append(ChainProduction(current, a, False, nxt))
                    productions.append(ChainProduction(current, b, False, nxt))
                else:
                    inner = fresh()
                    productions.append(NestProduction(current, "g", inner, nxt))
                    build_spine(inner, [], depth + 1)
            current = nxt
        productions.append(EpsProduction(current))

    start = "S"
    counter[0] = 0
    spine_markers: list[str] = []
    for x in variables:
        spine_markers.append(open_marker(x))
        spine_markers.append(close_marker(x))
    # keep marker order sane: interleave open/close per variable randomly
    # but never close before opening
    order: list[str] = []
    pending: list[str] = []
    for x in variables:
        order.append(open_marker(x))
        pending.append(close_marker(x))
        if rng.random() < 0.5:
            order.append(pending.pop())
    order.extend(reversed(pending))
    build_spine(start, order, 0)

    heads = {p.head for p in productions}
    opens = {p.letter for p in productions if isinstance(p, NestProduction)}
    neutrals = {
        p.sym
        for p in productions
        if isinstance(p, ChainProduction) and not p.is_marker
    }
    return Vpeg(
        variables=frozenset(variables),
        nonterminals=frozenset(heads),
        alphabet=StructuredAlphabet(
            opens=frozenset(opens), closes=frozenset(opens), neutrals=frozenset(neutrals)
        ),
        start=start,
        productions=tuple(productions),
    )


def enumerate_refwords(vpeg: Vpeg, max_len: int) -> list:
    """Every ref-word of length <= max_len, one entry per derivation.

    Ref-words come back as tuples of ("o"/"c"/"n"/"m", symbol) items
    (markers tagged "m"). Duplicates in the result witness two distinct
    derivations of the same ref-word, i.e. ambiguity. Terminates
    because every production shape consumes at least one ref-word
    symbol except direct erasure.
    """
    by_head: dict[str, list] = {}
    for p in vpeg.productions:
        by_head.setdefault(p.head, []).append(p)

    def derive(head: str, budget: int):
        for p in by_head.get(head, ()):
            if isinstance(p, EpsProduction):
                yield ()
            elif isinstance(p, ChainProduction):
                if budget <= 0:
                    continue
                item = ("m" if p.is_marker else "n", p.sym)
                for rest in derive(p.tail, budget - 1):
                    yield (item,) + rest
            else:
                if budget <= 1:
                    continue
                for inner in derive(p.inner, budget - 2):
                    for rest in derive(p.tail, budget - 2 - len(inner)):
                        yield (
                            (("o", p.letter),)
                            + inner
                            + (("c", p.letter),)
                            + rest
                        )

    return list(derive(vpeg.start, max_len))


def markers_as_letters(vpeg: Vpeg) -> Vpeg:
    """The same grammar with every capture marker demoted to a plain
    neutral letter (and no variables), so derivation search over it
    doubles as a ref-word membership oracle."""
    prods = []
    marker_syms = set()
    for p in vpeg.productions:
        if isinstance(p, ChainProduction) and p.is_marker:
            marker_syms.add(p.sym)
            prods.append(ChainProduction(p.head, p.sym, False, p.tail))
        else:
            prods.append(p)
    return Vpeg(
        variables=frozenset(),
        nonterminals=vpeg.nonterminals,
        alphabet=StructuredAlphabet(
            opens=vpeg.alphabet.opens,
            closes=vpeg.alphabet.closes,
            neutrals=frozenset(vpeg.alphabet.neutrals | marker_syms),
        ),
        start=vpeg.start,
        productions=tuple(prods),
    )


def random_tiny_vpeg(rng: random.Random, n_vars: int = 2) -> Vpeg:
    """Unfiltered random grammar over at most 4 nonterminals; most draws
    are not functional or not unambiguous, callers filter."""
    variables = [f"x{i}" for i in range(n_vars)]
    marker_pool = [
        m for x in variables for m in (open_marker(x), close_marker(x))
    ]
    nts = ["S", "A", "B", "C"][: rng.randint(2, 4)]
    letters = ["c", "d"]
    prods: dict = {}
    for head in nts:
        for _ in range(rng.randint(1, 2)):
            r = rng.random()
            if r < 0.22:
                p = EpsProduction(head)
            elif r < 0.5:
                p = ChainProduction(head, rng.choice(letters), False, rng.choice(nts))
            elif marker_pool and r < 0.82:
                p = ChainProduction(head, rng.choice(marker_pool), True, rng.choice(nts))
            else:
                p = NestProduction(head, "g", rng.choice(nts), rng.choice(nts))
            prods[p] = None  # dedupe, keep draw order
    return Vpeg(
        variables=frozenset(variables),
        nonterminals=frozenset(nts),
        alphabet=StructuredAlphabet(
            opens=frozenset({"g"}),
            closes=frozenset({"g"}),
            neutrals=frozenset(letters),
        ),
        start="S",
        productions=tuple(prods),
    )


def random_functional_vpeg(rng: random.Random, n_vars: int = 2, ambiguity_window: int = 8) -> Vpeg:
    """Rejection-sample tiny grammars until one is functional, compiles,
    is unambiguous on every ref-word up to ambiguity_window, and accepts
    at least one ref-word that short."""
    from vptenum.spanner import (
        GrammarError,
        NotFunctionalError,
        check_functional,
        evpa_to_vpt,
        to_evpa,
    )
    from vptenum.vpt import ResourceCapError

    for _ in range(20_000):
        vpeg = random_tiny_vpeg(rng, n_vars)
        try:
            evpa = to_evpa(vpeg)
            check_functional(evpa, vpeg.variables)
            evpa_to_vpt(evpa, vpeg.variables)
        except (NotFunctionalError, GrammarError, ResourceCapError):
            continue
        words = enumerate_refwords(vpeg, ambiguity_window)
        if not words or len(words) != len(set(words)):
            continue
        return vpeg
    raise RuntimeError("no functional unambiguous grammar found")


def reference_check_functional(evpa: Vpt, variables) -> None:
    """The functionality check over book vectors of all the variables
    at once: the reference that `spanner.check_functional`, which checks
    one variable at a time, is tested against.

    Reject unless every accepted ref-word opens and closes every
    variable exactly once, start before end.

    Runs `level_reach` over pairs of an acceptor state and the books:
    one status per variable (0 unopened, 1 open, 2 closed), or None
    once a marker repeats or comes out of order. A marker steps the
    books as it is read; opens and closes carry them unchanged into
    and out of the inner level. Every accepting state that the initial
    level reaches must hold all-closed books. Poisoned books are
    reported first, else the unassigned variables of the smallest bad
    book vector, so the message does not depend on set order.
    """
    xs = sorted(variables)
    steps = {}
    for i, x in enumerate(xs):
        steps[open_marker(x)] = (i, 0, 1)
        steps[close_marker(x)] = (i, 1, 2)
    clean = (0,) * len(xs)
    done = (2,) * len(xs)

    def bump(books, a):
        step = steps.get(a)
        if step is None or books is None:
            return books
        i, before, after = step
        if books[i] != before:
            return None
        return books[:i] + (after,) + books[i + 1 :]

    nidx, oidx, cidx = evpa.neutral_index, evpa.open_index, evpa.close_index

    def neutral(state):
        q, books = state
        return [(q2, bump(books, a)) for a, row in nidx.items() for _, q2 in row.get(q, ())]

    def opens(state):
        q, books = state
        return [((q2, books), x) for row in oidx.values() for _, q2, x in row.get(q, ())]

    def closes(state, x):
        q, books = state
        return [(q2, books) for row in cidx.values() for _, q2 in row.get((q, x), ())]

    initial = [(q0, clean) for q0 in evpa.initial]
    reach = level_reach(initial, neutral, opens, closes)
    bad = {
        books
        for entry in initial
        for q, books in reach[entry]
        if q in evpa.final and books != done
    }
    if None in bad:
        raise NotFunctionalError(
            "grammar not functional: some accepted ref-word "
            "repeats or misorders a capture"
        )
    if bad:
        books = min(bad)
        missing = [x for i, x in enumerate(xs) if books[i] != 2]
        raise NotFunctionalError(
            "grammar not functional: some accepted ref-word leaves "
            f"variable(s) {', '.join(missing)} unassigned"
        )


def random_doc_for_vpeg(rng: random.Random, vpeg: Vpeg, max_len: int):
    """A document the grammar might accept: random derivation truncated
    to None when it overruns max_len (caller retries)."""
    by_head: dict[str, list] = {}
    for p in vpeg.productions:
        by_head.setdefault(p.head, []).append(p)
    doc: list[Token] = []

    def walk(head: str, budget: int) -> int:
        # returns remaining budget or -1 on overrun
        options = by_head[head]
        p = rng.choice(options)
        if isinstance(p, EpsProduction):
            return budget
        if isinstance(p, ChainProduction):
            if p.is_marker:
                return walk(p.tail, budget)
            if budget <= 0:
                return -1
            doc.append(tok_neutral(p.sym))
            return walk(p.tail, budget - 1)
        if budget <= 1:
            return -1
        doc.append(tok_open(p.letter))
        rem = walk(p.inner, budget - 2)
        if rem < 0:
            return -1
        doc.append(tok_close(p.letter))
        rem2 = walk(p.tail, rem)
        return rem2

    for _ in range(60):
        doc.clear()
        if walk(vpeg.start, max_len) >= 0:
            return list(doc)
    return None
