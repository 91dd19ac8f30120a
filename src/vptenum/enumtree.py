"""Output-linear-delay enumeration of an arena node's language.

The enumerator walks the sequence of output trees of a node. An output
tree witnesses one way to produce a word: union nodes pick one child,
product nodes take both. Trees are kept left-tilted (a union node whose
pick is the right child is bypassed entirely), which keeps every tree
within a constant factor of the length of the word it prints.

Advancing from one tree to the next costs time proportional to the two
tree sizes. On top of that raw stream sits a smoothing buffer: each
word is held back while the search for its successor runs, and is
released after a fixed multiple of its own length in unit steps. That
caps the gap in front of every emission at a constant times the length
of the emitted word, independent of arena size.

All machines below are explicit-stack loops rather than recursion, so
tree depth is bounded only by memory.
"""

from __future__ import annotations

from typing import Iterator

from vptenum.ecs import EMPTY, EPS_UNION, EPSILON, IS_EPS, PRODUCT, SYMBOL, UNION, EcsArena

OutputWord = tuple  # tuple of (symbol, position) pairs; () is the empty word

DEFAULT_SMOOTHING = 4


class OutputTree:
    """Mutable tree over arena handles.

    A leaf has no children; a union tree has only ``left`` (its single
    child); a product tree has both.
    """

    __slots__ = ("node", "left", "right")

    def __init__(self, node: int, left: "OutputTree | None" = None, right: "OutputTree | None" = None):
        self.node = node
        self.left = left
        self.right = right

    def size(self) -> int:
        n, stack = 0, [self]
        while stack:
            t = stack.pop()
            n += 1
            if t.left is not None:
                stack.append(t.left)
            if t.right is not None:
                stack.append(t.right)
        return n


def _stepped_build(arena: EcsArena, v: int):
    """Unit-step generator building the first output tree rooted at v.

    Yields once per materialized tree node; the finished tree is the
    generator's return value. Union nodes descend left, products both.
    """
    labels, lefts, rights = arena.labels, arena.lefts, arena.rights
    root = OutputTree(v)
    stack = [root]
    while stack:
        yield
        t = stack.pop()
        lab = labels[t.node]
        if lab == UNION:
            t.left = OutputTree(lefts[t.node])
            stack.append(t.left)
        elif lab == PRODUCT:
            t.left = OutputTree(lefts[t.node])
            t.right = OutputTree(rights[t.node])
            stack.append(t.right)
            stack.append(t.left)
    return root


_CALL, _AFTER_RIGHT, _AFTER_LEFT, _AFTER_CHILD = range(4)


def _stepped_next(arena: EcsArena, tree: OutputTree):
    """Unit-step generator advancing a left-tilted tree in place.

    Returns the advanced tree, or None when the sequence is exhausted.
    Products advance their right subtree first, then their left (with
    the right rebuilt from scratch); a union whose child is exhausted
    is replaced by the first tree of its right alternative, which is
    what keeps the result left-tilted.
    """
    labels, rights = arena.labels, arena.rights
    stack: list[tuple[OutputTree, int]] = [(tree, _CALL)]
    result: OutputTree | None = None
    while stack:
        t, stage = stack.pop()
        if stage == _CALL:
            yield
            lab = labels[t.node]
            if lab == PRODUCT:
                stack.append((t, _AFTER_RIGHT))
                stack.append((t.right, _CALL))
            elif lab == UNION:
                stack.append((t, _AFTER_CHILD))
                stack.append((t.left, _CALL))
            else:
                result = None  # a leaf has no successor
        elif stage == _AFTER_RIGHT:
            if result is not None:
                t.right = result
                result = t
            else:
                stack.append((t, _AFTER_LEFT))
                stack.append((t.left, _CALL))
        elif stage == _AFTER_LEFT:
            if result is None:
                continue  # both subtrees exhausted: t itself is exhausted
            t.left = result
            builder = _stepped_build(arena, rights[t.node])
            while True:
                try:
                    next(builder)
                    yield
                except StopIteration as fin:
                    t.right = fin.value
                    break
            result = t
        else:  # _AFTER_CHILD
            if result is not None:
                t.left = result
                result = t
            else:
                builder = _stepped_build(arena, rights[t.node])
                while True:
                    try:
                        next(builder)
                        yield
                    except StopIteration as fin:
                        result = fin.value
                        break
    return result


def _stepped_print(arena: EcsArena, tree: OutputTree):
    """Unit-step generator collecting the tree's word left to right."""
    payloads = arena.payloads
    out: list = []
    stack = [tree]
    while stack:
        yield
        t = stack.pop()
        if t.left is None:
            pl = payloads[t.node]
            if pl is not None:
                out.append(pl)
        elif t.right is None:
            stack.append(t.left)
        else:
            stack.append(t.right)
            stack.append(t.left)
    return tuple(out)


def _drain(gen) -> object:
    while True:
        try:
            next(gen)
        except StopIteration as fin:
            return fin.value


def build_tree(arena: EcsArena, v: int) -> OutputTree:
    """First output tree rooted at v (unions take their left child)."""
    return _drain(_stepped_build(arena, v))


def next_tree(arena: EcsArena, tree: OutputTree) -> OutputTree | None:
    """Advance to the next left-tilted tree, or None when exhausted."""
    return _drain(_stepped_next(arena, tree))


def print_tree(arena: EcsArena, tree: OutputTree) -> OutputWord:
    """Left-to-right leaf payloads; epsilon leaves contribute nothing."""
    return _drain(_stepped_print(arena, tree))


class Enumerator:
    """Streams L(v) once per word, with smoothing and instrumentation.

    ``gaps`` records, per emission, the pair (unit steps since the
    previous emission, emitted length counting the empty word as 1);
    ``tree_sizes`` records (tree size, printed length) per underlying
    tree when instrumentation is on.
    """

    def __init__(
        self,
        arena: EcsArena,
        v: int,
        smoothing: int = DEFAULT_SMOOTHING,
        instrument: bool = False,
    ):
        self.arena = arena
        self.root = v
        self.smoothing = max(1, smoothing)
        self.instrument = instrument
        self.steps = 0
        self.emitted = 0
        self.gaps: list[tuple[int, int]] = []
        self.tree_sizes: list[tuple[int, int]] = []
        self._last_emit_steps = 0

    def _tick(self) -> None:
        self.steps += 1

    def _note_emit(self, word: OutputWord) -> None:
        self.emitted += 1
        if self.instrument:
            self.gaps.append((self.steps - self._last_emit_steps, max(1, len(word))))
        self._last_emit_steps = self.steps

    def _raw_words(self, v: int):
        """Yield None per unit step and a nonempty tuple per found word."""
        arena = self.arena
        gen = _stepped_build(arena, v)
        while True:
            tree = None
            while True:
                try:
                    next(gen)
                    self._tick()
                    yield None
                except StopIteration as fin:
                    tree = fin.value
                    break
            if tree is None:
                return
            printer = _stepped_print(arena, tree)
            while True:
                try:
                    next(printer)
                    self._tick()
                    yield None
                except StopIteration as fin:
                    word = fin.value
                    break
            if self.instrument:
                self.tree_sizes.append((tree.size(), len(word)))
            yield word
            gen = _stepped_next(arena, tree)

    def _smoothed(self, v: int) -> Iterator[OutputWord]:
        pending: OutputWord | None = None
        budget = 0
        for item in self._raw_words(v):
            if item is None:
                if pending is not None:
                    budget -= 1
                    if budget <= 0:
                        self._note_emit(pending)
                        yield pending
                        pending = None
            else:
                if pending is not None:
                    # successor arrived early; release the held word now
                    self._note_emit(pending)
                    yield pending
                pending = item
                budget = self.smoothing * len(item)
        if pending is not None:
            self._note_emit(pending)
            yield pending

    def __iter__(self) -> Iterator[OutputWord]:
        v = self.root
        if v == EMPTY:
            return
        case = self.arena.eps_cases[v]
        if case == IS_EPS:
            self._tick()
            self._note_emit(())
            yield ()
            return
        if case == EPS_UNION:
            # the empty word first, then the epsilon-free remainder
            self._tick()
            self._note_emit(())
            yield ()
            v = self.arena.rights[v]
        yield from self._smoothed(v)


def enumerate_words(
    arena: EcsArena,
    v: int,
    smoothing: int = DEFAULT_SMOOTHING,
) -> Iterator[OutputWord]:
    """Enumerate L(v) with no repetitions; the sentinel yields nothing."""
    return iter(Enumerator(arena, v, smoothing=smoothing))
