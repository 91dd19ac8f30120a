"""Output-linear-delay enumeration of an arena node's language.

A word of L(v) is witnessed by an output tree: a union node picks one
child, a product takes both. The enumerator keeps only the skeleton of
that tree. The empty word of an epsilon leaf or epsilon-union root is
emitted first; below that the arena is epsilon-free. A skeleton node
holds a non-union arena node (a product or a symbol leaf), its two
child skeleton nodes when it is a product, and its owner: the nearest
ancestor whose right subtree comes next in pre-order.

* Build from an arena node follows ``lefts`` while the node is a union
  and records each union as pending: the walk went left there and the
  right child is still to be explored. The arena keeps every left
  union depth at most 2, so this is O(1). A product gets two child
  nodes; a leaf appends its payload to the word.
* The pending unions of one node form the union stack of its region,
  deepest last. All regions share one stack, in the pre-order of their
  nodes, because builds run in pre-order. Its top is therefore what a
  right-first search of the skeleton would find: the deepest pending
  union of the last node in pre-order with anything pending. Every
  node after that one is exhausted.
* Advance pops the top union u of node t, rebuilds t in place from the
  right child of u, then rebuilds the right subtree of t's owner, of
  that subtree's owner, and so on up to the root. Nodes before t in
  pre-order are kept, and so is the word they printed: it is cut back
  to the symbols before t, and the builds append the rest. The kept
  length is the word's ``last_cut``: a printer can keep the text of
  those symbols and format only the new suffix.

The deepest pending union switches right first, which is the order of
the left-first walk over output trees. A word of k symbols has a
skeleton of 2k - 1 nodes, and advancing touches only rebuilt nodes, so
the work between two words is linear in the new word, whatever the
nesting depth of the document or the history of the arena.

Build, climb (to the next owner), word output and advance are the
operations of one loop. The next operation is held in locals, and so is
the one climb waiting for the subtree in hand to be built: every build
deferred since that climb started lies inside its subtree. Only those
deferred builds, the right children of products, go on an explicit
stack, so tree depth is bounded only by memory. One unit step is one
operation the loop carries out, whether or not it waited on the stack;
each does O(1) work besides copying the finished word out. A word is
yielded as soon as its skeleton is complete. From one word to the next
the loop takes one advance, one word step, and builds and climbs that
come to two per new symbol (there is at least one), so the gap in front
of a word is at most 2 * max(1, new symbols) + 2 unit steps.
"""

from __future__ import annotations

from collections.abc import Iterator

from vptenum.ecs import EMPTY, EPS_LEAF, EPS_UNION_NODE, PRODUCT, UNION, EcsArena
from vptenum.vpt import OutputWord


class Enumerator:
    """Streams L(v) once per word, with instrumentation.

    ``last_gap`` is, after each emission, the pair (unit steps since
    the previous emission, emitted length counting the empty word as 1);
    ``last_cut`` is the number of leading symbols the emitted word
    shares with the previous one, as kept by the advance that found it
    (0 for the empty word and the first epsilon-free word);
    ``gaps`` records every such pair and ``tree_sizes`` records
    (skeleton nodes, word length) per word found when instrumentation
    is on.
    """

    def __init__(self, arena: EcsArena, v: int, instrument: bool = False):
        self.arena = arena
        self.root = v
        self.instrument = instrument
        self.steps = 0
        self.last_gap: tuple[int, int] | None = None
        self.last_cut = 0
        self.gaps: list[tuple[int, int]] = []
        self.tree_sizes: list[tuple[int, int]] = []

    def _note_emit(self, word: OutputWord, steps: int, cut: int) -> None:
        # self.steps holds the step count of the previous emission
        self.last_gap = gap = (steps - self.steps, len(word) or 1)
        self.last_cut = cut
        self.steps = steps
        if self.instrument:
            self.gaps.append(gap)

    def __iter__(self) -> Iterator[OutputWord]:
        arena = self.arena
        v = self.root
        if v == EMPTY:
            return
        kind = arena.kinds[v]
        if kind == EPS_LEAF or kind == EPS_UNION_NODE:
            # the empty word first, then the epsilon-free remainder
            self._note_emit((), self.steps + 1, 0)
            yield ()
            if kind == EPS_LEAF:
                return
            v = arena.rights[v]

        # below here every node is an epsilon-free union, product or
        # symbol leaf, and a symbol leaf's payload sits in ``lefts``
        kinds, lefts, rights = arena.kinds, arena.lefts, arena.rights
        instrument, tree_sizes = self.instrument, self.tree_sizes
        root = [v, None, None, None]  # a skeleton node: [arena node, left, right, owner]
        stack: list[list] = []  # right children whose builds are deferred
        push, pop = stack.append, stack.pop
        # (skeleton node, union, skeleton nodes before it, symbols before it)
        pending: list[tuple[list, int, int, int]] = []
        out: list = []  # the word printed by the skeleton built so far
        nodes = cut = 0  # cut: symbols the next word keeps of its predecessor
        steps = self.steps
        # the loop's operations, and the labels it tests, as locals: the
        # loop reads them every step
        BUILD, CLIMB, WORD, ADVANCE = range(4)
        union, product = UNION, PRODUCT
        # the next operation, on node t; climb is the node to climb from
        # once the stack is empty, that is once its subtree is built
        op, t, climb = BUILD, root, root
        while True:
            steps += 1
            if op == BUILD:
                u = t[0]
                kind = kinds[u]
                if kind == union:
                    before = len(out)
                    while kind == union:
                        pending.append((t, u, nodes, before))
                        u = lefts[u]
                        kind = kinds[u]
                    t[0] = u
                nodes += 1
                if kind == product:
                    left, right = t[1], t[2]
                    if left is None:
                        # reused children are exhausted: nothing of theirs is pending
                        left = t[1] = [0, None, None, t]
                        right = t[2] = [0, None, None, t[3]]
                    left[0], right[0] = lefts[u], rights[u]
                    push(right)
                    t = left
                else:
                    t[1] = t[2] = None
                    out.append(lefts[u])
                    if stack:
                        t = pop()
                    else:
                        op, t = CLIMB, climb
            elif op == CLIMB:
                owner = t[3]
                if owner is None:
                    op = WORD
                else:
                    t = climb = owner[2]
                    t[0] = rights[owner[0]]
                    op = BUILD
            elif op == WORD:  # the skeleton is complete
                word = tuple(out)
                if instrument:
                    tree_sizes.append((nodes, len(word)))
                self._note_emit(word, steps, cut)
                yield word
                op = ADVANCE
            elif pending:  # ADVANCE
                t, u, nodes, cut = pending.pop()
                del out[cut:]
                t[0] = rights[u]
                op, climb = BUILD, t
            else:  # ADVANCE with nothing pending: the words are exhausted
                break
        self.steps = steps
