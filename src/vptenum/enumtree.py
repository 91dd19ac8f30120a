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
  nodes; a symbol leaf appends its own node id to the word.
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

The enumerator is two nested loops. The inner one builds a node and
then the builds it deferred, the right children of products, kept on
an explicit stack, so tree depth is bounded only by memory. A leaf
that finds the stack empty completes the subtree of the node the last
climb reached, as every build deferred since that climb lies inside
it, and the loop climbs once more: to the right child of that node's
owner, built next, or, with no owner, out with the skeleton complete.
The outer loop takes one word step, yields the word and takes one
advance step, which switches the deepest pending union or ends. A unit
step is a build, climb, word or advance, each O(1) besides copying the
word out. Between two words the loops take one advance, one word step,
and builds and climbs that come to two per new symbol (at least one),
so a word's gap is at most 2 * max(1, new symbols) + 2 unit steps.

Words are built as tuples of leaf ids, which ``leaf_words`` yields: the
leaf v stands for the symbol (out, k) with out = ``outputs[lefts[v]]``
and k = ``rights[v]`` of the arena, so a consumer that prints or
decodes by id needs no (out, k) pair. Iterating the enumerator yields
the same words as tuples of (out, k) pairs; it decodes only each word's
new suffix, past ``last_cut``, onto the decoded prefix it keeps.
"""

from __future__ import annotations

from collections.abc import Iterator

from vptenum.ecs import EMPTY, EPS_LEAF, EPS_UNION_NODE, PRODUCT, UNION, EcsArena
from vptenum.vpt import OutputWord


class Enumerator:
    """Streams L(v) once per word, with instrumentation.

    ``steps`` is the number of unit steps taken so far; after each
    emission it is the count up to that word. ``last_cut`` is the number
    of leading symbols the emitted word shares with the previous one,
    as kept by the advance that found it (0 for the empty word and the
    first epsilon-free word). When instrumentation is on, ``gaps``
    records per word the pair (unit steps since the previous emission,
    emitted length counting the empty word as 1), and ``tree_sizes``
    records (skeleton nodes, word length) per word found.
    """

    def __init__(self, arena: EcsArena, v: int, instrument: bool = False):
        self.arena = arena
        self.root = v
        self.instrument = instrument
        self.steps = 0
        self.last_cut = 0
        self.gaps: list[tuple[int, int]] = []
        self.tree_sizes: list[tuple[int, int]] = []

    def __iter__(self) -> Iterator[OutputWord]:
        """The words of ``leaf_words`` as (out, k) pairs."""
        outputs, lefts, rights = self.arena.outputs, self.arena.lefts, self.arena.rights
        word: list = []  # the previous word's pairs, cut back to what the next keeps
        append = word.append
        for leaves in self.leaf_words():
            cut = self.last_cut
            del word[cut:]
            for v in leaves[cut:]:
                append((outputs[lefts[v]], rights[v]))
            yield tuple(word)

    def leaf_words(self) -> Iterator[tuple]:
        """The words of L(v) in order, each a tuple of symbol leaf ids."""
        arena = self.arena
        v = self.root
        if v == EMPTY:
            return
        instrument, gaps, tree_sizes = self.instrument, self.gaps, self.tree_sizes
        kind = arena.kinds[v]
        if kind == EPS_LEAF or kind == EPS_UNION_NODE:
            # the empty word first, in one step, then the epsilon-free remainder
            self.steps += 1
            self.last_cut = 0
            if instrument:
                gaps.append((1, 1))
            yield ()
            if kind == EPS_LEAF:
                return
            v = arena.rights[v]

        # below here every node is an epsilon-free union, product or
        # symbol leaf
        kinds, lefts, rights = arena.kinds, arena.lefts, arena.rights
        union, product = UNION, PRODUCT  # as locals: the loop tests them every step
        stack: list[list] = []  # right children whose builds are deferred
        push, pop = stack.append, stack.pop
        # (skeleton node, union, skeleton nodes before it, symbols before it)
        pending: list[tuple[list, int, int, int]] = []
        defer = pending.append
        out: list = []  # the leaves of the skeleton built so far
        emit = out.append
        nodes = cut = 0  # cut: symbols the next word keeps of its predecessor
        steps = self.steps
        # a skeleton node is [arena node, left, right, owner]; t is the next to
        # build, climb the one to climb from once the stack is empty
        t = climb = [v, None, None, None]
        while True:
            while True:  # build t, then each deferred right child, climbing when none is left
                steps += 1
                u = t[0]
                kind = kinds[u]
                if kind == union:
                    before = len(out)
                    while kind == union:
                        defer((t, u, nodes, before))
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
                    continue
                t[1] = t[2] = None
                emit(u)
                if stack:
                    t = pop()
                    continue
                steps += 1  # climb to the owner's right subtree, built next
                owner = climb[3]
                if owner is None:  # the skeleton is complete
                    break
                t = climb = owner[2]
                t[0] = rights[owner[0]]
            steps += 1  # the word
            word = tuple(out)
            if instrument:
                gaps.append((steps - self.steps, len(word)))
                tree_sizes.append((nodes, len(word)))
            self.steps, self.last_cut = steps, cut
            yield word
            steps += 1  # advance: switch the deepest pending union right
            if not pending:  # the words are exhausted
                break
            t, u, nodes, cut = pending.pop()
            del out[cut:]
            t[0] = rights[u]
            climb = t
        self.steps = steps
