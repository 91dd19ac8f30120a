"""Enumerable compact sets: an append-only, fully-persistent DAG.

Nodes are labeled union, product, symbol, or epsilon; the language of a
node is the set of output words its subgraph denotes. All operations
append O(1) nodes and never mutate existing ones, so every handle ever
returned stays valid and its language never changes.

Node layout: one slot in each of three parallel lists, ``kinds``,
``lefts`` and ``rights``. A union or product keeps its children in
``lefts`` and ``rights``; a symbol leaf keeps its ``(out, k)`` payload
in ``lefts``. A kind packs the label and the epsilon case of the node's
language into one small int, ``label | case << 2``; five kinds occur:
the epsilon-free ``UNION``, ``PRODUCT`` and ``SYMBOL`` (kind = label),
``EPS_LEAF`` and ``EPS_UNION_NODE`` (the epsilon-union form below).
Union depth and epsilon-leaf reach are not stored: the operations only
ask whether an operand is a union, and the inspectors that tests use
derive the rest.

Three invariants make constant-delay enumeration possible and are
maintained by construction here:

* 2-boundedness: every node's left union-depth to a depth-0 node is
  at most 2.
* Safety of returned handles: public operations only ever return nodes
  v with output_depth(v) <= 1, and output_depth(r(v)) <= 1 when v is a
  union. Gadget-internal nodes may be deeper; they are never returned.
* Epsilon discipline: a returned handle either has no epsilon in its
  language (and no epsilon leaf in its subgraph), is itself an epsilon
  leaf, or is a union whose left child is an epsilon leaf and whose
  right subgraph is epsilon-free. The last shape is called the
  epsilon-union form below. Products are only ever built over
  epsilon-free operands, so an epsilon-free node reaches only
  epsilon-free nodes.

Callers must guarantee the usual unambiguity preconditions: operands of
union have disjoint languages (up to the shared epsilon), and operands
of prod concatenate with unique splits. These are not checked at
runtime; the evaluation engine guarantees them for I/O-unambiguous
transducers, and the test suite checks them with a shadow oracle. The
pass appends, for each output, a symbol leaf at the token's position
and a product of the handle it extends with that leaf; outputs that
extend the same source slots into the same target slot share one
product over the union of their leaves. That union is disjoint, since
the leaves' outputs differ, and the product splits uniquely, since its
right factor is one symbol long.
"""

from __future__ import annotations

# node labels
UNION = 0
PRODUCT = 1
SYMBOL = 2
EPSILON = 3

# epsilon classification of a node's language
NO_EPS = 0  # epsilon not in the language
IS_EPS = 1  # the language is exactly {epsilon}
EPS_UNION = 2  # union node: left child an epsilon leaf, right epsilon-free

# the two kinds that are not a bare label; a kind below EPSILON is epsilon-free
EPS_LEAF = EPSILON | IS_EPS << 2
EPS_UNION_NODE = UNION | EPS_UNION << 2

# the empty-set sentinel: absorbed by union, absorbing for prod
EMPTY = -1


class EcsArena:
    """Node store. Handles are indices; ``EMPTY`` (= -1) is the empty set."""

    __slots__ = ("kinds", "lefts", "rights", "_reach")

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.lefts: list = []  # left child, or a symbol leaf's payload
        self.rights: list[int] = []
        self._reach: list[bool] = []  # epsilon-leaf reach, grown by is_safe only

    def __len__(self) -> int:
        return len(self.kinds)

    # -- creation: one constructor per kind -----------------------------

    def add(self, payload: tuple) -> int:
        """Fresh symbol leaf with language {payload}. Appends exactly 1 node."""
        v = len(self.kinds)
        self.kinds.append(SYMBOL)
        self.lefts.append(payload)
        self.rights.append(EMPTY)
        return v

    def epsilon_node(self) -> int:
        """Fresh leaf with language {epsilon}. Appends exactly 1 node."""
        v = len(self.kinds)
        self.kinds.append(EPS_LEAF)
        self.lefts.append(EMPTY)
        self.rights.append(EMPTY)
        return v

    def _product(self, left: int, right: int) -> int:
        # both children epsilon-free
        v = len(self.kinds)
        self.kinds.append(PRODUCT)
        self.lefts.append(left)
        self.rights.append(right)
        return v

    def _union(self, left: int, right: int, kind: int = UNION) -> int:
        # UNION: both children epsilon-free; EPS_UNION_NODE: an epsilon
        # leaf on the left and an epsilon-free node on the right
        v = len(self.kinds)
        self.kinds.append(kind)
        self.lefts.append(left)
        self.rights.append(right)
        return v

    # -- inspection (tests, debugging; off the hot path) ----------------

    def label(self, v: int) -> int:
        return self.kinds[v] & 3

    def eps_case(self, v: int) -> int:
        return self.kinds[v] >> 2

    def payload(self, v: int) -> tuple | None:
        """A symbol leaf's (out, k); None for every other node."""
        return self.lefts[v] if self.kinds[v] == SYMBOL else None

    def output_depth(self, v: int) -> int:
        """Left union-depth: 0 on leaves and products, 1 + depth(left) on unions."""
        depth = 0
        while self.kinds[v] & 3 == UNION:
            depth += 1
            v = self.lefts[v]
        return depth

    def contains_epsilon(self, v: int) -> bool:
        return self.kinds[v] > EPSILON

    def eps_leaf_reach(self, v: int) -> bool:
        """Whether an epsilon leaf lies in v's subgraph."""
        reach, kinds = self._reach, self.kinds
        for u in range(len(reach), len(kinds)):
            kind = kinds[u]
            if kind == SYMBOL or kind == EPS_LEAF:
                reach.append(kind == EPS_LEAF)
            else:
                reach.append(reach[self.lefts[u]] or reach[self.rights[u]])
        return reach[v]

    def is_safe(self, v: int) -> bool:
        """The safety predicate union/prod operands must satisfy.

        Structural part: output_depth(v) <= 1, and if it is 1 then
        output_depth(r(v)) <= 1. Epsilon part: an epsilon-free subgraph
        carries no epsilon leaf, and the right subgraph of an
        epsilon-union node is epsilon-leaf-free.
        """
        d = self.output_depth(v)
        if d > 1 or (d == 1 and self.output_depth(self.rights[v]) > 1):
            return False
        case = self.eps_case(v)
        if case == NO_EPS:
            return not self.eps_leaf_reach(v)
        if case == EPS_UNION:
            return not self.eps_leaf_reach(self.rights[v])
        return True

    # -- union -------------------------------------------------------

    def _union_splice(self, a: int, b: int) -> int:
        # both operands epsilon-free safe unions: three fresh nodes keep
        # the result's left spine shallow while the deep node stays on a
        # right branch
        vstar = self._union(self.rights[a], self.rights[b])
        vmid = self._union(self.lefts[b], vstar)
        return self._union(self.lefts[a], vmid)

    def union(self, v1: int, v2: int) -> int:
        """Node for L(v1) | L(v2). Appends at most 4 nodes.

        Precondition: both operands safe, and their languages disjoint
        apart from a possibly shared epsilon.
        """
        if v1 == EMPTY:
            return v2
        if v2 == EMPTY:
            return v1
        kinds = self.kinds
        k1, k2 = kinds[v1], kinds[v2]
        if k1 < EPSILON:  # v1 epsilon-free
            if k2 < EPSILON:
                # the common case: one node, appended here, with an
                # operand that is no union on its left
                if k1 != UNION:
                    left, right = v1, v2
                elif k2 != UNION:
                    left, right = v2, v1
                else:
                    return self._union_splice(v1, v2)
                v = len(kinds)
                kinds.append(UNION)
                self.lefts.append(left)
                self.rights.append(right)
                return v
            if k2 == EPS_LEAF:
                return self._union(v2, v1, EPS_UNION_NODE)
            inner = self.union(v1, self.rights[v2])
            return self._union(self.lefts[v2], inner, EPS_UNION_NODE)
        if k1 == EPS_LEAF:
            if k2 < EPSILON:
                return self._union(v1, v2, EPS_UNION_NODE)
            return v2 if k2 == EPS_UNION_NODE else v1
        if k2 == EPS_LEAF:  # v1 an epsilon union from here on
            return v1
        if k2 < EPSILON:
            inner = self.union(self.rights[v1], v2)
            return self._union(self.lefts[v1], inner, EPS_UNION_NODE)
        inner = self.union(self.rights[v1], self.rights[v2])
        return self._union(self.lefts[v2], inner, EPS_UNION_NODE)

    # -- prod --------------------------------------------------------

    def prod(self, v1: int, v2: int) -> int:
        """Node for L(v1) . L(v2). Appends at most 5 nodes.

        Precondition: both operands safe and every word of the result
        splits uniquely into an L(v1) part and an L(v2) part.
        """
        if v1 == EMPTY or v2 == EMPTY:
            return EMPTY
        k1, k2 = self.kinds[v1], self.kinds[v2]
        if k1 < EPSILON and k2 < EPSILON:
            return self._product(v1, v2)
        if k1 == EPS_LEAF:
            return v2
        if k2 == EPS_LEAF:
            return v1
        if k1 < EPSILON:
            # L1.(eps | R2)  =  L1.R2 | L1
            return self._union(self._product(v1, self.rights[v2]), v1)
        if k2 < EPSILON:
            # (eps | R1).L2  =  R1.L2 | L2
            return self._union(self._product(self.rights[v1], v2), v2)
        return self._prod_both_eps(v1, v2)

    def _prod_both_eps(self, v1: int, v2: int) -> int:
        # (eps | A).(eps | B)  =  eps | A | A.B | B  with A = r(v1), B = r(v2)
        a, b = self.rights[v1], self.rights[v2]
        both = self._product(a, b)
        if self.kinds[a] != UNION:
            # left spine through A stays depth 1
            inner = self._union(both, b)
            mid = self._union(a, inner)
            return self._union(self.epsilon_node(), mid, EPS_UNION_NODE)
        # A is a union; splice its halves so no left spine exceeds depth 2
        tail = self._union(self.rights[a], b)
        spliced = self._union(self.lefts[a], tail)
        mid = self._union(both, spliced)
        return self._union(self.lefts[v1], mid, EPS_UNION_NODE)

    # -- debugging ---------------------------------------------------

    def debug_language(self, v: int, limit: int = 10_000) -> frozenset:
        """Materialize L(v) by recursion. Debug and small tests only."""
        if v == EMPTY:
            return frozenset()
        memo: dict[int, frozenset] = {}

        def walk(u: int) -> frozenset:
            got = memo.get(u)
            if got is not None:
                return got
            lab = self.label(u)
            if lab == SYMBOL:
                out = frozenset({(self.lefts[u],)})
            elif lab == EPSILON:
                out = frozenset({()})
            elif lab == UNION:
                out = walk(self.lefts[u]) | walk(self.rights[u])
            else:
                out = frozenset(
                    x + y for x in walk(self.lefts[u]) for y in walk(self.rights[u])
                )
            if len(out) > limit:
                raise ValueError("language too large to materialize")
            memo[u] = out
            return out

        return walk(v)

