"""Enumerable compact sets: an append-only, fully-persistent DAG.

Nodes are labeled union, product, symbol, or epsilon; the language of a
node is the set of output words its subgraph denotes. All operations
append O(1) nodes and never mutate existing ones, so every handle ever
returned stays valid and its language never changes.

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
  epsilon-union form below.

Callers must guarantee the usual unambiguity preconditions: operands of
union have disjoint languages (up to the shared epsilon), and operands
of prod concatenate with unique splits. These are not checked at
runtime; the evaluation engine guarantees them for I/O-unambiguous
transducers, and the test suite checks them with a shadow oracle.
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
EPS_OTHER = 3  # contains epsilon in some other shape (gadget internals only)

# the empty-set sentinel: absorbed by union, absorbing for prod
EMPTY = -1


class EcsArena:
    """Node store. Handles are indices; ``EMPTY`` (= -1) is the empty set."""

    __slots__ = (
        "labels",
        "lefts",
        "rights",
        "payloads",
        "depths",
        "eps_cases",
        "eps_leaf_reach",
    )

    def __init__(self) -> None:
        self.labels: list[int] = []
        self.lefts: list[int] = []
        self.rights: list[int] = []
        self.payloads: list[tuple | None] = []
        self.depths: list[int] = []
        self.eps_cases: list[int] = []
        self.eps_leaf_reach: list[bool] = []

    def __len__(self) -> int:
        return len(self.labels)

    # -- creation ----------------------------------------------------

    def _new(self, label: int, left: int, right: int, payload: tuple | None) -> int:
        v = len(self.labels)
        self.labels.append(label)
        self.lefts.append(left)
        self.rights.append(right)
        self.payloads.append(payload)
        if label == UNION:
            depth = self.depths[left] + 1
            has_eps = self.eps_cases[left] != NO_EPS or self.eps_cases[right] != NO_EPS
            reach = self.eps_leaf_reach[left] or self.eps_leaf_reach[right]
        elif label == PRODUCT:
            depth = 0
            has_eps = (
                self.eps_cases[left] in (IS_EPS, EPS_UNION, EPS_OTHER)
                and self.eps_cases[right] in (IS_EPS, EPS_UNION, EPS_OTHER)
            )
            reach = self.eps_leaf_reach[left] or self.eps_leaf_reach[right]
        elif label == EPSILON:
            depth, has_eps, reach = 0, True, True
        else:
            depth, has_eps, reach = 0, False, False
        self.depths.append(depth)
        if label == EPSILON:
            case = IS_EPS
        elif not has_eps:
            case = NO_EPS
        elif label == UNION and self.labels[left] == EPSILON and self.eps_cases[right] == NO_EPS:
            case = EPS_UNION
        else:
            case = EPS_OTHER
        self.eps_cases.append(case)
        self.eps_leaf_reach.append(reach)
        return v

    def add(self, payload: tuple) -> int:
        """Fresh symbol leaf with language {payload}. Appends exactly 1 node."""
        return self._new(SYMBOL, EMPTY, EMPTY, payload)

    def epsilon_node(self) -> int:
        """Fresh leaf with language {epsilon}. Appends exactly 1 node."""
        return self._new(EPSILON, EMPTY, EMPTY, None)

    # -- inspection --------------------------------------------------

    def output_depth(self, v: int) -> int:
        """Left union-depth: 0 on leaves and products, 1 + depth(left) on unions."""
        return self.depths[v]

    def eps_case(self, v: int) -> int:
        return self.eps_cases[v]

    def contains_epsilon(self, v: int) -> bool:
        return self.eps_cases[v] != NO_EPS

    def is_safe(self, v: int) -> bool:
        """The safety predicate union/prod operands must satisfy.

        Structural part: output_depth(v) <= 1, and if it is 1 then
        output_depth(r(v)) <= 1. Epsilon part: the node is in one of
        the three disciplined shapes, an epsilon-free subgraph carries
        no epsilon leaf, and the right subgraph of an epsilon-union
        node is epsilon-leaf-free.
        """
        d = self.depths[v]
        if d > 1:
            return False
        if d == 1 and self.depths[self.rights[v]] > 1:
            return False
        case = self.eps_cases[v]
        if case == EPS_OTHER:
            return False
        if case == NO_EPS and self.eps_leaf_reach[v]:
            return False
        if case == EPS_UNION and self.eps_leaf_reach[self.rights[v]]:
            return False
        return True

    # -- union -------------------------------------------------------

    def _union_plain(self, a: int, b: int) -> int:
        # both operands epsilon-free and safe
        if self.depths[a] == 0:
            return self._new(UNION, a, b, None)
        if self.depths[b] == 0:
            return self._new(UNION, b, a, None)
        # both are unions: three fresh nodes keep the result's left
        # spine shallow while the deep node stays on a right branch
        vstar = self._new(UNION, self.rights[a], self.rights[b], None)
        vmid = self._new(UNION, self.lefts[b], vstar, None)
        return self._new(UNION, self.lefts[a], vmid, None)

    def union(self, v1: int, v2: int) -> int:
        """Node for L(v1) | L(v2). Appends at most 4 nodes.

        Precondition: both operands safe, and their languages disjoint
        apart from a possibly shared epsilon.
        """
        if v1 == EMPTY:
            return v2
        if v2 == EMPTY:
            return v1
        c1, c2 = self.eps_cases[v1], self.eps_cases[v2]
        if c1 == NO_EPS and c2 == NO_EPS:
            return self._union_plain(v1, v2)
        if c1 == NO_EPS and c2 == IS_EPS:
            return self._new(UNION, v2, v1, None)
        if c1 == NO_EPS and c2 == EPS_UNION:
            inner = self._union_plain(v1, self.rights[v2])
            return self._new(UNION, self.lefts[v2], inner, None)
        if c1 == IS_EPS and c2 == NO_EPS:
            return self._new(UNION, v1, v2, None)
        if c1 == IS_EPS and c2 == IS_EPS:
            return v1
        if c1 == IS_EPS and c2 == EPS_UNION:
            return v2
        if c1 == EPS_UNION and c2 == NO_EPS:
            inner = self._union_plain(self.rights[v1], v2)
            return self._new(UNION, self.lefts[v1], inner, None)
        if c1 == EPS_UNION and c2 == IS_EPS:
            return v1
        if c1 == EPS_UNION and c2 == EPS_UNION:
            inner = self._union_plain(self.rights[v1], self.rights[v2])
            return self._new(UNION, self.lefts[v2], inner, None)
        raise ValueError("union operands must be safe nodes")

    # -- prod --------------------------------------------------------

    def prod(self, v1: int, v2: int) -> int:
        """Node for L(v1) . L(v2). Appends at most 5 nodes.

        Precondition: both operands safe and every word of the result
        splits uniquely into an L(v1) part and an L(v2) part.
        """
        if v1 == EMPTY or v2 == EMPTY:
            return EMPTY
        c1, c2 = self.eps_cases[v1], self.eps_cases[v2]
        if c1 == NO_EPS and c2 == NO_EPS:
            return self._new(PRODUCT, v1, v2, None)
        if c1 == IS_EPS:
            return v2
        if c2 == IS_EPS:
            return v1
        if c1 == NO_EPS and c2 == EPS_UNION:
            # L1.(eps | R2)  =  L1.R2 | L1
            both = self._new(PRODUCT, v1, self.rights[v2], None)
            return self._new(UNION, both, v1, None)
        if c1 == EPS_UNION and c2 == NO_EPS:
            # (eps | R1).L2  =  R1.L2 | L2
            both = self._new(PRODUCT, self.rights[v1], v2, None)
            return self._new(UNION, both, v2, None)
        if c1 == EPS_UNION and c2 == EPS_UNION:
            return self._prod_both_eps(v1, v2)
        raise ValueError("prod operands must be safe nodes")

    def _prod_both_eps(self, v1: int, v2: int) -> int:
        # (eps | A).(eps | B)  =  eps | A | A.B | B  with A = r(v1), B = r(v2)
        a, b = self.rights[v1], self.rights[v2]
        both = self._new(PRODUCT, a, b, None)
        if self.depths[a] == 0:
            # left spine through A stays depth 1
            inner = self._new(UNION, both, b, None)
            mid = self._new(UNION, a, inner, None)
            eps_leaf = self._new(EPSILON, EMPTY, EMPTY, None)
            return self._new(UNION, eps_leaf, mid, None)
        # A is a union; splice its halves so no left spine exceeds depth 2
        tail = self._new(UNION, self.rights[a], b, None)
        spliced = self._new(UNION, self.lefts[a], tail, None)
        mid = self._new(UNION, both, spliced, None)
        return self._new(UNION, self.lefts[v1], mid, None)

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
            lab = self.labels[u]
            if lab == SYMBOL:
                out = frozenset({(self.payloads[u],)})
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


def new_arena() -> EcsArena:
    return EcsArena()
