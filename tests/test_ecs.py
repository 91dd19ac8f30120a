import random

import pytest

from vptenum.ecs import (
    EMPTY,
    EPS_UNION,
    EPS_UNION_NODE,
    EPSILON,
    IS_EPS,
    NO_EPS,
    PRODUCT,
    SYMBOL,
    UNION,
    EcsArena,
)

from oracle_helpers import (
    EcsOpSuite,
    ShadowEcs,
    check_node_shape,
    eps_case,
    is_safe,
    label,
    language,
    leaf,
    output_depth,
    payload,
)
from test_vpt import marker_vpt


def w(*payloads):
    # a single word as a tuple of payloads
    return tuple(payloads)


class TestLeaves:
    def test_add(self):
        a = EcsArena()
        v = leaf(a, "o", 1)
        assert len(a) == 1
        assert label(a, v) == SYMBOL
        assert payload(a, v) == ("o", 1)
        assert language(a, v) == {w(("o", 1))}
        assert output_depth(a, v) == 0
        assert eps_case(a, v) == NO_EPS
        assert is_safe(a, v)

    def test_epsilon(self):
        a = EcsArena()
        v = a.epsilon_node()
        assert len(a) == 1
        assert label(a, v) == EPSILON
        assert language(a, v) == {()}
        assert eps_case(a, v) == IS_EPS
        assert is_safe(a, v)

    def test_empty_sentinel(self):
        a = EcsArena()
        assert language(a, EMPTY) == frozenset()


class TestUnionGadgets:
    def test_two_leaves_one_node(self):
        a = EcsArena()
        x = leaf(a, "o", 1)
        y = leaf(a, "p", 1)
        u = a.union(x, y)
        assert len(a) == 3
        assert label(a, u) == UNION
        assert language(a, u) == {w(("o", 1)), w(("p", 1))}
        assert output_depth(a, u) == 1
        assert is_safe(a, u)
        check_node_shape(a, u)

    def test_union_of_unions_three_nodes(self):
        a = EcsArena()
        leaves = [leaf(a, s, 1) for s in "opqr"]
        u1 = a.union(leaves[0], leaves[1])
        u2 = a.union(leaves[2], leaves[3])
        assert len(a) == 6
        top = a.union(u1, u2)
        assert len(a) == 9, "deep-deep union is the 3-node gadget"
        assert language(a, top) == {w((s, 1)) for s in "opqr"}
        assert is_safe(a, top)
        for v in range(len(a)):
            assert output_depth(a, v) <= 2

    def test_shallow_deep_orientations(self):
        a = EcsArena()
        x = leaf(a, "o", 1)
        u = a.union(leaf(a, "p", 1), leaf(a, "q", 1))
        before = len(a)
        left_shallow = a.union(x, u)
        assert len(a) == before + 1
        assert output_depth(a, left_shallow) == 1
        assert is_safe(a, left_shallow)
        y = leaf(a, "r", 1)
        before = len(a)
        right_shallow = a.union(u, y)
        assert len(a) == before + 1
        assert is_safe(a, right_shallow)
        assert language(a, right_shallow) == {w(("p", 1)), w(("q", 1)), w(("r", 1))}

    def test_empty_identity(self):
        a = EcsArena()
        x = leaf(a, "o", 1)
        assert a.union(x, EMPTY) == x
        assert a.union(EMPTY, x) == x
        assert len(a) == 1

    def test_epsilon_cases(self):
        a = EcsArena()
        e = a.epsilon_node()
        x = leaf(a, "o", 1)
        y = leaf(a, "p", 1)
        ex = a.union(e, x)  # eps-union shape
        assert eps_case(a, ex) == EPS_UNION
        assert a.lefts[ex] == e and a.rights[ex] == x
        assert language(a, ex) == {(), w(("o", 1))}
        # NO_EPS | EPS_UNION keeps the eps leaf on the left
        u = a.union(y, ex)
        assert eps_case(a, u) == EPS_UNION
        assert language(a, u) == {(), w(("o", 1)), w(("p", 1))}
        assert is_safe(a, u)
        # eps | eps collapses
        assert a.union(e, a.epsilon_node()) == e
        # EPS_UNION | IS_EPS is the identity on the eps-union operand
        assert a.union(ex, e) == ex

    def test_eps_union_both_sides(self):
        a = EcsArena()
        e = a.epsilon_node()
        ex = a.union(e, leaf(a, "o", 1))
        ey = a.union(e, leaf(a, "p", 1))
        u = a.union(ex, ey)
        assert language(a, u) == {(), w(("o", 1)), w(("p", 1))}
        assert eps_case(a, u) == EPS_UNION
        assert is_safe(a, u)


class TestProdGadgets:
    def test_plain_product(self):
        a = EcsArena()
        x = leaf(a, "o", 1)
        y = leaf(a, "p", 2)
        p = a.prod(x, y)
        assert len(a) == 3
        assert label(a, p) == PRODUCT
        assert language(a, p) == {w(("o", 1), ("p", 2))}
        assert is_safe(a, p)

    def test_empty_absorbs(self):
        a = EcsArena()
        x = leaf(a, "o", 1)
        assert a.prod(x, EMPTY) == EMPTY
        assert a.prod(EMPTY, x) == EMPTY
        assert len(a) == 1

    def test_epsilon_identity(self):
        a = EcsArena()
        e = a.epsilon_node()
        x = leaf(a, "o", 1)
        assert a.prod(e, x) == x
        assert a.prod(x, e) == x
        assert len(a) == 2

    def test_one_sided_eps_union(self):
        a = EcsArena()
        x = leaf(a, "o", 1)
        ey = a.union(a.epsilon_node(), leaf(a, "p", 2))
        before = len(a)
        p = a.prod(x, ey)
        assert len(a) - before == 2
        assert language(a, p) == {w(("o", 1)), w(("o", 1), ("p", 2))}
        assert eps_case(a, p) == NO_EPS
        assert is_safe(a, p)
        p2 = a.prod(ey, x)
        assert language(a, p2) == {w(("p", 2), ("o", 1)), w(("o", 1))}
        assert is_safe(a, p2)

    def test_both_eps_union_five_nodes(self):
        a = EcsArena()
        e = a.epsilon_node()
        ex = a.union(e, leaf(a, "o", 1))
        ey = a.union(e, leaf(a, "q", 2))
        before = len(a)
        p = a.prod(ex, ey)
        assert len(a) - before == 5
        assert language(a, p) == {
            (),
            w(("o", 1)),
            w(("q", 2)),
            w(("o", 1), ("q", 2)),
        }
        assert eps_case(a, p) == EPS_UNION
        assert is_safe(a, p)
        for v in range(len(a)):
            assert output_depth(a, v) <= 2

    def test_both_eps_union_deep_left(self):
        # r(v1) is itself a union: exercises the decomposed wiring
        a = EcsArena()
        e = a.epsilon_node()
        inner = a.union(leaf(a, "s", 1), leaf(a, "t", 1))
        ex = a.union(e, inner)
        ey = a.union(e, leaf(a, "y", 2))
        before = len(a)
        p = a.prod(ex, ey)
        assert len(a) - before == 5
        assert language(a, p) == {
            (),
            w(("s", 1)),
            w(("t", 1)),
            w(("y", 2)),
            w(("s", 1), ("y", 2)),
            w(("t", 1), ("y", 2)),
        }
        assert is_safe(a, p)
        for v in range(len(a)):
            assert output_depth(a, v) <= 2


class TestPersistence:
    def test_snapshots_survive_later_ops(self):
        a = EcsArena()
        sh = ShadowEcs(a)
        x = sh.add("o", 1)
        u = sh.union(x, sh.add("p", 1))
        snap = language(a, u)
        for i in range(40):
            nxt = sh.add(f"n{i}", i)
            if sh.union_ok(u, nxt):
                u2 = sh.union(u, nxt)
                assert language(a, u2) == sh.langs[u2]
        assert language(a, u) == snap, "old handle changed meaning"


class TestRandomSuite:
    def test_small_randomized_suite(self):
        suite = EcsOpSuite(random.Random(42), lang_every=20, enum_every=60)
        counts = suite.run(2_000)
        # the suite asserts internally; sanity-check it exercised each op
        assert counts["add"] > 100
        assert counts["union"] > 100
        assert counts["prod"] > 100

    def test_operand_errors(self):
        a = EcsArena()
        x = leaf(a, "o", 1)
        with pytest.raises(IndexError):
            a.union(x, 99)


class TestRefusals:
    def test_unsafe_shapes_and_unknown_attribute(self):
        # only the private constructors build these; no operation returns them
        a = EcsArena()
        e = a.epsilon_node()
        x, y, z, t = (leaf(a, s, 1) for s in "xyzt")
        deep = a._union(a._union(x, y), z)  # left union depth 2
        over_deep = a._union(t, deep)  # depth 1 over a right child of depth 2
        eps_below = a._product(x, e)  # an epsilon-free product over the epsilon leaf
        eps_right = a._union(e, eps_below, EPS_UNION_NODE)  # its right subgraph reaches e
        assert (output_depth(a, deep), output_depth(a, over_deep)) == (2, 1)
        for v in (deep, over_deep, eps_below, eps_right):
            assert not is_safe(a, v), v
        assert all(is_safe(a, v) for v in (e, x, a.lefts[deep]))
        # a failed lookup on a machine raises, and builds none of the
        # transition indexes that looking one of them up builds
        m = marker_vpt()
        assert not hasattr(m, "nope")
        assert not vars(m).keys() & {"open_index", "close_index", "neutral_index"}
        assert m.open_index is vars(m)["open_index"]
