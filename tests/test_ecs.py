import random

import pytest

from vptenum.ecs import (
    EMPTY,
    EPS_UNION,
    EPSILON,
    IS_EPS,
    NO_EPS,
    PRODUCT,
    SYMBOL,
    UNION,
    EcsArena,
)

from oracle_helpers import EcsOpSuite, ShadowEcs, check_node_shape


def lang(arena, v):
    return arena.debug_language(v)


def w(*payloads):
    # a single word as a tuple of payloads
    return tuple(payloads)


class TestLeaves:
    def test_add(self):
        a = EcsArena()
        v = a.add(("o", 1))
        assert len(a) == 1
        assert a.label(v) == SYMBOL
        assert a.payload(v) == ("o", 1)
        assert lang(a, v) == {w(("o", 1))}
        assert a.output_depth(v) == 0
        assert a.eps_case(v) == NO_EPS
        assert a.is_safe(v)

    def test_epsilon(self):
        a = EcsArena()
        v = a.epsilon_node()
        assert len(a) == 1
        assert a.label(v) == EPSILON
        assert lang(a, v) == {()}
        assert a.eps_case(v) == IS_EPS
        assert a.is_safe(v)

    def test_empty_sentinel(self):
        a = EcsArena()
        assert lang(a, EMPTY) == frozenset()


class TestUnionGadgets:
    def test_two_leaves_one_node(self):
        a = EcsArena()
        x = a.add(("o", 1))
        y = a.add(("p", 1))
        u = a.union(x, y)
        assert len(a) == 3
        assert a.label(u) == UNION
        assert lang(a, u) == {w(("o", 1)), w(("p", 1))}
        assert a.output_depth(u) == 1
        assert a.is_safe(u)
        check_node_shape(a, u)

    def test_union_of_unions_three_nodes(self):
        a = EcsArena()
        leaves = [a.add((s, 1)) for s in "opqr"]
        u1 = a.union(leaves[0], leaves[1])
        u2 = a.union(leaves[2], leaves[3])
        assert len(a) == 6
        top = a.union(u1, u2)
        assert len(a) == 9, "deep-deep union is the 3-node gadget"
        assert lang(a, top) == {w((s, 1)) for s in "opqr"}
        assert a.is_safe(top)
        for v in range(len(a)):
            assert a.output_depth(v) <= 2

    def test_shallow_deep_orientations(self):
        a = EcsArena()
        x = a.add(("o", 1))
        u = a.union(a.add(("p", 1)), a.add(("q", 1)))
        before = len(a)
        left_shallow = a.union(x, u)
        assert len(a) == before + 1
        assert a.output_depth(left_shallow) == 1
        assert a.is_safe(left_shallow)
        y = a.add(("r", 1))
        before = len(a)
        right_shallow = a.union(u, y)
        assert len(a) == before + 1
        assert a.is_safe(right_shallow)
        assert lang(a, right_shallow) == {w(("p", 1)), w(("q", 1)), w(("r", 1))}

    def test_empty_identity(self):
        a = EcsArena()
        x = a.add(("o", 1))
        assert a.union(x, EMPTY) == x
        assert a.union(EMPTY, x) == x
        assert len(a) == 1

    def test_epsilon_cases(self):
        a = EcsArena()
        e = a.epsilon_node()
        x = a.add(("o", 1))
        y = a.add(("p", 1))
        ex = a.union(e, x)  # eps-union shape
        assert a.eps_case(ex) == EPS_UNION
        assert a.lefts[ex] == e and a.rights[ex] == x
        assert lang(a, ex) == {(), w(("o", 1))}
        # NO_EPS | EPS_UNION keeps the eps leaf on the left
        u = a.union(y, ex)
        assert a.eps_case(u) == EPS_UNION
        assert lang(a, u) == {(), w(("o", 1)), w(("p", 1))}
        assert a.is_safe(u)
        # eps | eps collapses
        assert a.union(e, a.epsilon_node()) == e
        # EPS_UNION | IS_EPS is the identity on the eps-union operand
        assert a.union(ex, e) == ex

    def test_eps_union_both_sides(self):
        a = EcsArena()
        e = a.epsilon_node()
        ex = a.union(e, a.add(("o", 1)))
        ey = a.union(e, a.add(("p", 1)))
        u = a.union(ex, ey)
        assert lang(a, u) == {(), w(("o", 1)), w(("p", 1))}
        assert a.eps_case(u) == EPS_UNION
        assert a.is_safe(u)


class TestProdGadgets:
    def test_plain_product(self):
        a = EcsArena()
        x = a.add(("o", 1))
        y = a.add(("p", 2))
        p = a.prod(x, y)
        assert len(a) == 3
        assert a.label(p) == PRODUCT
        assert lang(a, p) == {w(("o", 1), ("p", 2))}
        assert a.is_safe(p)

    def test_empty_absorbs(self):
        a = EcsArena()
        x = a.add(("o", 1))
        assert a.prod(x, EMPTY) == EMPTY
        assert a.prod(EMPTY, x) == EMPTY
        assert len(a) == 1

    def test_epsilon_identity(self):
        a = EcsArena()
        e = a.epsilon_node()
        x = a.add(("o", 1))
        assert a.prod(e, x) == x
        assert a.prod(x, e) == x
        assert len(a) == 2

    def test_one_sided_eps_union(self):
        a = EcsArena()
        x = a.add(("o", 1))
        ey = a.union(a.epsilon_node(), a.add(("p", 2)))
        before = len(a)
        p = a.prod(x, ey)
        assert len(a) - before == 2
        assert lang(a, p) == {w(("o", 1)), w(("o", 1), ("p", 2))}
        assert a.eps_case(p) == NO_EPS
        assert a.is_safe(p)
        p2 = a.prod(ey, x)
        assert lang(a, p2) == {w(("p", 2), ("o", 1)), w(("o", 1))}
        assert a.is_safe(p2)

    def test_both_eps_union_five_nodes(self):
        a = EcsArena()
        e = a.epsilon_node()
        ex = a.union(e, a.add(("o", 1)))
        ey = a.union(e, a.add(("q", 2)))
        before = len(a)
        p = a.prod(ex, ey)
        assert len(a) - before == 5
        assert lang(a, p) == {
            (),
            w(("o", 1)),
            w(("q", 2)),
            w(("o", 1), ("q", 2)),
        }
        assert a.eps_case(p) == EPS_UNION
        assert a.is_safe(p)
        for v in range(len(a)):
            assert a.output_depth(v) <= 2

    def test_both_eps_union_deep_left(self):
        # r(v1) is itself a union: exercises the decomposed wiring
        a = EcsArena()
        e = a.epsilon_node()
        inner = a.union(a.add(("s", 1)), a.add(("t", 1)))
        ex = a.union(e, inner)
        ey = a.union(e, a.add(("y", 2)))
        before = len(a)
        p = a.prod(ex, ey)
        assert len(a) - before == 5
        assert lang(a, p) == {
            (),
            w(("s", 1)),
            w(("t", 1)),
            w(("y", 2)),
            w(("s", 1), ("y", 2)),
            w(("t", 1), ("y", 2)),
        }
        assert a.is_safe(p)
        for v in range(len(a)):
            assert a.output_depth(v) <= 2


class TestPersistence:
    def test_snapshots_survive_later_ops(self):
        a = EcsArena()
        sh = ShadowEcs(a)
        x = sh.add(("o", 1))
        u = sh.union(x, sh.add(("p", 1)))
        snap = lang(a, u)
        for i in range(40):
            nxt = sh.add((f"n{i}", i))
            if sh.union_ok(u, nxt):
                u2 = sh.union(u, nxt)
                assert lang(a, u2) == sh.langs[u2]
        assert lang(a, u) == snap, "old handle changed meaning"


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
        x = a.add(("o", 1))
        with pytest.raises(IndexError):
            a.union(x, 99)
