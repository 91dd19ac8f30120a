import hashlib
import itertools
import random

import pytest

from vptenum import spanner
from vptenum.cli import _bench_doc, _bench_vpt
from vptenum.ecs import EMPTY, EPS_LEAF, EcsArena
from vptenum.engine import preprocess
from vptenum.enumtree import Enumerator
from vptenum.vpt import io_determinize

from oracle_helpers import (
    TREE_VPEG,
    ShadowEcs,
    enumerate_words,
    random_det_vpt,
    random_machines,
    random_well_nested,
    reference_preprocess,
    tree_document,
    union_of_unions,
)


def payload(i):
    return ("a", i)


class TestTreeWalk:
    def test_single_leaf(self):
        a = EcsArena()
        v = a.add(payload(1))
        en = Enumerator(a, v, instrument=True)
        assert list(en) == [(payload(1),)]
        assert en.tree_sizes == [(1, 1)]

    def test_product_order_left_major(self):
        a = EcsArena()
        u = a.union(a.add(payload(1)), a.add(payload(2)))
        p = a.prod(u, a.add(payload(3)))
        words = list(enumerate_words(a, p))
        assert words == [
            (payload(1), payload(3)),
            (payload(2), payload(3)),
        ]

    def test_union_gadget_order_frozen(self):
        # doc'd contract: union walks left branch first; the 3-node
        # deep-deep gadget therefore interleaves operand halves
        a = EcsArena()
        u1 = a.union(a.add(payload(1)), a.add(payload(2)))
        u2 = a.union(a.add(payload(3)), a.add(payload(4)))
        top = a.union(u1, u2)
        words = list(enumerate_words(a, top))
        assert words == [
            (payload(1),),
            (payload(3),),
            (payload(2),),
            (payload(4),),
        ]

    def test_instrumented_enumerator_matches_enumerate_words(self):
        a = EcsArena()
        u = a.union(a.add(payload(1)), a.add(payload(2)))
        v = a.prod(u, a.union(a.add(payload(3)), a.add(payload(4))))
        en = Enumerator(a, v, instrument=True)
        got = list(en)
        assert got == list(enumerate_words(a, v))
        assert len(got) == 4
        # one product over two leaves per word
        assert en.tree_sizes == [(3, 2)] * 4


class TestUnionOfUnions:
    def test_order_frozen(self):
        a, v = union_of_unions(4)
        assert [w[0][1] for w in enumerate_words(a, v)] == [0, 6, 4, 2, 1, 3, 5, 7]

    def test_skeleton_and_delay_independent_of_history(self):
        n = 2048
        a, v = union_of_unions(n)
        en = Enumerator(a, v, instrument=True)
        words = list(en)
        assert len(words) == 2 * n
        assert sorted(w[0][1] for w in words) == list(range(2 * n))
        for size, plen in en.tree_sizes:
            assert size <= 4 * max(1, plen)
        for steps_between, wlen in en.gaps:
            assert steps_between <= 4 * wlen + 8


class TestEpsilonDispatch:
    def test_empty_sentinel_yields_nothing(self):
        a = EcsArena()
        assert list(enumerate_words(a, EMPTY)) == []

    def test_epsilon_only(self):
        a = EcsArena()
        e = a.epsilon_node()
        assert list(enumerate_words(a, e)) == [()]

    def test_eps_union_empty_word_first(self):
        a = EcsArena()
        ex = a.union(a.epsilon_node(), a.add(payload(1)))
        assert list(enumerate_words(a, ex)) == [(), (payload(1),)]


class TestNoRecursion:
    def test_long_product_chain(self):
        a = EcsArena()
        n = 5_000
        v = a.add(payload(1))
        for i in range(2, n + 1):
            v = a.prod(v, a.add(payload(i)))
        en = Enumerator(a, v, instrument=True)
        words = list(en)
        assert len(words) == 1
        assert words[0] == tuple(payload(i) for i in range(1, n + 1))
        (size, plen), = en.tree_sizes
        assert plen == n
        assert size == 2 * n - 1
        assert size <= 4 * plen

    def test_long_union_chain(self):
        a = EcsArena()
        n = 3_000
        v = a.add(payload(0))
        for i in range(1, n):
            v = a.union(v, a.add(payload(i)))
        words = list(enumerate_words(a, v))
        assert len(words) == n
        assert set(words) == {(payload(i),) for i in range(n)}


class TestInstrumentation:
    def test_no_duplicates_and_sizes(self):
        rng = random.Random(11)
        a = EcsArena()
        sh = ShadowEcs(a)
        pool = [sh.add((f"s{i}", i)) for i in range(8)]
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.5 and sh.union_ok(x, y):
                pool.append(sh.union(x, y))
            elif sh.prod_ok(x, y) and len(sh.langs[x]) * len(sh.langs[y]) < 200:
                pool.append(sh.prod(x, y))
        for v in pool[-10:]:
            en = Enumerator(a, v, instrument=True)
            got = list(en)
            assert len(got) == len(set(got))
            assert set(got) == sh.langs[v]
            for size, plen in en.tree_sizes:
                assert size <= 4 * max(1, plen)

    def test_gap_accounting(self):
        a = EcsArena()
        v = a.add(payload(0))
        for i in range(1, 30):
            v = a.union(v, a.add(payload(i)))
        en = Enumerator(a, v, instrument=True)
        words = list(en)
        assert len(words) == 30
        assert len(en.gaps) == 30
        assert en.steps > 0
        # steady-state gaps: two steps per symbol plus a small constant
        # for the hop to the next word
        for steps_between, wlen in en.gaps[1:]:
            assert steps_between <= 2 * wlen + 2


def _pass(vpt, tokens, run=preprocess):
    result = run(vpt, tokens)
    return [(result.arena, result.root)]


def _ungrouped(vpt, tokens):
    # node for node the arena of the compiled pass before it merged
    # sibling outputs, so the hashes below pin the enumerator alone
    return reference_preprocess(vpt, tokens, grouped=False)


def _random_det_passes(run=preprocess):
    rng = random.Random(29)
    roots = []
    for _ in range(24):
        # few states and many transitions, so most documents have results
        m = random_det_vpt(rng, n_states=3, n_trans=40)
        roots += _pass(m, random_well_nested(rng, m.alphabet, rng.randint(4, 14)), run)
    return roots


def _tree_pass():
    vpt = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(TREE_VPEG)))
    return _pass(vpt, tree_document(random.Random(31), 1_500, 48))


# sha256 of every word, its order, and the unit-step accounting around
# it. The first hash leaves out the gaps. It was computed while found
# words were still held back for a while, which moved only the gaps,
# so it shows that yielding them at once kept everything else. The
# ``grouped`` cases enumerate what the compiled pass builds, sibling
# outputs merged under one product.
PINNED = {
    "union_of_unions": (
        lambda: [union_of_unions(16)],
        "e997143d75fb82b8ec0cdade37e21f584a8305a36580644ee2605f4a2285ba75",
        "1a282ffeadc734b7af52874ef1292677814871d233d24b3de15b50c6f8dd00cf",
    ),
    "bench": (
        lambda: _pass(_bench_vpt(), _bench_doc(1_000, 12), _ungrouped),
        "e105c0acefc5e51af1df718c46cff229d64a1c9e96e87127578825701d108ded",
        "80e5cf010210f059ab6488213490cda4294e2b27ad42ac0effbcdfa62f3ea4f2",
    ),
    "tree": (
        _tree_pass,
        "1ea3200fcfd610a7b55746f2b49778257ca9fd6dbe622a9f93c3abbf6614a217",
        "3a31447ff82c432c36411802e1b40b6449069d20cdccaf84712e01eba2c80c31",
    ),
    "random_det": (
        lambda: _random_det_passes(_ungrouped),
        "7742cf656862b4158a0d2d449048591cd249bb1c93b6bfe85495f9037f22fceb",
        "7ec5349c440903cc675a65d920346ba261033535f729298cdf4bc6f3859a0654",
    ),
    "bench_grouped": (
        lambda: _pass(_bench_vpt(), _bench_doc(1_000, 12)),
        "3cb3b94f72aae9a5065e048e97576b1d000c5c2ffe6d2bb18e79b1bd8df6526c",
        "a5ac8def431c9de47e4646f07fdbe24f249e02ee10e41414491de089cc1011c7",
    ),
    "random_det_grouped": (
        _random_det_passes,
        "a05ff3bfd32d3e1a7496cbbc47864c8392db21d2ac6ac783fc27530c11039c5e",
        "74d9faed9a70f7ea08789a508b6c7fe9b404dc873baf28d3d11f9c53f5b7379b",
    ),
}


def _sha256(runs):
    # a repr, not a pickle, so every supported Python reads the same bytes
    return hashlib.sha256(repr(runs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_unit_steps_pinned(name):
    arenas, want_without_gaps, want = PINNED[name]
    runs = []
    for arena, root in arenas():
        en = Enumerator(arena, root, instrument=True)
        words = list(en)
        runs.append((words, en.gaps, en.tree_sizes, en.steps, len(words)))
    assert _sha256([(words, *rest) for words, _, *rest in runs]) == want_without_gaps
    assert _sha256(runs) == want


def test_an_advance_rebuilds_one_choice():
    # each choice is one union of two leaves under the shared prefix, so
    # the next word switches the last choice instead of rebuilding the
    # whole skeleton: 82 steps a word before the merge, 6 after it
    result = preprocess(_bench_vpt(), _bench_doc(2_000, 40))
    en = Enumerator(result.arena, result.root)
    assert sum(1 for _ in itertools.islice(en, 4_000)) == 4_000
    assert en.steps <= 8 * 4_000



def _random_machine_passes():
    for _, m, docs in random_machines():
        for doc in docs:
            try:
                yield from _pass(m, doc)
            except ValueError:  # NestingError, or an arena operand check
                pass


def _arenas(name):
    return _random_machine_passes() if name == "random_machines" else PINNED[name][0]()


@pytest.mark.parametrize("name", ["random_machines", *sorted(PINNED)])
def test_gap_is_linear_in_the_new_symbols(name):
    # an advance builds two skeleton nodes per symbol it prints, counting
    # climbs; the word step and the advance add one step each
    for arena, root in _arenas(name):
        for instrument in (False, True):
            en, before = Enumerator(arena, root, instrument), 0
            for word in en:
                gap, before = en.steps - before, en.steps
                assert gap <= 2 * max(1, len(word) - en.last_cut) + 2
                assert en.gaps[-1:] == ([(gap, len(word) or 1)] if instrument else [])
        # en, read last, is instrumented; the end adds an advance that finds nothing pending
        advanced = root != EMPTY and arena.kinds[root] != EPS_LEAF
        assert sum(gap for gap, _ in en.gaps) == en.steps - advanced
        early = Enumerator(arena, root, instrument=True)
        list(itertools.islice(early, max(0, len(en.gaps) - 1)))
        assert early.steps == sum(gap for gap, _ in early.gaps)


def words_and_cuts(en, limit=None):
    """Each word of ``en`` with its ``last_cut``, read as the word is yielded."""
    return [(word, en.last_cut) for word in itertools.islice(en, limit)]


def assert_cuts_shared(pairs):
    """Each word's cut is a prefix it shares with the word before it."""
    previous = ()
    for word, cut in pairs:
        assert cut <= min(len(previous), len(word))
        assert word[:cut] == previous[:cut]
        previous = word


class TestLastCut:
    def test_cuts_of_a_small_arena(self):
        # the empty word, then a shared leaf before a switched one
        a = EcsArena()
        v = a.prod(a.add(payload(3)), a.union(a.add(payload(1)), a.add(payload(2))))
        pairs = words_and_cuts(Enumerator(a, a.union(a.epsilon_node(), v)))
        assert pairs == [((), 0), ((payload(3), payload(1)), 0), ((payload(3), payload(2)), 1)]

    @pytest.mark.parametrize("name", ["random_machines", *sorted(PINNED)])
    def test_cut_is_a_shared_prefix(self, name):
        for arena, root in _arenas(name):
            pairs = words_and_cuts(Enumerator(arena, root))
            assert_cuts_shared(pairs)
            assert all(cut == 0 for word, cut in pairs if not word)

    def test_cut_leaves_a_short_suffix(self):
        # a binary counter over 40 choices: 2.0 new symbols a word on average
        result = preprocess(_bench_vpt(), _bench_doc(2_000, 40))
        pairs = words_and_cuts(Enumerator(result.arena, result.root), 4_000)
        assert len(pairs) == 4_000
        assert_cuts_shared(pairs)
        assert sum(len(word) - cut for word, cut in pairs) <= 3 * 4_000
