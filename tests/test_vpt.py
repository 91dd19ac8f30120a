import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from vptenum import formats, spanner
from vptenum.engine import EngineState, accepts
from vptenum.nested import StructuredAlphabet
from vptenum.vpt import (
    ResourceCapError,
    Vpt,
    io_determinize,
    is_io_deterministic,
    level_reach,
    oracle_enumerate,
    stable_key,
)

from oracle_helpers import (
    Run,
    TREE_VPEG,
    brackets,
    enumerate_runs,
    out_of_run,
    random_det_vpt,
    random_nondet_vpt,
    random_vpa,
    tok_neutral,
    well_nested_pairs,
    well_nested_words,
)

ALPH = StructuredAlphabet(frozenset({"a"}), frozenset({"a"}), frozenset({"c"}))


def marker_vpt() -> Vpt:
    # marks the position of every open; accepts every well-nested doc
    return Vpt(
        states=frozenset({"q"}),
        alphabet=ALPH,
        stack_symbols=frozenset({"X"}),
        output_symbols=frozenset({"o"}),
        opens=frozenset({("q", "a", "o", "q", "X")}),
        closes=frozenset({("q", "a", None, "X", "q")}),
        neutrals=frozenset({("q", "c", None, "q")}),
        initial=frozenset({"q"}),
        final=frozenset({"q"}),
    )


def choice_vpt() -> Vpt:
    # the open marks o@1; each inner c may or may not mark p@k
    return Vpt(
        states=frozenset({"q0", "q1", "qf"}),
        alphabet=ALPH,
        stack_symbols=frozenset({"X"}),
        output_symbols=frozenset({"o", "p"}),
        opens=frozenset({("q0", "a", "o", "q1", "X")}),
        closes=frozenset({("q1", "a", None, "X", "qf")}),
        neutrals=frozenset({("q1", "c", "p", "q1"), ("q1", "c", None, "q1")}),
        initial=frozenset({"q0"}),
        final=frozenset({"qf"}),
    )


def single_bracket_vpa() -> Vpt:
    # acceptor for exactly "<a a>"
    return Vpt(
        states=frozenset({"q0", "q1", "qf"}),
        alphabet=ALPH,
        stack_symbols=frozenset({"X"}),
        output_symbols=frozenset(),
        opens=frozenset({("q0", "a", None, "q1", "X")}),
        closes=frozenset({("q1", "a", None, "X", "qf")}),
        neutrals=frozenset(),
        initial=frozenset({"q0"}),
        final=frozenset({"qf"}),
    )


def dyck_vpa() -> Vpt:
    # acceptor for all well-nested words over <a a> c, one state
    return Vpt(
        states=frozenset({"q"}),
        alphabet=ALPH,
        stack_symbols=frozenset({"X"}),
        output_symbols=frozenset(),
        opens=frozenset({("q", "a", None, "q", "X")}),
        closes=frozenset({("q", "a", None, "X", "q")}),
        neutrals=frozenset({("q", "c", None, "q")}),
        initial=frozenset({"q"}),
        final=frozenset({"q"}),
    )


def same_language(m1: Vpt, m2: Vpt, max_len: int) -> bool:
    return all(accepts(m1, w) == accepts(m2, w) for w in well_nested_words(ALPH, max_len))


class TestValidation:
    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError):
            Vpt(
                states=frozenset({"q0"}),
                alphabet=ALPH,
                stack_symbols=frozenset({"X"}),
                output_symbols=frozenset(),
                opens=frozenset({("q0", "a", None, "missing", "X")}),
                closes=frozenset(),
                neutrals=frozenset(),
                initial=frozenset({"q0"}),
                final=frozenset({"q0"}),
            )

    def test_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            Vpt(
                states=frozenset({"q0"}),
                alphabet=ALPH,
                stack_symbols=frozenset({"X"}),
                output_symbols=frozenset(),
                opens=frozenset(),
                closes=frozenset(),
                neutrals=frozenset({("q0", "zzz", None, "q0")}),
                initial=frozenset({"q0"}),
                final=frozenset({"q0"}),
            )

    def test_rejects_unknown_output(self):
        with pytest.raises(ValueError):
            Vpt(
                states=frozenset({"q"}),
                alphabet=ALPH,
                stack_symbols=frozenset({"X"}),
                output_symbols=frozenset({"o"}),
                opens=frozenset(),
                closes=frozenset(),
                neutrals=frozenset({("q", "c", "nope", "q")}),
                initial=frozenset({"q"}),
                final=frozenset({"q"}),
            )

    @pytest.mark.parametrize(
        "field, moves, message",
        [
            ("opens", {("q", "c", None, "q", "X")}, "open transition on non-open letter 'c'"),
            ("opens", {("q", "a", None, "q", "Y")}, "open transition pushes undeclared symbol 'Y'"),
            (
                "closes",
                {("q", "a", None, "X", "missing")},
                "close transition uses undeclared state: ('q', 'a', None, 'X', 'missing')",
            ),
            ("closes", {("q", "c", None, "X", "q")}, "close transition on non-close letter 'c'"),
            ("closes", {("q", "a", None, "Y", "q")}, "close transition pops undeclared symbol 'Y'"),
            (
                "neutrals",
                {("missing", "c", None, "q")},
                "neutral transition uses undeclared state: ('missing', 'c', None, 'q')",
            ),
            ("initial", {"missing"}, "initial and final states must be declared states"),
            ("final", {"q", "missing"}, "initial and final states must be declared states"),
        ],
        ids=["open-letter", "open-push", "close-state", "close-letter", "close-pop", "neutral-state",
             "initial-state", "final-state"],
    )
    def test_rejects_with_message(self, field, moves, message):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(marker_vpt(), **{field: frozenset(moves)})
        assert type(exc.value) is ValueError
        assert str(exc.value) == message


class TestRuns:
    def test_out_of_run_skips_silent(self):
        run = Run(states=("q", "q", "q", "q"), outputs=("o", None, "p"), pushed=(None, None, None))
        assert out_of_run(run) == (("o", 1), ("p", 3))
        assert out_of_run(run, 2, 3) == (("p", 3),)
        assert out_of_run(run, 2, 2) == ()

    def test_enumerate_runs_branches(self):
        runs = enumerate_runs(choice_vpt(), brackets("(.)"))
        assert len(runs) == 2
        outs = {out_of_run(r) for r in runs}
        assert outs == {(("o", 1),), (("o", 1), ("p", 2))}

    def test_pushed_recorded(self):
        (run,) = enumerate_runs(marker_vpt(), brackets("()"))
        assert run.pushed == ("X", None)
        assert run.states == ("q", "q", "q")

    def test_counts_all_survivors(self):
        # two parallel neutral transitions: runs double per letter
        m = Vpt(
            states=frozenset({"q", "r"}),
            alphabet=ALPH,
            stack_symbols=frozenset({"X"}),
            output_symbols=frozenset(),
            opens=frozenset(),
            closes=frozenset(),
            neutrals=frozenset((q, "c", None, q2) for q in "qr" for q2 in "qr"),
            initial=frozenset({"q"}),
            final=frozenset({"q"}),
        )
        runs = enumerate_runs(m, [tok_neutral("c")] * 3)
        assert len(runs) == 8
        for run in runs:
            assert len(run.states) == 4
            assert run.states[0] == "q"

    def test_run_cap(self):
        m = dyck_vpa()
        with pytest.raises(ResourceCapError):
            enumerate_runs(m, brackets("." * 3), max_runs=0)


class TestOracle:
    def test_marker_nested(self):
        got = oracle_enumerate(marker_vpt(), brackets("(())"))
        assert got == {(("o", 1), ("o", 2))}

    def test_choice_frozen(self):
        got = oracle_enumerate(choice_vpt(), brackets("(..)"))
        assert got == {
            (("o", 1),),
            (("o", 1), ("p", 2)),
            (("o", 1), ("p", 3)),
            (("o", 1), ("p", 2), ("p", 3)),
        }

    def test_rejects_unmatched(self):
        assert oracle_enumerate(marker_vpt(), brackets("(")) == frozenset()
        assert oracle_enumerate(marker_vpt(), brackets(")")) == frozenset()

    def test_config_cap(self):
        with pytest.raises(ResourceCapError):
            oracle_enumerate(choice_vpt(), brackets("(" + "." * 10 + ")"), max_configs=5)


class TestStableOrder:
    def test_index_rows_in_stable_key_order(self):
        # None, strings and marker sets side by side in one row; tuple
        # states in another
        sets = [frozenset({"⊣x", "⊢y"}), frozenset({"⊢x"})]
        alph = StructuredAlphabet(frozenset({"a"}), frozenset({"a"}), frozenset({"c"}))
        m = Vpt(
            states=frozenset({"q", ("q", 1), ("q", 0)}),
            alphabet=alph,
            stack_symbols=frozenset({"X", "Y"}),
            output_symbols=frozenset({"o", *sets}),
            opens=frozenset(
                {("q", "a", out, q2, x) for out in (None, "o", *sets) for q2 in ("q", ("q", 1)) for x in "YX"}
            ),
            closes=frozenset(),
            neutrals=frozenset({("q", "c", None, ("q", 1)), ("q", "c", None, ("q", 0))}),
            initial=frozenset({"q", ("q", 0)}),
            final=frozenset({"q"}),
        )
        row = m.open_index["a"]["q"]
        assert row == sorted(row, key=stable_key)
        assert [out for out, _, _ in row[::4]] == ["o", None, frozenset({"⊢x"}), sets[0]]
        assert row[:4] == [("o", "q", "X"), ("o", "q", "Y"), ("o", ("q", 1), "X"), ("o", ("q", 1), "Y")]
        assert m.neutral_index["c"]["q"] == [(None, ("q", 0)), (None, ("q", 1))]
        assert list(EngineState.initial(m).table) == [("q", "q"), (("q", 0), ("q", 0))]

    def test_key_of_a_set_is_the_sorted_keys_of_its_members(self):
        a = frozenset({"⊢x", "⊣x", ("q", None)})
        assert stable_key(a) == (3, tuple(sorted(stable_key(v) for v in a)))
        assert stable_key(("q", None)) == (2, ((0, "q"), (1, "None")))


class TestIoDeterminism:
    def test_positive_cases(self):
        assert is_io_deterministic(marker_vpt())
        assert is_io_deterministic(choice_vpt())

    def test_open_key_collision(self):
        m = Vpt(
            states=frozenset({"q", "r"}),
            alphabet=ALPH,
            stack_symbols=frozenset({"X"}),
            output_symbols=frozenset({"o"}),
            opens=frozenset({("q", "a", "o", "q", "X"), ("q", "a", "o", "r", "X")}),
            closes=frozenset(),
            neutrals=frozenset(),
            initial=frozenset({"q"}),
            final=frozenset({"q"}),
        )
        assert not is_io_deterministic(m)

    def test_two_initials(self):
        m = Vpt(
            states=frozenset({"q", "r"}),
            alphabet=ALPH,
            stack_symbols=frozenset({"X"}),
            output_symbols=frozenset(),
            opens=frozenset(),
            closes=frozenset(),
            neutrals=frozenset({("q", "c", None, "q")}),
            initial=frozenset({"q", "r"}),
            final=frozenset({"q"}),
        )
        assert not is_io_deterministic(m)

    def test_distinct_outputs_are_fine(self):
        # same (state, letter) with different outputs is still deterministic
        m = choice_vpt()
        keys = {(q, a, out) for (q, a, out, q2) in m.neutrals}
        assert len(keys) == len(m.neutrals)


class TestIoDeterminize:
    def test_result_is_deterministic(self):
        rng = random.Random(3)
        for _ in range(25):
            m = random_nondet_vpt(rng)
            d = io_determinize(m)
            assert is_io_deterministic(d)

    def test_outputs_preserved_exhaustively(self):
        rng = random.Random(4)
        words = well_nested_words(ALPH, 6)
        for _ in range(15):
            m = random_nondet_vpt(rng)
            d = io_determinize(m)
            for w in words:
                assert oracle_enumerate(m, w) == oracle_enumerate(d, w), (
                    f"outputs diverge on {w}"
                )

    def test_fresh_state_names(self):
        d = io_determinize(random_nondet_vpt(random.Random(9)))
        assert all(q.startswith("s") for q in d.states)
        assert all(x.startswith("t") for x in d.stack_symbols)

    def test_state_cap(self):
        rng = random.Random(12)
        m = random_nondet_vpt(rng, n_states=4, n_trans=14)
        with pytest.raises(ResourceCapError):
            io_determinize(m, max_states=1)

    def test_idempotent_semantics(self):
        m = choice_vpt()
        d = io_determinize(m)
        for text in ["", "()", "(.)", "(..)", "(.)(.)", "((.))"]:
            w = brackets(text)
            assert oracle_enumerate(m, w) == oracle_enumerate(d, w)

    def test_silent_neutral_cycle(self):
        got = oracle_enumerate(marker_vpt(), [tok_neutral("c")] * 3)
        assert got == {()}
        d = io_determinize(marker_vpt())
        assert oracle_enumerate(d, [tok_neutral("c")] * 3) == {()}


class TestAcceptorDeterminize:
    def test_hand_example(self):
        d = io_determinize(single_bracket_vpa())
        assert accepts(d, brackets("()"))
        assert not accepts(d, brackets("(.)"))
        assert not accepts(d, brackets(""))

    def test_nondeterministic_union(self):
        # L = {<a a>} from one branch, {<a c a>} from the other
        m = Vpt(
            states=frozenset({"q0", "p1", "p2", "r1", "qf"}),
            alphabet=ALPH,
            stack_symbols=frozenset({"X", "Y"}),
            output_symbols=frozenset(),
            opens=frozenset({("q0", "a", None, "p1", "X"), ("q0", "a", None, "r1", "Y")}),
            closes=frozenset({("p1", "a", None, "X", "qf"), ("p2", "a", None, "Y", "qf")}),
            neutrals=frozenset({("r1", "c", None, "p2")}),
            initial=frozenset({"q0"}),
            final=frozenset({"qf"}),
        )
        d = io_determinize(m)
        assert accepts(d, brackets("()"))
        assert accepts(d, brackets("(.)"))
        assert not accepts(d, brackets("(..)"))
        assert same_language(m, d, 6)

    def test_random_language_equality(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_vpa(rng)
            assert same_language(m, io_determinize(m), 6)

    def test_language_check_detects_difference(self):
        assert not same_language(single_bracket_vpa(), dyck_vpa(), 4)


class TestLevelReach:
    def test_matches_pair_saturation(self):
        # on plain states: each entry's reach set is what saturating
        # the well-nested pair relation finds from it
        rng = random.Random(21)
        for _ in range(60):
            m = random_vpa(rng, n_states=rng.randint(2, 6), n_trans=rng.randint(2, 16))
            reach = level_reach(
                sorted(m.initial),
                lambda q: [q2 for p, _, _, q2 in m.neutrals if p == q],
                lambda q: [(q2, x) for p, _, _, q2, x in m.opens if p == q],
                lambda q, x: [q2 for p, _, _, y, q2 in m.closes if (p, y) == (q, x)],
            )
            opened = {q2 for _, _, _, q2, _ in m.opens}
            pairs = well_nested_pairs(m)
            assert m.initial <= set(reach) <= m.initial | opened
            for entry, seen in reach.items():
                assert seen == {q for p, q in pairs if p == entry}


def plain_outputs(vpt: Vpt) -> Vpt:
    """The machine with each marker-set output renamed to its sorted
    markers run together, so the text format can write it."""
    names = {out: "".join(sorted(out)) for out in vpt.output_symbols}

    def name(out):
        return None if out is None else names[out]

    return dataclasses.replace(
        vpt,
        output_symbols=frozenset(names.values()),
        opens=frozenset((q, a, name(o), q2, x) for q, a, o, q2, x in vpt.opens),
        closes=frozenset((q, a, name(o), x, q2) for q, a, o, x, q2 in vpt.closes),
        neutrals=frozenset((q, a, name(o), q2) for q, a, o, q2 in vpt.neutrals),
    )


TREE_DET = """\
states: s0 s1 s2 s3 s4 s5 s6
initial: s5
final: s6
stack: t0 t1 t2 t3 t4
outputs: ⊢x ⊣x
open a s0 -> s0 push t0 out -
open a s1 -> s0 push t3 out ⊢x
open a s1 -> s1 push t1 out -
open a s3 -> s0 push t4 out -
open a s4 -> s0 push t4 out ⊣x
open a s5 -> s0 push t3 out ⊢x
open a s5 -> s1 push t2 out -
close a s0 pop t0 -> s0 out -
close a s0 pop t3 -> s4 out -
close a s0 pop t4 -> s3 out -
close a s1 pop t1 -> s1 out -
close a s1 pop t2 -> s5 out -
close a s3 pop t1 -> s3 out -
close a s3 pop t2 -> s3 out -
close a s4 pop t1 -> s3 out ⊣x
close a s4 pop t2 -> s3 out ⊣x
neutral # s0 -> s2 out -
neutral c s0 -> s0 out -
neutral # s1 -> s2 out -
neutral c s1 -> s1 out -
neutral # s3 -> s6 out -
neutral c s3 -> s3 out -
neutral # s4 -> s6 out ⊣x
neutral c s4 -> s3 out ⊣x
neutral c s5 -> s5 out -
"""

ELEMENT_DET = """\
states: s0 s1 s2 s3 s4 s5 s6 s7
initial: s5
final: s7
stack: t0 t1
outputs: ⊢x ⊢x⊣x ⊣x
open a s5 -> s0 push t0 out -
open a s6 -> s3 push t1 out -
close a s0 pop t0 -> s6 out ⊢x⊣x
close a s0 pop t0 -> s5 out -
close a s1 pop t0 -> s6 out ⊣x
close a s3 pop t0 -> s5 out -
close a s3 pop t1 -> s6 out -
neutral # s0 -> s2 out ⊢x⊣x
neutral # s0 -> s4 out -
neutral c s0 -> s1 out ⊢x
neutral c s0 -> s3 out -
neutral # s1 -> s2 out ⊣x
neutral c s1 -> s1 out -
neutral # s3 -> s4 out -
neutral c s3 -> s3 out -
neutral # s6 -> s7 out -
"""

ELEMENT_VPEG = Path(__file__).resolve().parents[1] / "demos" / "data" / "element.vpeg"


def kth_from_end(k: int) -> Vpt:
    """Output-free: accepts when the k-th letter from the end is b. Its
    subset construction reaches 2^k sets: q0 with any of q1..qk."""
    states = [f"q{i}" for i in range(k + 1)]
    neutrals = {("q0", "a", None, "q0"), ("q0", "b", None, "q0"), ("q0", "b", None, "q1")}
    for i in range(1, k):
        neutrals |= {(states[i], a, None, states[i + 1]) for a in "ab"}
    return Vpt(
        states=frozenset(states),
        alphabet=StructuredAlphabet(frozenset(), frozenset(), frozenset({"a", "b"})),
        stack_symbols=frozenset({"z"}),
        output_symbols=frozenset(),
        opens=frozenset(),
        closes=frozenset(),
        neutrals=frozenset(neutrals),
        initial=frozenset({"q0"}),
        final=frozenset({states[k]}),
    )


class TestDeterminizeGolden:
    # pinned outputs: any change in the subset states, their names, the
    # edges or the cap shows here

    @pytest.mark.parametrize(
        "grammar, want", [(TREE_VPEG, TREE_DET), (None, ELEMENT_DET)], ids=["tree", "element"]
    )
    def test_compiled_grammars(self, grammar, want):
        if grammar is None:
            grammar = ELEMENT_VPEG.read_text(encoding="utf-8")
        det = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(grammar)))
        assert formats.serialize_vpt(plain_outputs(det)) == want

    def test_random_machines(self):
        rng = random.Random(11)
        digest = hashlib.sha256()
        for i in range(200):
            make = random_nondet_vpt if i % 2 == 0 else random_vpa
            m = make(rng, n_states=rng.randint(2, 6), n_trans=rng.randint(4, 24))
            try:
                text = formats.serialize_vpt(io_determinize(m, max_states=32))
            except ResourceCapError as exc:  # 28 of the 200
                text = f"{exc}\n"
            digest.update(text.encode())
        assert digest.hexdigest() == "189968f50d9f12d019dd85792a5ba38a826cf2bd2c23abf883480c59af9c9c3b"

    def test_cap_boundary(self):
        m = kth_from_end(6)
        assert len(io_determinize(m, max_states=64).states) == 64
        with pytest.raises(ResourceCapError, match=r"^determinization exceeded 63 subset states$"):
            io_determinize(m, max_states=63)
