import random

import pytest

from vptenum.engine import EngineState, accepts
from vptenum.nested import StructuredAlphabet, well_nested_words
from vptenum.vpt import (
    ResourceCapError,
    Vpt,
    io_determinize,
    is_io_deterministic,
    oracle_enumerate,
    stable_key,
)

from oracle_helpers import (
    Run,
    brackets,
    enumerate_runs,
    out_of_run,
    random_det_vpt,
    random_nondet_vpt,
    random_vpa,
    tok_neutral,
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
