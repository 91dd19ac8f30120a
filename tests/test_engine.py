import random
import tracemalloc
from collections import Counter
from functools import partial
from itertools import product

import pytest

from vptenum import engine, spanner
from vptenum.cli import _bench_doc, _bench_vpt
from vptenum.ecs import EMPTY, EPSILON, PRODUCT
from vptenum.engine import (
    AmbiguityError,
    EngineState,
    NestingError,
    SymbolError,
    SymbolStats,
    evaluate,
    preprocess,
    resolve_mode,
)
from vptenum.nested import StructuredAlphabet, Token, TokenKind, TokenizeError, tokenize
from vptenum.vpt import Vpt, io_determinize, is_io_deterministic, oracle_enumerate

from oracle_helpers import (
    Checkpoints,
    PullCounter,
    ReferenceState,
    Snapshots,
    SymbolRecords,
    TREE_VPEG,
    accepts,
    brackets,
    check_state_invariants,
    engine_view,
    enumerate_words,
    label,
    random_det_vpt,
    random_machines,
    random_nondet_vpt,
    random_vpa,
    random_well_nested,
    reference_preprocess,
    reference_view,
    replaced,
    tok_close,
    tok_neutral,
    tok_open,
    tree_document,
)
from test_vpt import ALPH, choice_vpt, dyck_vpa, marker_vpt, single_bracket_vpa


def lang(arena, v):
    return frozenset(enumerate_words(arena, v))

def three_state_marker() -> Vpt:
    # accepts exactly "<a a>", output o on the open
    return Vpt(
        states=frozenset({"q0", "q1", "qf"}),
        alphabet=ALPH,
        stack_symbols=frozenset({"X"}),
        output_symbols=frozenset({"o"}),
        opens=frozenset({("q0", "a", "o", "q1", "X")}),
        closes=frozenset({("q1", "a", None, "X", "qf")}),
        neutrals=frozenset(),
        initial=frozenset({"q0"}),
        final=frozenset({"qf"}),
    )


class TestIfProd:
    """The output extension inlined in every step, seen through one neutral token."""

    def step(self, out):
        m = replaced(marker_vpt(), neutrals=frozenset({("q", "c", out, "q")}))
        trace = Snapshots(EngineState.initial(m))
        res = preprocess(m, brackets("."), trace)
        return res, trace

    def test_silent_is_identity(self):
        _, trace = self.step(None)
        assert trace[1] == trace[0]  # the same epsilon handle in the same slot

    def test_extends_epsilon(self):
        res, trace = self.step("o")
        table, _ = trace[1]
        assert lang(res.arena, table[("q", "q")]) == {(("o", 1),)}

    def test_sentinel_passes_through(self):
        # an entry without a move leaves no entry, never a stored EMPTY
        m = replaced(marker_vpt(), neutrals=frozenset())
        trace = Snapshots(EngineState.initial(m))
        preprocess(m, brackets("."), trace)
        assert trace[1] == ({}, [])


class TestSteps:
    def test_open_step_hand_example(self):
        m = three_state_marker()
        trace = Snapshots(EngineState.initial(m))
        res = preprocess(m, brackets("()"), trace)
        table, frames = trace[1]
        assert set(table) == {("q1", "q1")}
        assert lang(res.arena, table[("q1", "q1")]) == {()}
        assert len(frames) == 1
        assert set(frames[0]) == {("q0", "X", "q1")}
        assert lang(res.arena, frames[0][("q0", "X", "q1")]) == {(("o", 1),)}

    def test_close_folds_level(self):
        m = three_state_marker()
        trace = Snapshots(EngineState.initial(m))
        res = preprocess(m, brackets("()"), trace)
        table, frames = trace[2]
        assert frames == []
        assert set(table) == {("q0", "qf")}
        assert lang(res.arena, table[("q0", "qf")]) == {(("o", 1),)}

    def test_dead_level_still_pushed(self):
        m = three_state_marker()
        trace = Snapshots(EngineState.initial(m))
        res = preprocess(m, brackets("(())"), trace)
        # inner open has no matching transition from q1: dead level
        table, frames = trace[2]
        assert table == {}
        assert len(frames) == 2
        assert res.root == EMPTY

    def test_no_neutral_rules_empties_table(self):
        m = three_state_marker()
        res = preprocess(m, brackets("."))
        assert res.root == EMPTY


class TestPreprocess:
    def test_marker_nested_doc(self):
        res = preprocess(marker_vpt(), brackets("(())"))
        assert lang(res.arena, res.root) == {(("o", 1), ("o", 2))}

    def test_empty_input_epsilon(self):
        res = preprocess(marker_vpt(), [])
        assert lang(res.arena, res.root) == {()}

    def test_empty_input_no_accept(self):
        res = preprocess(choice_vpt(), [])
        assert res.root == EMPTY

    def test_pull_count_exact(self):
        for text in ["", ".", "()", "(.)", "((.).)"]:
            doc = brackets(text)
            pulled = PullCounter(doc)
            res = preprocess(marker_vpt(), pulled)
            assert pulled.pulls == len(doc) + 1
            assert res.stats.pulls == len(doc) + 1
            assert res.length == len(doc)

    def test_unbalanced_close_message(self):
        with pytest.raises(NestingError, match=r"unbalanced close at position 3"):
            preprocess(marker_vpt(), brackets("())"))

    def test_unbalanced_open_reports_first(self):
        with pytest.raises(NestingError, match=r"unbalanced open at position 2"):
            preprocess(marker_vpt(), brackets(".(("))

    def test_stack_depth_tracks_nesting(self):
        doc = brackets("((.)(.))")
        trace = Snapshots(EngineState.initial(marker_vpt()))
        preprocess(marker_vpt(), doc, trace)
        depth = 0
        for k, tok in enumerate(doc, start=1):
            if tok.kind.value == "open":
                depth += 1
            elif tok.kind.value == "close":
                depth -= 1
            assert len(trace[k][1]) == depth

    def test_node_count_linear_in_length(self):
        m = choice_vpt()
        qqd = len(m.states) ** 2 * (len(m.opens) + len(m.closes) + len(m.neutrals))
        for n in (4, 10, 20):
            doc = brackets("(" + "." * n + ")")
            res = preprocess(m, doc)
            assert len(res.arena) <= 12 * qqd * len(doc) + 2


class TestStateInvariants:
    def test_hand_machines(self):
        check_state_invariants(marker_vpt(), brackets("((.).)"))
        check_state_invariants(choice_vpt(), brackets("(..)"))
        check_state_invariants(three_state_marker(), brackets("(())"))

    def test_random_instances(self):
        rng = random.Random(21)
        done = 0
        while done < 12:
            m = random_det_vpt(rng)
            doc = random_well_nested(rng, m.alphabet, rng.randint(0, 8))
            check_state_invariants(m, doc)
            done += 1


class TestCheckpoints:
    def test_depth_and_prefix_results(self):
        m = marker_vpt()
        doc = brackets("(.)().")
        checkpoints = Checkpoints(m)
        res = preprocess(m, doc, checkpoints)
        assert [k for k, _, _ in checkpoints] == list(range(1, len(doc) + 1))
        depth = 0
        for (k, d, handle), tok in zip(checkpoints, doc):
            if tok.kind.value == "open":
                depth += 1
            elif tok.kind.value == "close":
                depth -= 1
            assert d == depth
            if depth == 0:
                assert lang(res.arena, handle) == oracle_enumerate(m, doc[:k])


class TestEvaluate:
    def test_mode_gate(self):
        bad = Vpt(
            states=frozenset({"q", "r"}),
            alphabet=ALPH,
            stack_symbols=frozenset({"X"}),
            output_symbols=frozenset({"o"}),
            neutrals=frozenset({("q", "c", "o", "q"), ("q", "c", "o", "r")}),
            opens=frozenset(),
            closes=frozenset(),
            initial=frozenset({"q"}),
            final=frozenset({"q", "r"}),
        )
        with pytest.raises(AmbiguityError):
            list(evaluate(bad, brackets(".")))
        got = set(evaluate(bad, brackets("."), mode="determinize"))
        assert got == oracle_enumerate(bad, brackets("."))
        with pytest.raises(ValueError):
            resolve_mode(bad, "yolo")
        good = marker_vpt()
        assert resolve_mode(good, "check") is good

    def test_trust_mode_runs_unchecked(self):
        got = set(evaluate(choice_vpt(), brackets("(.)"), mode="trust"))
        assert got == oracle_enumerate(choice_vpt(), brackets("(.)"))

    def test_matches_oracle_random(self):
        rng = random.Random(33)
        for _ in range(40):
            m = random_det_vpt(rng)
            doc = random_well_nested(rng, m.alphabet, rng.randint(0, 9))
            got = list(evaluate(m, doc))
            assert len(got) == len(set(got)), "duplicate emission"
            assert set(got) == oracle_enumerate(m, doc)


def _arena_nodes(arena):
    return (arena.kinds, arena.lefts, arena.rights, arena.outputs)


class TestStats:
    def test_per_symbol_records_only_on_request(self):
        rng = random.Random(55)
        for _ in range(60):
            m = random_det_vpt(rng)
            doc = random_well_nested(rng, m.alphabet, rng.randint(0, 12))
            plain = preprocess(m, doc)
            records = SymbolRecords()
            recorded = preprocess(m, doc, records)
            assert not any(isinstance(v, list) for v in vars(plain.stats).values())
            assert len(records) == len(doc)
            summed = SymbolStats()
            for sym in records + [recorded.stats.finalize]:
                summed.add(sym)
            assert plain.stats.totals() == summed == recorded.stats.totals()
            assert plain.stats.finalize == recorded.stats.finalize
            assert plain.stats.pulls == recorded.stats.pulls == len(doc) + 1
            assert summed.nodes_added == len(plain.arena) - 1  # all but the epsilon seed
            assert _arena_nodes(plain.arena) == _arena_nodes(recorded.arena)
            assert plain.root == recorded.root

    def test_retained_memory_does_not_grow_with_length(self):
        # a default pass keeps O(1) counters, not a record per token
        vpt = _bench_vpt()
        kept = {}
        for n in (100_000, 400_000):
            tracemalloc.start()
            try:
                result = preprocess(vpt, _bench_doc(n, 40))
                kept[n], _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.length == n
            del result
        assert abs(kept[400_000] - kept[100_000]) < 64 * 1024, kept


class TestRetainedMemory:
    def test_bytes_per_token_on_a_capture_any_element_pass(self):
        # what a default pass keeps is the arena: 17 bytes per node in
        # packed columns, a symbol leaf holding its output's id and its
        # position, and no Python object per node. As three list slots
        # and an int per node, with an (out, k) tuple per leaf, the same
        # pass kept about 113 B/token; at seven slots per node about 158.
        vpt = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(TREE_VPEG)))
        tokens = tree_document(random.Random(1), 4_000, 64)
        tracemalloc.start()
        try:
            result = preprocess(vpt, tokens)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.length == len(tokens) == 4_065
        assert len(result.arena) > len(tokens)  # the bound is about the arena
        assert kept / len(tokens) < 40, kept / len(tokens)


class TestAccepts:
    def test_single_bracket(self):
        m = single_bracket_vpa()
        assert accepts(m, brackets("()"))
        assert not accepts(m, brackets(""))
        assert not accepts(m, brackets("(.)"))
        assert not accepts(m, brackets("(())"))
        assert not accepts(m, brackets("()()"))

    def test_dyck(self):
        m = dyck_vpa()
        for text in ["", ".", "()", "(.)", "(())", "()()", "((.).)"]:
            assert accepts(m, brackets(text)), text

    def test_unbalanced_raises(self):
        m = dyck_vpa()
        with pytest.raises(NestingError, match="unbalanced close at position 1"):
            accepts(m, [tok_close("a")])
        with pytest.raises(NestingError, match="unbalanced open at position 1"):
            accepts(m, [tok_open("a")])

    def test_nondeterministic_acceptors_stay_on_the_epsilon_leaf(self):
        # without outputs the arena never grows past the epsilon leaf,
        # which is why accepts may run any nondeterministic acceptor
        rng = random.Random(44)
        for _ in range(50):
            m = random_vpa(rng)
            assert m.open_index is m.open_index
            for _ in range(6):
                doc = random_well_nested(rng, m.alphabet, rng.randint(0, 10))
                res = preprocess(m, doc)
                assert len(res.arena) == 1
                assert label(res.arena, 0) == EPSILON
                assert res.root in (EMPTY, 0)
                assert accepts(m, doc) == bool(oracle_enumerate(m, doc))


def _outcome(run, vpt, doc, observer):
    try:
        return run(vpt, doc, observer), None
    except ValueError as err:  # NestingError, or an arena operand check
        return None, (type(err), str(err))


def _recorders(vpt, initial, view):
    """Per-token counts, snapshots and checkpoints, and one observer for all three."""
    records = (SymbolRecords(), Snapshots(initial, view), Checkpoints(vpt, view))

    def observe(k, state, counts):
        for record in records:
            record(k, state, counts)

    return records, observe


def assert_eps_flags_exact(vpt, doc) -> None:
    """After every token of the pass over a well-nested doc, each slot
    of the table and of every frame has its shape's epsilon flag set
    exactly when its handle is the epsilon leaf."""

    def observe(k, state, counts):
        flags = state.shapes.eps
        levels = [(state.shape, state.handles)] + [(sid, handles) for sid, handles, _ in state.stack]
        for sid, handles in levels:
            assert flags[sid] == tuple(h == state.epsilon for h in handles), (k, sid)

    preprocess(vpt, doc, observe)


IDLE = "idle"


def with_idle_letter(vpt: Vpt) -> Vpt:
    """vpt with one more neutral letter on which every state loops
    silently: its step is the identity on every table."""
    alphabet = replaced(vpt.alphabet, neutrals=vpt.alphabet.neutrals | {IDLE})
    loops = {(q, IDLE, None, q) for q in vpt.states}
    return replaced(vpt, alphabet=alphabet, neutrals=vpt.neutrals | loops)


def interned(doc: list) -> list:
    """The document with one Token object per distinct token, as the
    tokenizer hands them out."""
    canon: dict = {}
    return [canon.setdefault(tok, tok) for tok in doc]


def with_runs(rng: random.Random, doc: list) -> list:
    """doc, interned, with some neutrals repeated and runs of the idle
    letter put before tokens and, at times, at the end."""
    out = []
    for tok in doc:
        if rng.random() < 0.3:
            out += [tok_neutral(IDLE)] * rng.randint(1, 5)
        out.append(tok)
        if tok.kind is TokenKind.NEUTRAL and rng.random() < 0.5:
            out += [tok] * rng.randint(1, 5)
    if rng.random() < 0.5:
        out += [tok_neutral(IDLE)] * rng.randint(1, 5)
    return interned(out)


class TestPlansMatchReference:
    """The compiled pass against the dict-keyed reference pass."""

    def assert_same(self, vpt, doc):
        for recording in (False, True):
            got_records = ref_records = None
            got_observer = ref_observer = None
            if recording:
                got_records, got_observer = _recorders(vpt, EngineState.initial(vpt), engine_view)
                ref_records, ref_observer = _recorders(vpt, ReferenceState.initial(vpt), reference_view)
            got, got_err = _outcome(preprocess, vpt, doc, got_observer)
            ref, ref_err = _outcome(reference_preprocess, vpt, doc, ref_observer)
            assert got_err == ref_err
            # per-token counts, snapshots and checkpoint handles, up to the error if any
            assert got_records == ref_records
            if got is None:
                continue
            assert _arena_nodes(got.arena) == _arena_nodes(ref.arena)
            assert got.root == ref.root
            assert got.length == ref.length
            assert got.stats.totals() == ref.stats.totals()
            assert got.stats.finalize == ref.stats.finalize
            assert got.stats.pulls == ref.stats.pulls

    def test_random_machines(self):
        for i, m, docs in random_machines():
            for doc in docs:
                self.assert_same(m, doc)
                assert_eps_flags_exact(m, doc)
            # the last document again, interned and with runs of repeated
            # neutrals: fresh tokens never repeat an object, so only these
            # passes skip identity runs. To m the idle letter is foreign.
            runs = with_runs(random.Random(i), doc)
            self.assert_same(m, runs)
            self.assert_same(with_idle_letter(m), runs)

    def test_unbalanced_documents(self):
        rng = random.Random(72)
        for _ in range(30):
            m = random_det_vpt(rng)
            doc = random_well_nested(rng, m.alphabet, rng.randint(0, 8))
            cut = rng.randint(0, len(doc))
            self.assert_same(m, doc[:cut] + [tok_close("a")] + doc[cut:])
            self.assert_same(m, doc[:cut] + [tok_open("b")] + doc[cut:])

    def test_letters_without_moves(self):
        # foreign names compile to plans that only scan
        m = marker_vpt()
        self.assert_same(m, [tok_open("z"), tok_neutral("y"), tok_close("z")] + brackets("(.)"))

    def test_bench_document(self):
        self.assert_same(_bench_vpt(), list(_bench_doc(300, 12)))

    def test_an_epsilon_slot_meets_a_symbol_slot(self):
        # two runs from one origin split silently, one of them then
        # prints o, and both meet in one slot: the epsilon handle is
        # unioned with the symbol's, whichever of the two slots is first.
        # The slot, epsilon | o, is then extended by p, or it enters a
        # level that splits the same way, and is a factor of the close
        for silent, loud in (("s1", "s2"), ("s2", "s1")):
            m = Vpt(
                states=frozenset({"q0", "s1", "s2", "t1", "t2", "f", "g", "h"}),
                alphabet=ALPH,
                stack_symbols=frozenset({"X"}),
                output_symbols=frozenset({"o", "p"}),
                opens=frozenset({("f", "a", None, "q0", "X")}),
                closes=frozenset({("f", "a", None, "X", "h"), ("g", "a", None, "X", "h")}),
                neutrals=frozenset(
                    {
                        ("q0", "c", None, "s1"),
                        ("q0", "c", None, "s2"),
                        (silent, "c", None, "t1"),
                        (loud, "c", "o", "t2"),
                        ("t1", "c", None, "f"),
                        ("t2", "c", None, "f"),
                        ("f", "c", "p", "g"),
                    }
                ),
                initial=frozenset({"q0"}),
                final=frozenset({"f", "g", "h"}),
            )
            for text in ("...", "....", "...(...)", "...(....)"):
                self.assert_same(m, brackets(text))
            res = preprocess(m, brackets("..."))
            assert lang(res.arena, res.root) == {(), (("o", 2),)}
            res = preprocess(m, brackets("...(....)"))
            p = ("p", 8)
            assert lang(res.arena, res.root) == {(p,), (("o", 2), p), (("o", 6), p), (("o", 2), ("o", 6), p)}

    def test_products_never_get_an_epsilon_operand(self):
        # the plans fold every epsilon operand when they are compiled,
        # and a product is built only over operands that test epsilon-free
        rng = random.Random(74)
        makers = (random_det_vpt, random_nondet_vpt)
        arenas = []
        for i in range(60):
            m = makers[i % 2](rng)
            arenas.append(preprocess(m, random_well_nested(rng, m.alphabet, rng.randint(0, 14))).arena)
        tree = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(TREE_VPEG)))
        arenas.append(preprocess(tree, tree_document(random.Random(2), 500, 16)).arena)
        operands = [
            (arena.kinds[arena.lefts[v]], arena.kinds[arena.rights[v]])
            for arena in arenas
            for v, kind in enumerate(arena.kinds)
            if kind == PRODUCT
        ]
        assert operands
        assert max(max(pair) for pair in operands) < EPSILON


# Machine text that would change the meaning of source it was pasted into.
AWKWARD = ("x'); raise SystemExit #", "a\nb", "{0}", "%s")


def awkward_vpt() -> Vpt:
    """A choice machine whose states, letters, stack symbols and outputs
    are all AWKWARD strings; one letter has two outputs on one move."""
    quote, newline, brace, percent = AWKWARD
    return Vpt(
        states=frozenset({quote, newline, brace}),
        alphabet=StructuredAlphabet(frozenset({percent}), frozenset({percent}), frozenset({brace, newline})),
        stack_symbols=frozenset({percent, newline}),
        output_symbols=frozenset(AWKWARD),
        opens=frozenset({(quote, percent, brace, newline, percent), (newline, percent, newline, newline, newline)}),
        closes=frozenset({(newline, percent, None, percent, brace), (newline, percent, None, newline, newline)}),
        neutrals=frozenset(
            {
                (newline, brace, quote, newline),
                (newline, brace, percent, newline),
                (newline, brace, None, newline),
                (newline, newline, newline, newline),
            }
        ),
        initial=frozenset({quote}),
        final=frozenset({brace}),
    )


class TestGeneratedStepsMatchReference(TestPlansMatchReference):
    """The same cases with every plan compiled before its first run, so
    that every step runs as generated code."""

    @pytest.fixture(autouse=True)
    def compile_at_once(self, monkeypatch):
        monkeypatch.setattr(engine, "HOT", 0)

    def test_machine_text_stays_out_of_the_source(self, monkeypatch):
        steps = []
        real = engine._compile

        def compiled(plan, arena, split):
            steps.append(real(plan, arena, split))
            return steps[-1]

        monkeypatch.setattr(engine, "_compile", compiled)
        m = awkward_vpt()
        assert is_io_deterministic(m)
        quote, newline, brace, percent = AWKWARD
        doc = [tok_open(percent), tok_neutral(brace), tok_open(percent), tok_neutral(newline)]
        doc += [tok_neutral(brace), tok_close(percent), tok_neutral(brace), tok_close(percent)]
        self.assert_same(m, doc)
        got, ref = preprocess(m, doc), reference_preprocess(m, doc)
        words = list(enumerate_words(got.arena, got.root))
        assert len(words) == 3 * 3 * 3 and words == list(enumerate_words(ref.arena, ref.root))
        assert steps
        for step in steps:
            code = step.__code__
            assert all(c is None or type(c) is int for c in code.co_consts), code.co_consts
            # the step names only what its namespace binds, and that
            # holds no arena column: only the arena writes nodes
            assert set(code.co_names) <= set(step.__globals__), code.co_names
            assert not {"kinds", "lefts", "rights"} & set(step.__globals__)


class TestSiblingOutputs:
    """The pass merges sibling outputs under one product, and enumerates
    the words of the ungrouped reference, which gives each output a
    product of its own."""

    def assert_same_words(self, vpt, doc):
        got, got_err = _outcome(preprocess, vpt, doc, None)
        ref, ref_err = _outcome(partial(reference_preprocess, grouped=False), vpt, doc, None)
        assert got_err == ref_err
        if got is None:
            return
        words = Counter(enumerate_words(got.arena, got.root))
        assert words == Counter(enumerate_words(ref.arena, ref.root))
        # the model's counts; only the nodes appended go down
        totals, ref_totals = got.stats.totals(), ref.stats.totals()
        assert totals.nodes_added <= ref_totals.nodes_added
        assert replaced(totals, nodes_added=0) == replaced(ref_totals, nodes_added=0)
        return got, ref

    def test_random_machines(self):
        for _, m, docs in random_machines():
            for doc in docs:
                self.assert_same_words(m, doc)

    def test_bench_document(self):
        got, ref = self.assert_same_words(_bench_vpt(), list(_bench_doc(2_000, 16)))
        # two leaves, their union and one product: one node fewer per
        # choice, except the first, where the leaves' union is all
        assert len(ref.arena) - len(got.arena) == 16 - 1

    def test_tree_document(self):
        tree = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(TREE_VPEG)))
        self.assert_same_words(tree, tree_document(random.Random(31), 1_500, 48))

    def test_order_switches_the_last_choice_first(self):
        m = _bench_vpt()
        res = preprocess(m, words(m, "<r b c b b r>"))
        want = [tuple(zip(outs, (2, 4, 5))) for outs in product("uv", repeat=3)]
        assert list(enumerate_words(res.arena, res.root)) == want  # u@2 u@4 u@5, u@2 u@4 v@5, ...


class TestPlanCount:
    def test_does_not_grow_with_length(self):
        vpt = _bench_vpt()
        plans = [preprocess(vpt, _bench_doc(n, 40)).stats.plans for n in (1_000, 100_000)]
        assert plans[0] == plans[1] > 0

    def test_at_most_one_per_token(self):
        rng = random.Random(73)
        makers = (random_det_vpt, random_nondet_vpt, random_vpa)
        for i in range(90):
            m = makers[i % 3](rng)
            doc = random_well_nested(rng, m.alphabet, rng.randint(0, 16))
            assert 0 <= preprocess(m, doc).stats.plans <= len(doc)

    def test_compiles_only_plans_past_hot(self, monkeypatch):
        # at the default HOT: the flat enum and scan shapes (no plan runs
        # more than 39 times) compile nothing, a tree pass compiles some
        # plans mid-pass, and its arena and totals are those of a pass
        # that never compiles
        sizes = []  # the arena's size at each compile
        real = engine._compile

        def compiled(plan, arena, split):
            sizes.append(len(arena))
            return real(plan, arena, split)

        monkeypatch.setattr(engine, "_compile", compiled)
        for doc in (_bench_doc(2_000, 40), _bench_doc(10_000, 10)):
            assert preprocess(_bench_vpt(), doc).stats.plans > 0
        assert sizes == []
        tree = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(TREE_VPEG)))
        doc = tree_document(random.Random(1), 4_000, 64)
        got = preprocess(tree, doc)
        assert sizes and sizes[-1] < len(got.arena)
        compiles = len(sizes)
        monkeypatch.setattr(engine, "HOT", len(doc) + 1)
        ref = preprocess(tree, doc)
        assert len(sizes) == compiles
        assert _arena_nodes(got.arena) == _arena_nodes(ref.arena)
        assert got.stats.totals() == ref.stats.totals()

    def test_compiles_at_the_use_after_hot(self, monkeypatch):
        # a plan runs generically HOT times and compiles on its next use;
        # one used HOT times or fewer, or an identity plan, never compiles;
        # an observer changes neither which plans compile nor when
        monkeypatch.setattr(engine, "HOT", 3)
        plans = []  # in the order the pass builds them
        generic, stepped = Counter(), Counter()  # calls of _run and of generated steps
        compiles = {}  # plan -> (_run calls up to its compile, arena size then)

        def recorded(make):
            def build(*args):
                plans.append(make(*args))
                return plans[-1]

            return build

        for maker in ("neutral_plan", "open_plan", "close_plan"):
            monkeypatch.setattr(engine, maker, recorded(getattr(engine, maker)))
        real_run, real_compile = engine._run, engine._compile

        def run(plan, *args):
            generic[plan] += 1
            return real_run(plan, *args)

        def compiled(plan, arena, split):
            compiles[plan] = (generic[plan], len(arena))
            step = real_compile(plan, arena, split)

            def counted(*args):
                stepped[plan] += 1
                return step(*args)

            return counted

        monkeypatch.setattr(engine, "_run", run)
        monkeypatch.setattr(engine, "_compile", compiled)
        tree = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(TREE_VPEG)))
        idle = with_idle_letter(_bench_vpt())
        cases = [
            (tree, tree_document(random.Random(1), 1_000, 16)),
            (_bench_vpt(), list(_bench_doc(300, 12))),
            (idle, words(idle, "idle " * 5 + "<r b c c b idle idle idle b b b c c c b r> idle idle")),
        ]
        for vpt, doc in cases:
            passes = []
            for observer in (None, SymbolRecords()):
                for record in (plans, generic, stepped, compiles):
                    record.clear()
                preprocess(vpt, doc, observer)
                identity = [plan for plan in plans if plan.take is None]
                assert identity and max(plan.runs for plan in identity) > engine.HOT
                assert not set(identity) & (set(generic) | set(compiles))
                for plan in plans:
                    if plan.take is None:
                        continue
                    uses = generic[plan] + stepped[plan] - (plan in compiles)  # the compiling call steps too
                    assert plan.runs == uses
                    if uses > engine.HOT:
                        assert generic[plan] == compiles[plan][0] == engine.HOT + 1
                    else:
                        assert plan not in compiles and stepped[plan] == 0
                passes.append([(plan.counts, plan.runs, compiles.get(plan)) for plan in plans])
                assert compiles
            assert passes[0] == passes[1]

    def test_repeated_steps_reuse_their_plan(self):
        # one state, so one key per table kind. A level's one slot is the
        # epsilon leaf until the first close and not after it: two level
        # shapes, so at most two open, two neutral and two close plans,
        # however long and deep the document
        for text, plans in [
            ("(.)", 3),
            ("(" + "." * 50 + ")", 3),
            ("((.)(.(.)))", 5),
            ("((.)(.(.)))" * 5, 5),
        ]:
            assert preprocess(marker_vpt(), brackets(text)).stats.plans == plans


def words(vpt: Vpt, text: str) -> list:
    """The tokenized document, one Token object per distinct word."""
    return list(tokenize(text, vpt.alphabet))


class KindReads:
    """A neutral token that counts the reads of its kind: the pass reads
    a token's kind once for each step the token takes."""

    def __init__(self, name: str):
        self.name = name
        self.reads = 0

    @property
    def kind(self) -> TokenKind:
        self.reads += 1
        return TokenKind.NEUTRAL


class TestIdentityRuns:
    """A repeated token whose step leaves the table as it is skips the
    step; what it adds to the pass is the same."""

    def assert_exact(self, vpt, doc):
        plain = preprocess(vpt, doc)
        ref = reference_preprocess(vpt, doc)
        records = SymbolRecords()
        recorded = preprocess(vpt, doc, records)  # an observer turns the skip off
        assert len(records) == len(doc)
        for other in (ref, recorded):
            assert _arena_nodes(plain.arena) == _arena_nodes(other.arena)
            assert plain.root == other.root
            assert plain.length == other.length == len(doc)
            assert plain.stats.totals() == other.stats.totals()
            assert plain.stats.finalize == other.stats.finalize
            assert plain.stats.pulls == other.stats.pulls == len(doc) + 1
        assert plain.stats.plans == recorded.stats.plans
        return plain

    def test_document_ends_inside_a_run(self):
        m = with_idle_letter(_bench_vpt())
        res = self.assert_exact(m, words(m, "<r b r>" + " idle" * 7))
        # the accepting slot loops on idle: one visit per token
        assert res.stats.totals().visits == 1 + 2 + 1 + 7 + 1

    def test_document_is_one_run(self):
        m = with_idle_letter(_bench_vpt())
        for n in (1, 2, 50):
            res = self.assert_exact(m, [tok_neutral(IDLE)] * n)
            assert res.stats.totals() == SymbolStats(n, 1, n, 0)  # the fold scans q0
        self.assert_exact(marker_vpt(), interned(brackets("." * 40)))

    def test_run_broken_by_an_open_close_pair(self):
        m = with_idle_letter(_bench_vpt())
        self.assert_exact(m, words(m, "idle idle idle <r c c b c c r> idle idle idle"))
        self.assert_exact(m, words(m, "<r c c c <r r> c c c r>"))
        self.assert_exact(marker_vpt(), interned(brackets("..(...)...(.)")))

    def test_equal_tokens_that_are_distinct_objects(self):
        # equality is not identity: each distinct object takes the step
        m = _bench_vpt()
        fresh = list(_bench_doc(500, 12))
        fresh[1:-1] = [Token(tok.kind, tok.name) for tok in fresh[1:-1]]
        shared = preprocess(m, interned(fresh))
        got = preprocess(m, fresh)
        assert _arena_nodes(got.arena) == _arena_nodes(shared.arena)
        assert got.root == shared.root
        assert got.stats == shared.stats
        self.assert_exact(m, fresh)

    def test_a_run_costs_one_step(self):
        # 10^4 interned c tokens of the choice machine take the step once
        m = _bench_vpt()
        c, b = KindReads("c"), KindReads("b")
        doc = [tok_open("r")] + [c] * 10_000 + [b] + [c] * 10_000 + [tok_close("r")]
        res = preprocess(m, doc)
        assert (c.reads, b.reads) == (2, 1)  # one per run: c, b, c
        assert res.stats.totals().visits == 1 + 10_000 + 2 + 10_000 + 1 + 1
        c.reads = b.reads = 0
        preprocess(m, doc, lambda k, state, counts: None)
        assert c.reads + b.reads == 20_001  # with an observer every token takes its step


class TestFrontEnd:
    """The tokenizer's stream as the pass pulls it, and the letter check."""

    def test_observer_sees_the_tokens_before_a_bad_word(self):
        # the bad word sits in the middle of the only block: its block's
        # tokens before it still reach the pass, one observer call each
        m = _bench_vpt()
        seen = []
        with pytest.raises(TokenizeError, match=r"^unknown neutral symbol 'q' at token 5, line 2:3$"):
            preprocess(m, tokenize("<r b c\nb q c r>", m.alphabet), lambda k, state, counts: seen.append(k))
        assert seen == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([tok_open("r"), tok_neutral("z")], "unknown neutral symbol 'z' at position 2"),
            ([tok_open("r"), tok_open("b")], "unknown open symbol 'b' at position 2"),
            ([tok_open("r"), tok_close("c")], "unknown close symbol 'c' at position 2"),
            # a foreign close with nothing open is named before the nesting
            ([tok_close("z"), tok_open("r")], "unknown close symbol 'z' at position 1"),
        ],
    )
    def test_letters_outside_the_alphabet(self, doc, message):
        m = _bench_vpt()
        with pytest.raises(SymbolError, match=f"^{message}$"):
            preprocess(m, doc, alphabet=m.alphabet)
        try:
            preprocess(m, doc)  # without an alphabet the letter only finds no moves
        except NestingError:
            pass

    def test_stray_close_of_a_known_letter_is_a_nesting_error(self):
        m = _bench_vpt()
        with pytest.raises(NestingError, match="unbalanced close at position 1"):
            preprocess(m, [tok_close("r")], alphabet=m.alphabet)

    def test_letter_checked_once_per_plan(self, monkeypatch):
        checks = []
        real = engine._check

        def counted(alphabet, tok, k):
            checks.append(k)
            real(alphabet, tok, k)

        monkeypatch.setattr(engine, "_check", counted)
        m = _bench_vpt()
        doc = list(_bench_doc(2_000, 12))
        result = preprocess(m, doc, alphabet=m.alphabet)
        assert len(checks) == result.stats.plans < 10
        assert preprocess(m, doc).stats == result.stats  # without an alphabet, the same pass

