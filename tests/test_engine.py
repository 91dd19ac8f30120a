import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import product

import pytest

from vptenum import engine, spanner
from vptenum.cli import _bench_doc, _bench_vpt
from vptenum.ecs import EMPTY, EPSILON, IS_EPS, EcsArena
from vptenum.engine import (
    AmbiguityError,
    EngineState,
    EngineStats,
    NestingError,
    SymbolError,
    SymbolStats,
    accepts,
    evaluate,
    neutral_plan,
    open_plan,
    preprocess,
    resolve_mode,
    run_neutral,
    run_open,
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
    brackets,
    check_state_invariants,
    enumerate_words,
    random_det_vpt,
    random_machines,
    random_nondet_vpt,
    random_vpa,
    random_well_nested,
    reference_preprocess,
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
    """The output extension inlined in every step, seen through a neutral plan."""

    def step(self, out):
        m = marker_vpt()
        state = EngineState.initial(m)
        (q,) = m.initial
        run_neutral(state, neutral_plan(state.shapes, state.shape, {q: [(out, q)]}), 3)
        return state, state.table[(q, q)]

    def test_silent_is_identity(self):
        state, v = self.step(None)
        assert v == state.epsilon

    def test_extends_epsilon(self):
        state, v = self.step("o")
        assert lang(state.arena, v) == {(("o", 3),)}

    def test_sentinel_passes_through(self):
        # an entry without a move leaves no entry, never a stored EMPTY
        state = EngineState.initial(marker_vpt())
        run_neutral(state, neutral_plan(state.shapes, state.shape, {}), 3)
        assert state.table == {}


class TestSteps:
    def test_open_step_hand_example(self):
        m = three_state_marker()
        state = EngineState.initial(m)
        run_open(state, open_plan(state.shapes, state.shape, m.open_index["a"]), 1)
        assert set(state.table) == {("q1", "q1")}
        assert lang(state.arena, state.table[("q1", "q1")]) == {()}
        assert len(state.frames) == 1
        assert set(state.frames[0]) == {("q0", "X", "q1")}
        assert lang(state.arena, state.frames[0][("q0", "X", "q1")]) == {(("o", 1),)}

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

    def test_stats_out(self):
        stats = EngineStats()
        doc = brackets("(.)")
        list(evaluate(marker_vpt(), doc, stats_out=stats))
        assert stats.pulls == len(doc) + 1
        # the aggregates only; the per-token records come from an observer
        assert stats == preprocess(marker_vpt(), doc).stats
        records = SymbolRecords()
        preprocess(marker_vpt(), doc, records)
        assert len(records) == len(doc)
        totals = stats.totals()
        assert totals.visits > 0


def _arena_nodes(arena):
    return (arena.kinds, arena.lefts, arena.rights)


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
        # what a default pass keeps is the arena: three list slots per
        # node, plus a shared (out, k) payload per symbol leaf. At seven
        # slots per node the same pass kept about 158 B/token.
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
        assert kept / len(tokens) < 140, kept / len(tokens)


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
                assert res.arena.label(0) == EPSILON
                assert res.root in (EMPTY, 0)
                assert accepts(m, doc) == bool(oracle_enumerate(m, doc))


def _outcome(run, vpt, doc, observer):
    try:
        return run(vpt, doc, observer), None
    except ValueError as err:  # NestingError, or an arena operand check
        return None, (type(err), str(err))


def _recorders(vpt, initial):
    """Per-token counts, snapshots and checkpoints, and one observer for all three."""
    records = (SymbolRecords(), Snapshots(initial), Checkpoints(vpt))

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
    alphabet = replace(vpt.alphabet, neutrals=vpt.alphabet.neutrals | {IDLE})
    loops = {(q, IDLE, None, q) for q in vpt.states}
    return replace(vpt, alphabet=alphabet, neutrals=vpt.neutrals | loops)


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
                got_records, got_observer = _recorders(vpt, EngineState.initial(vpt))
                ref_records, ref_observer = _recorders(vpt, ReferenceState.initial(vpt))
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
        # unioned with the symbol's, whichever of the two slots is first
        for silent, loud in (("s1", "s2"), ("s2", "s1")):
            m = Vpt(
                states=frozenset({"q0", "s1", "s2", "t1", "t2", "f"}),
                alphabet=ALPH,
                stack_symbols=frozenset({"X"}),
                output_symbols=frozenset({"o"}),
                opens=frozenset(),
                closes=frozenset(),
                neutrals=frozenset(
                    {
                        ("q0", "c", None, "s1"),
                        ("q0", "c", None, "s2"),
                        (silent, "c", None, "t1"),
                        (loud, "c", "o", "t2"),
                        ("t1", "c", None, "f"),
                        ("t2", "c", None, "f"),
                    }
                ),
                initial=frozenset({"q0"}),
                final=frozenset({"f"}),
            )
            self.assert_same(m, brackets("..."))
            res = preprocess(m, brackets("..."))
            assert lang(res.arena, res.root) == {(), (("o", 2),)}

    def test_products_never_get_an_epsilon_operand(self, monkeypatch):
        # the plans fold every epsilon operand when they are compiled
        calls = []
        real_prod = EcsArena.prod

        def prod(arena, v1, v2):
            calls.append((arena.eps_case(v1), arena.eps_case(v2)))
            return real_prod(arena, v1, v2)

        monkeypatch.setattr(EcsArena, "prod", prod)
        rng = random.Random(74)
        makers = (random_det_vpt, random_nondet_vpt)
        for i in range(60):
            m = makers[i % 2](rng)
            preprocess(m, random_well_nested(rng, m.alphabet, rng.randint(0, 14)))
        tree = io_determinize(spanner.compile_vpeg(spanner.parse_vpeg(TREE_VPEG)))
        preprocess(tree, tree_document(random.Random(2), 500, 16))
        assert calls
        assert IS_EPS not in {case for pair in calls for case in pair}


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
        assert replace(totals, nodes_added=0) == replace(ref_totals, nodes_added=0)
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

    def test_a_run_costs_one_step(self, monkeypatch):
        # 10^4 interned c tokens of the choice machine run the step once
        calls = []
        real = engine.run_neutral

        def counted(state, plan, k):
            calls.append(k)
            return real(state, plan, k)

        monkeypatch.setattr(engine, "run_neutral", counted)
        m = _bench_vpt()
        doc = words(m, "<r " + "c " * 10_000 + "b " + "c " * 10_000 + "r>")
        res = preprocess(m, doc)
        assert calls == [2, 10_002, 10_003]  # one per run: c, b, c
        assert res.stats.totals().visits == 1 + 10_000 + 2 + 10_000 + 1 + 1
        calls.clear()
        preprocess(m, doc, lambda k, state, counts: None)
        assert len(calls) == 20_001  # with an observer every token takes its step


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

