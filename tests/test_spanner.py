"""Extraction grammars: parsing, compilation, span decoding, evaluation."""

import ast
import hashlib
import random
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest

from oracle_helpers import (
    TREE_VPEG,
    accepts,
    enumerate_refwords,
    grammar_mappings,
    markers_as_letters,
    random_doc_for_vpeg,
    random_functional_vpeg,
    random_machines,
    random_tiny_vpeg,
    random_vpeg,
    random_well_nested,
    reference_check_functional,
    tok_close,
    tok_neutral,
    tok_open,
    well_nested_words,
)
from vptenum.engine import NestingError
from vptenum.nested import Span
from vptenum.spanner import (
    END_MARKER,
    ChainProduction,
    EpsProduction,
    GrammarError,
    NestProduction,
    NotFunctionalError,
    SpanLayout,
    SpanMapping,
    Vpeg,
    check_functional,
    close_marker,
    compile_vpeg,
    decode_mapping,
    evaluate_spanner,
    evpa_to_vpt,
    nullable_set,
    open_marker,
    parse_vpeg,
    to_evpa,
)
from vptenum.vpt import ResourceCapError, is_io_deterministic, oracle_enumerate, stable_key

# Captures the content of exactly one top-level element of the document,
# one mapping per element; used throughout as the worked example.
ELEMENT_GRAMMAR = """
var x
start S
S -> <a A a> T | <a P a> S
A -> (x B
B -> c B | x) C
C -> eps
P -> c P | eps
T -> <a P a> T | eps
"""


def element_doc():
    # <a c c a> <a c a>
    return [
        tok_open("a"),
        tok_neutral("c"),
        tok_neutral("c"),
        tok_close("a"),
        tok_open("a"),
        tok_neutral("c"),
        tok_close("a"),
    ]


def spans_of(mapping: SpanMapping):
    return tuple((x, (s.start, s.end)) for x, s in mapping.spans)


def renders(vpeg, doc):
    return sorted(m.render() for m in evaluate_spanner(vpeg, doc))


# ------------------------------------------------------------- parsing


class TestParseVpeg:
    def test_worked_example(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        assert g.variables == frozenset({"x"})
        assert g.start == "S"
        assert g.nonterminals == frozenset({"S", "A", "B", "C", "P", "T"})
        assert g.alphabet.opens == frozenset({"a"})
        assert g.alphabet.neutrals == frozenset({"c"})
        assert len(g.productions) == 10
        assert ChainProduction("A", open_marker("x"), True, "B") in g.productions
        assert ChainProduction("B", close_marker("x"), True, "C") in g.productions
        assert NestProduction("S", "a", "A", "T") in g.productions
        assert EpsProduction("C") in g.productions

    def test_erase_only(self):
        g = parse_vpeg("start S\nS -> eps")
        assert g.variables == frozenset()
        assert g.productions == (EpsProduction("S"),)

    def test_comments_and_blank_lines(self):
        g = parse_vpeg("# spans\nstart S\n\nS -> eps  # erase\n")
        assert g.productions == (EpsProduction("S"),)

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\r"], ids=["vt", "ff", "fs", "nel", "ls", "ps", "cr"]
    )
    def test_only_newline_ends_a_line(self, sep):
        # other line breaks separate words, as in a document: this is one
        # var line declaring x, start and S
        with pytest.raises(GrammarError, match="^missing start line$"):
            parse_vpeg(f"var x{sep}start S\nS -> eps")
        # and a comment runs past them to the next "\n"
        with pytest.raises(GrammarError, match="^start symbol 'S' has no production$"):
            parse_vpeg(f"start S # note{sep}S -> eps\n")

    def test_crlf_is_one_line_break(self):
        text = "var x\nstart S\nS -> (x A  # open\nA -> x) B\nB -> c B | eps\n"
        assert parse_vpeg(text.replace("\n", "\r\n")) == parse_vpeg(text)

    def test_two_nonterminal_body_rejected(self):
        with pytest.raises(GrammarError, match="not a grammar shape"):
            parse_vpeg("start S\nS -> A B\nA -> eps\nB -> eps")

    def test_mismatched_bracket_letters(self):
        with pytest.raises(GrammarError, match="mismatched brackets"):
            parse_vpeg("start S\nS -> <a S b> S | eps")

    def test_unknown_nonterminal(self):
        with pytest.raises(GrammarError, match="unknown nonterminal 'T'"):
            parse_vpeg("start S\nS -> c T")

    def test_undeclared_variable(self):
        with pytest.raises(GrammarError, match="undeclared variable 'y'"):
            parse_vpeg("var x\nstart S\nS -> (y S | eps")

    def test_missing_start(self):
        with pytest.raises(GrammarError, match="missing start line"):
            parse_vpeg("S -> eps")

    def test_duplicate_start(self):
        with pytest.raises(GrammarError, match="duplicate start"):
            parse_vpeg("start S\nstart S\nS -> eps")

    def test_duplicate_variable(self):
        with pytest.raises(GrammarError, match="duplicate variable"):
            parse_vpeg("var x\nvar x\nstart S\nS -> eps")

    def test_start_without_production(self):
        with pytest.raises(GrammarError, match="'T' has no production"):
            parse_vpeg("start T\nS -> eps")

    def test_stray_bracket_symbol(self):
        with pytest.raises(GrammarError, match="stray bracket symbol"):
            parse_vpeg("start S\nS -> <a S | eps")

    def test_headless_line(self):
        with pytest.raises(GrammarError, match="expected a production"):
            parse_vpeg("start S\nS -> eps\njunk line")

    def test_heads_spelled_like_keywords(self):
        # a line whose second token is -> is a production, whatever its head
        g = parse_vpeg("var x\nstart S\nS -> (x T\nT -> x) var\nvar -> eps")
        assert g.variables == frozenset({"x"})
        assert g.nonterminals == frozenset({"S", "T", "var"})
        assert EpsProduction("var") in g.productions
        g = parse_vpeg("var x\nstart start\nstart -> (x T\nT -> x) T | c T | eps")
        assert g.start == "start"
        assert ChainProduction("start", open_marker("x"), True, "T") in g.productions

    def test_empty_alternative(self):
        with pytest.raises(GrammarError, match="empty alternative"):
            parse_vpeg("start S\nS -> eps | | c S")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("start S T\nS -> eps", "start line needs one symbol: 'start S T'"),
            ("start S\nS T -> eps", "production needs a single head: 'S T -> eps'"),
            ("var x\nstart S\nS -> y) S | eps", "undeclared variable 'y' in 'S'"),
            ("start S\nS -> a S a> S | eps", "malformed bracket production 'a S a> S' in 'S'"),
            ("start S\nS -> <a T a> S | eps", "unknown nonterminal 'T' in 'S'"),
            ("start S\nS -> c c S | eps", "rule 'S' -> 'c c S' rejected: not a grammar shape"),
        ],
        ids=["two-start-symbols", "two-token-head", "undeclared-close", "malformed-bracket",
             "bracket-unknown-nonterminal", "three-token-alternative"],
    )
    def test_rejected_with_message(self, text, message):
        with pytest.raises(GrammarError) as exc:
            parse_vpeg(text)
        assert type(exc.value) is GrammarError
        assert str(exc.value) == message


# ------------------------------------------------------- erasable set


class TestNullableSet:
    def test_direct_erasure(self):
        assert nullable_set(parse_vpeg("start S\nS -> eps")) == {"S"}

    def test_no_erasing_production(self):
        assert nullable_set(parse_vpeg("start S\nS -> c S")) == frozenset()

    def test_bracket_body_not_erasable(self):
        # S wraps brackets around A, so S itself never erases even though
        # both its children do.
        g = parse_vpeg("start S\nS -> <a A a> B\nA -> eps\nB -> eps")
        assert nullable_set(g) == {"A", "B"}


# ------------------------------------------------------ marker acceptor


class TestToEvpa:
    def test_structure(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        evpa = to_evpa(g)
        assert evpa.states == g.nonterminals
        assert evpa.initial == {"S"}
        assert evpa.final == nullable_set(g)
        # markers ride as extra neutral letters
        assert open_marker("x") in evpa.alphabet.neutrals
        assert close_marker("x") in evpa.alphabet.neutrals
        assert "c" in evpa.alphabet.neutrals

    def test_empty_language(self):
        g = parse_vpeg("start S\nS -> <a S a> S")
        evpa = to_evpa(g)
        assert evpa.final == frozenset()
        for word in well_nested_words(evpa.alphabet, 6):
            assert not accepts(evpa, word)

    def test_single_ref_word(self):
        g = parse_vpeg("var x\nstart S\nS -> (x A\nA -> a B\nB -> x) C\nC -> eps")
        evpa = to_evpa(g)
        the_word = (
            tok_neutral(open_marker("x")),
            tok_neutral("a"),
            tok_neutral(close_marker("x")),
        )
        accepted = [w for w in well_nested_words(evpa.alphabet, 4) if accepts(evpa, w)]
        assert accepted == [the_word]

    def test_ref_word_language_matches_grammar(self):
        # membership in L(to_evpa(G)) == derivability of the ref-word,
        # checked through the marker-as-letter twin of the grammar
        rng = random.Random(5)
        for i in range(8):
            g = random_vpeg(rng, rng.randint(0, 2)) if i % 2 else random_functional_vpeg(rng, i % 3 and 1)
            twin = markers_as_letters(g)
            evpa = to_evpa(g)
            words = [
                tuple(random_well_nested(rng, evpa.alphabet, rng.randint(0, 8)))
                for _ in range(120)
            ]
            for tagged in enumerate_refwords(g, 8):
                words.append(
                    tuple(
                        {"o": tok_open, "c": tok_close}.get(kind, tok_neutral)(sym)
                        for kind, sym in tagged
                    )
                )
            for word in words:
                assert accepts(evpa, word) == bool(grammar_mappings(twin, word))

    def test_operation_count_frozen(self):
        ops = []
        to_evpa(parse_vpeg(ELEMENT_GRAMMAR), ops=ops)
        # erasable set: one pass over 10 productions; main loop: 10
        # productions + 3 bracket productions x 3 erasing states
        assert ops == [29]

    def test_operation_count_linear(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_vpeg(rng, rng.randint(0, 2))
            ops = []
            to_evpa(g, ops=ops)
            assert ops[0] <= (3 + len(g.nonterminals)) * len(g.productions)


# -------------------------------------------------- functionality check


class TestCheckFunctional:
    def test_worked_example_passes(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        check_functional(to_evpa(g), g.variables)

    def test_unassigned_variable(self):
        g = parse_vpeg("var x\nstart S\nS -> eps")
        with pytest.raises(NotFunctionalError, match=r"variable\(s\) x unassigned"):
            check_functional(to_evpa(g), g.variables)

    def test_close_before_open(self):
        g = parse_vpeg("var x\nstart S\nS -> x) A\nA -> (x B\nB -> eps")
        with pytest.raises(NotFunctionalError, match="repeats or misorders"):
            check_functional(to_evpa(g), g.variables)

    def test_repeated_open(self):
        g = parse_vpeg("var x\nstart S\nS -> (x A\nA -> (x B\nB -> x) C\nC -> eps")
        with pytest.raises(NotFunctionalError, match="repeats or misorders"):
            check_functional(to_evpa(g), g.variables)

    def test_poisoned_books_reported_first(self):
        # x closed before it opens, or never opened: misuse wins
        g = parse_vpeg("var x y\nstart S\nS -> x) A | c B\nA -> eps\nB -> (x C\nC -> eps")
        with pytest.raises(NotFunctionalError, match="repeats or misorders"):
            check_functional(to_evpa(g), g.variables)

    def test_smallest_bad_books_named(self):
        # books (x, y) = (0, 2) and (2, 0) both accept; (0, 2) is smaller
        g = parse_vpeg("var x y\nstart S\nS -> (y A | (x B\nA -> y) F\nB -> x) F\nF -> eps")
        with pytest.raises(NotFunctionalError, match=r"variable\(s\) x unassigned$"):
            check_functional(to_evpa(g), g.variables)

    def test_one_bad_alternative_poisons(self):
        # the c-loop alternative lets a derivation skip the capture
        g = parse_vpeg("var x\nstart S\nS -> (x A | c S | eps\nA -> x) S")
        with pytest.raises(NotFunctionalError):
            check_functional(to_evpa(g), g.variables)


def probe_grammar(v: int) -> str:
    # any of v variables opened or closed anywhere, any number of times
    variables = " ".join(f"x{i}" for i in range(1, v + 1))
    alternatives = "".join(f"(x{i} S | x{i}) S | " for i in range(1, v + 1))
    return f"var {variables}\nstart S\nS -> {alternatives}c S | eps"


def grammars_of_the_tests():
    """Every string literal of the test files that parses as a grammar,
    and the demo grammars."""
    texts = set()
    here = Path(__file__).resolve().parent
    for path in sorted(here.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.add(node.value)
    texts.update(p.read_text(encoding="utf-8") for p in (here.parent / "demos" / "data").glob("*.vpeg"))
    grammars = []
    for text in sorted(texts):
        try:
            grammars.append(parse_vpeg(text))
        except GrammarError:
            pass
    return grammars


class TestCheckFunctionalPerVariable:
    """`check_functional` checks one variable at a time; the reference
    keeps one book vector of all of them. A variable's status moves only
    on its own markers, so the two must agree."""

    @staticmethod
    def outcome(check, g):
        try:
            check(to_evpa(g), g.variables)
        except NotFunctionalError as exc:
            return str(exc)
        return None

    def agree(self, g) -> str:
        got = self.outcome(check_functional, g)
        want = self.outcome(reference_check_functional, g)
        if want is None or want.endswith("repeats or misorders a capture"):
            assert got == want
            return "pass" if want is None else "misorders"
        # the reference lists every unassigned variable of its smallest
        # book vector; the first of them is the one named now
        head, _, names = want.rpartition("variable(s) ")
        first = names.removesuffix(" unassigned").split(", ")[0]
        assert got == f"{head}variable(s) {first} unassigned"
        return "unassigned, several" if ", " in names else "unassigned"

    def test_random_tiny_grammars(self):
        rng = random.Random(1919)
        kinds = Counter(self.agree(random_tiny_vpeg(rng, i % 5)) for i in range(5000))
        # every outcome shows up often enough for the comparison to bite
        assert min(kinds.values()) >= 50, kinds
        assert len(kinds) == 4, kinds

    def test_grammars_of_the_tests(self):
        grammars = grammars_of_the_tests() + [parse_vpeg(probe_grammar(v)) for v in range(1, 5)]
        assert len(grammars) >= 30
        kinds = Counter(map(self.agree, grammars))
        assert set(kinds) == {"pass", "misorders", "unassigned"}, kinds

    @pytest.mark.parametrize(
        "text, message",
        [
            (probe_grammar(14), "repeats or misorders a capture"),
            # each of 20 variables captured or skipped in turn: 2^20 book
            # vectors, and every variable must be checked to the end
            (
                "var " + " ".join(f"x{i}" for i in range(1, 21)) + "\nstart B0\nB20 -> eps\n"
                + "".join(f"B{i - 1} -> (x{i} A{i} | c B{i}\nA{i} -> x{i}) B{i}\n" for i in range(1, 21)),
                r"variable\(s\) x1 unassigned",
            ),
        ],
        ids=["probe-14", "optional-20"],
    )
    def test_linear_in_variables(self, text, message):
        # the reference's book vectors number up to 3^v; the statuses of
        # one variable at a time, 4v
        g = parse_vpeg(text)
        evpa = to_evpa(g)
        t0 = time.perf_counter()
        with pytest.raises(NotFunctionalError, match=message + "$"):
            check_functional(evpa, g.variables)
        assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------- transducer fusion


class TestEvpaToVpt:
    def test_no_captures_means_silent(self):
        g = parse_vpeg("start S\nS -> <a S a> S | c S | eps")
        vpt = compile_vpeg(g)
        assert vpt.output_symbols == frozenset()
        for trans in list(vpt.opens) + list(vpt.closes):
            assert trans[2] is None
        assert all(out is None for _, _, out, _ in vpt.neutrals)
        assert END_MARKER in vpt.alphabet.neutrals

    def test_marker_chain_fused_into_open(self):
        g = parse_vpeg("var x\nstart S\nS -> (x A\nA -> x) B\nB -> <g C g> D\nC -> eps\nD -> eps")
        vpt = compile_vpeg(g)
        by_source = {(q, a, out) for q, a, out, _, _ in vpt.opens}
        assert ("B", "g", None) in by_source
        assert ("A", "g", frozenset({close_marker("x")})) in by_source
        assert ("S", "g", frozenset({open_marker("x"), close_marker("x")})) in by_source
        assert len(vpt.opens) == 3

    def test_fresh_final_avoids_collision(self):
        g = parse_vpeg("start qf\nqf -> eps")
        vpt = compile_vpeg(g)
        assert vpt.final == frozenset({"qf_"})
        assert "qf_" in vpt.states

    def test_dead_marker_cycle_rejected(self):
        # the live part is functional; the unreachable C loop is still
        # a marker cycle, which chain fusion refuses
        g = parse_vpeg(
            "var x\nstart S\nS -> (x A\nA -> x) B\nB -> eps\nC -> (x C"
        )
        evpa = to_evpa(g)
        check_functional(evpa, g.variables)  # passes: C is unreachable
        with pytest.raises(GrammarError, match="form a cycle through state"):
            evpa_to_vpt(evpa, g.variables)

    def test_marker_cycle_refusal_names_least_state_on_a_cycle(self):
        rng = random.Random(2929)  # 1 460 of the draws have a marker cycle
        for i in range(5000):
            g = random_tiny_vpeg(rng, i % 3)
            evpa = to_evpa(g)
            markers = {m(x) for x in g.variables for m in (open_marker, close_marker)}
            edges = [(q, q2) for q, a, _, q2 in evpa.neutrals if a in markers]
            reach = {q: {q2 for p, q2 in edges if p == q} for q, _ in edges}
            for _ in evpa.states:  # close each reach[q] under the marker edges
                for after in reach.values():
                    after |= {r for p in list(after) for r in reach.get(p, ())}
            on_cycle = sorted((q for q in reach if q in reach[q]), key=stable_key)
            with pytest.raises(GrammarError) if on_cycle else nullcontext() as refused:
                evpa_to_vpt(evpa, g.variables)
            assert not on_cycle or str(refused.value).endswith(f"state {on_cycle[0]!r}")

    def test_chain_expansion_cap(self, monkeypatch):
        g = parse_vpeg(
            "var x y\nstart S\nS -> (x A\nA -> x) B\nB -> (y C\nC -> y) D\nD -> eps"
        )
        evpa = to_evpa(g)
        monkeypatch.setattr("vptenum.spanner.MAX_VPATHS", 5)
        with pytest.raises(ResourceCapError, match="marker chain expansion"):
            evpa_to_vpt(evpa, g.variables)
        # the four-marker chain has 4+3+2+1 contiguous pieces
        monkeypatch.setattr("vptenum.spanner.MAX_VPATHS", 10)
        evpa_to_vpt(evpa, g.variables)


class TestCompilePin:
    # compiled machines and determinism verdicts, pinned by their hashes:
    # a change to marker fusion, the erasable set or the determinism
    # test shows here, at any hash seed
    GRAMMARS = (
        ELEMENT_GRAMMAR,
        TREE_VPEG,
        "start S\nS -> <a S a> S | c S | eps",
        "start S\nS -> c S | eps",
        "start S\nS -> <a S a> S",
        "start qf\nqf -> eps",
        "start S\nS -> c A | c B\nA -> d C\nB -> d C\nC -> eps",
        "var x\nstart S\nS -> (x A\nA -> c B\nB -> x) C\nC -> eps",
        "var x\nstart S\nS -> c A\nA -> (x B\nB -> x) C\nC -> eps",
        "var x\nstart S\nS -> (x A\nA -> x) B\nB -> <g C g> D\nC -> eps\nD -> eps",
        "var x y\nstart S\nS -> (x A\nA -> x) B\nB -> (y C\nC -> y) D\nD -> eps",
        "var x y\nstart S\nS -> (x A\nA -> c B\nB -> x) C\nC -> (y D\nD -> c E\nE -> y) F\nF -> eps",
    )

    @staticmethod
    def machine_key(vpt) -> bytes:
        parts = (vpt.states, vpt.initial, vpt.final, vpt.stack_symbols, vpt.output_symbols)
        parts += (vpt.opens, vpt.closes, vpt.neutrals)
        return repr([sorted(map(stable_key, part)) for part in parts]).encode()

    def test_compiled_machines_and_verdicts(self):
        element = Path(__file__).resolve().parents[1] / "demos" / "data" / "element.vpeg"
        grammars = [parse_vpeg(text) for text in self.GRAMMARS]
        grammars.append(parse_vpeg(element.read_text(encoding="utf-8")))
        rng = random.Random(1717)
        for i in range(24):
            grammars.append(random_vpeg(rng, i % 3) if i % 2 else random_functional_vpeg(rng, i % 3 and 1))
        machines = hashlib.sha256()
        for g in grammars:
            vpt = compile_vpeg(g)
            machines.update(self.machine_key(vpt) + (b"1" if is_io_deterministic(vpt) else b"0"))
        verdicts = "".join("01"[is_io_deterministic(m)] for _, m, _ in random_machines())
        assert machines.hexdigest()[:16] == "9885a5a9b5bdb2d2"
        assert hashlib.sha256(verdicts.encode()).hexdigest()[:16] == "47f2aa5eae61ea21"


# -------------------------------------------------------- span decoding


class TestDecodeMapping:
    def test_plain_span(self):
        word = ((frozenset({open_marker("x")}), 2), (frozenset({close_marker("x")}), 4))
        m = decode_mapping(word, {"x"})
        assert m.spans == (("x", Span(2, 4)),)
        assert m.render() == "x=[2,4)"

    def test_empty_span_from_fused_pair(self):
        word = ((frozenset({open_marker("x"), close_marker("x")}), 3),)
        assert decode_mapping(word, {"x"}).render() == "x=[3,3)"

    def test_render_sorted_by_variable(self):
        word = (
            (frozenset({open_marker("y")}), 2),
            (frozenset({close_marker("y"), open_marker("x")}), 3),
            (frozenset({close_marker("x")}), 5),
        )
        assert decode_mapping(word, {"x", "y"}).render() == "x=[3,5) y=[2,3)"

    def test_no_variables(self):
        assert decode_mapping((), frozenset()).render() == ""

    def test_duplicate_capture(self):
        word = ((frozenset({open_marker("x")}), 1), (frozenset({open_marker("x")}), 2))
        with pytest.raises(NotFunctionalError, match="duplicate capture"):
            decode_mapping(word, {"x"})

    def test_missing_capture(self):
        word = ((frozenset({open_marker("x")}), 1),)
        with pytest.raises(NotFunctionalError, match="missing capture for variable 'x'"):
            decode_mapping(word, {"x"})

    def test_end_before_start(self):
        word = ((frozenset({close_marker("x")}), 1), (frozenset({open_marker("x")}), 3))
        with pytest.raises(NotFunctionalError, match="ends before it starts"):
            decode_mapping(word, {"x"})


class TestSpanLayout:
    def test_names_with_format_characters_print_literally(self):
        g = parse_vpeg(
            "var p%d q{0}\nstart S\nS -> (p%d A\nA -> c B\nB -> p%d) C\n"
            "C -> (q{0} D\nD -> c E\nE -> q{0}) F\nF -> eps"
        )
        doc = [tok_neutral("c"), tok_neutral("c")]
        assert renders(g, doc) == ["p%d=[1,2) q{0}=[2,3)"]
        word = (
            (frozenset({open_marker("p%d")}), 1),
            (frozenset({close_marker("p%d"), open_marker("q{0}")}), 2),
            (frozenset({close_marker("q{0}")}), 3),
        )
        assert decode_mapping(word, g.variables).render() == "p%d=[1,2) q{0}=[2,3)"

    def test_fused_close_and_open_fill_two_slots_at_one_position(self):
        # x) and (y sit between the two c's, so both markers fuse into
        # the second c's transition: one output symbol, two slots
        g = parse_vpeg(
            "var x y\nstart S\nS -> (x A\nA -> c B\nB -> x) C\n"
            "C -> (y D\nD -> c E\nE -> y) F\nF -> eps"
        )
        fused = frozenset({close_marker("x"), open_marker("y")})
        assert fused in compile_vpeg(g).output_symbols
        assert SpanLayout(["y", "x"]).compile(fused) == (1, 2)
        mappings = list(evaluate_spanner(g, [tok_neutral("c"), tok_neutral("c")]))
        assert [m.render() for m in mappings] == ["x=[1,2) y=[2,3)"]
        assert mappings[0].spans == (("x", Span(1, 2)), ("y", Span(2, 3)))
        assert mappings[0].bounds == (1, 2, 2, 3)

    def test_equal_by_value_across_layouts(self):
        word = ((frozenset({open_marker("x")}), 2), (frozenset({close_marker("x")}), 4))
        a = decode_mapping(word, {"x"})
        b = SpanLayout(["x"]).decode(word)
        assert a == b and hash(a) == hash(b)
        later = ((frozenset({open_marker("x")}), 2), (frozenset({close_marker("x")}), 5))
        assert a != SpanLayout(["x"]).decode(later)
        assert len({a, b, decode_mapping(later, {"x"})}) == 2
        assert a.__eq__(a.render()) is NotImplemented and a != a.render()
        assert repr(a) == "SpanMapping((('x', <2,4>),))"

    def test_first_bad_variable_in_sorted_order_is_reported(self):
        # x ends before it starts and y is missing: x is checked first
        word = (
            (frozenset({close_marker("x"), open_marker("y")}), 1),
            (frozenset({open_marker("x")}), 3),
        )
        with pytest.raises(NotFunctionalError, match="'x' ends before it starts"):
            decode_mapping(word, {"x", "y"})

    def test_position_before_the_document_rejected(self):
        word = ((frozenset({open_marker("x")}), 0), (frozenset({close_marker("x")}), 1))
        with pytest.raises(ValueError, match="invalid span"):
            decode_mapping(word, {"x"})

    def test_markers_of_other_variables_fill_no_slot(self):
        word = (
            (frozenset({open_marker("x"), open_marker("z")}), 2),
            (frozenset({close_marker("x")}), 4),
        )
        assert decode_mapping(word, {"x"}).render() == "x=[2,4)"


# ----------------------------------------------------------- evaluation


class TestEvaluateSpanner:
    def test_worked_example(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        doc = element_doc()
        assert renders(g, doc) == ["x=[2,4)", "x=[6,7)"]
        assert {spans_of(m) for m in evaluate_spanner(g, doc)} == grammar_mappings(g, doc)

    def test_empty_elements(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        doc = [tok_open("a"), tok_close("a"), tok_open("a"), tok_close("a")]
        assert renders(g, doc) == ["x=[2,2)", "x=[4,4)"]

    def test_single_derivation_single_mapping(self):
        g = parse_vpeg("var x\nstart S\nS -> (x A\nA -> c B\nB -> x) C\nC -> eps")
        assert renders(g, [tok_neutral("c")]) == ["x=[1,2)"]

    def test_trailing_capture_lands_past_the_end(self):
        # both markers fuse into the synthetic end marker at |d|+1
        g = parse_vpeg("var x\nstart S\nS -> c A\nA -> (x B\nB -> x) C\nC -> eps")
        assert renders(g, [tok_neutral("c")]) == ["x=[2,2)"]

    def test_rejected_document_yields_nothing(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        assert renders(g, [tok_neutral("c")]) == []

    def test_empty_language_grammar(self):
        g = parse_vpeg("start S\nS -> <a S a> S")
        assert renders(g, []) == []
        assert renders(g, [tok_open("a"), tok_close("a")]) == []

    def test_empty_document_no_captures(self):
        g = parse_vpeg("start S\nS -> c S | eps")
        assert [m.render() for m in evaluate_spanner(g, [])] == [""]

    def test_foreign_symbol_rejected(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        with pytest.raises(GrammarError, match="'z' not in grammar alphabet"):
            list(evaluate_spanner(g, [tok_neutral("z")]))

    def test_document_checked_as_it_is_pulled(self):
        # no copy of the document first: the pass meets the stray close
        # before the foreign symbol behind it is read
        g = parse_vpeg(ELEMENT_GRAMMAR)
        pulled = []

        def doc():
            for tok in [tok_close("a"), tok_neutral("z")]:
                pulled.append(tok)
                yield tok

        with pytest.raises(NestingError, match="unbalanced close at position 1"):
            list(evaluate_spanner(g, doc()))
        assert pulled == [tok_close("a")]

    def test_end_marker_symbol_rejected_in_document(self):
        g = parse_vpeg(ELEMENT_GRAMMAR)
        with pytest.raises(GrammarError, match="not in grammar alphabet"):
            list(evaluate_spanner(g, [tok_neutral(END_MARKER)]))

    @pytest.mark.parametrize(
        "tok",
        [
            tok_open(END_MARKER),
            tok_close(END_MARKER),
            tok_neutral(END_MARKER),
            tok_open("z"),
            tok_close("z"),
            tok_neutral("z"),
            tok_open("c"),
            tok_neutral("a"),
        ],
        ids=repr,
    )
    def test_symbol_of_each_kind_checked(self, tok):
        # the end marker and foreign names are refused as any kind, and
        # a grammar letter only as the kind it was declared with
        g = parse_vpeg(ELEMENT_GRAMMAR)
        with pytest.raises(GrammarError, match=f"{tok.name!r} not in grammar alphabet"):
            list(evaluate_spanner(g, [tok_open("a"), tok, tok_close("a")]))

    @pytest.mark.parametrize("tok", [tok_close("z"), tok_close(END_MARKER), tok_close("c")], ids=repr)
    def test_stray_foreign_close_named_for_its_letter(self, tok):
        # nothing is open, yet the letter is refused first: the pass
        # checks it before it looks for the open to pop
        g = parse_vpeg(ELEMENT_GRAMMAR)
        with pytest.raises(GrammarError, match=f"{tok.name!r} not in grammar alphabet"):
            list(evaluate_spanner(g, [tok, tok_open("a")]))

    def test_not_functional_surfaces(self):
        g = parse_vpeg("var x\nstart S\nS -> eps")
        with pytest.raises(NotFunctionalError):
            list(evaluate_spanner(g, []))

    def test_ambiguous_grammar_deduplicated(self):
        # two derivations of "c d" compile to a transducer that is not
        # structurally deterministic; determinization squeezes the
        # duplicate mapping out
        g = parse_vpeg("start S\nS -> c A | c B\nA -> d C\nB -> d C\nC -> eps")
        assert not is_io_deterministic(compile_vpeg(g))
        doc = [tok_neutral("c"), tok_neutral("d")]
        assert [m.render() for m in evaluate_spanner(g, doc)] == [""]

    def test_matches_derivation_oracle(self):
        rng = random.Random(42)
        for i in range(12):
            if i % 3 == 0:
                g = random_vpeg(rng, rng.randint(1, 2))
            else:
                g = random_functional_vpeg(rng, rng.choice([0, 1]))
            docs = []
            for _ in range(5):
                d = random_doc_for_vpeg(rng, g, 10)
                if d is not None:
                    docs.append(d)
            for _ in range(3):
                docs.append(random_well_nested(rng, g.alphabet, rng.randint(0, 10)))
            for doc in docs:
                got = list(evaluate_spanner(g, doc))
                got_set = frozenset(spans_of(m) for m in got)
                assert len(got) == len(got_set)
                assert got_set == grammar_mappings(g, doc)
                for m in got:
                    for _, s in m.spans:
                        assert 1 <= s.start <= s.end <= len(doc) + 1

    def test_renders_match_decoded_oracle_words(self):
        # the streamed mappings and the brute-force output words of the
        # compiled transducer, decoded one by one, print the same lines
        rng = random.Random(43)
        end = tok_neutral(END_MARKER)
        for i in range(12):
            if i % 3 == 0:
                g = random_vpeg(rng, rng.randint(1, 2))
            else:
                g = random_functional_vpeg(rng, rng.choice([0, 1, 2]))
            vpt = compile_vpeg(g)
            docs = [random_doc_for_vpeg(rng, g, 10) for _ in range(5)]
            docs += [random_well_nested(rng, g.alphabet, rng.randint(0, 10)) for _ in range(3)]
            for doc in (d for d in docs if d is not None):
                got = [m.render() for m in evaluate_spanner(g, doc)]
                want = {
                    decode_mapping(w, g.variables).render()
                    for w in oracle_enumerate(vpt, list(doc) + [end])
                }
                assert len(got) == len(set(got))
                assert set(got) == want
