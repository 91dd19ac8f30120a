"""Text format for machines: parsing, serialization, diagnostics."""

import random

import pytest

from oracle_helpers import random_det_vpt, random_nondet_vpt, random_vpa, replaced
from vptenum.formats import FormatError, parse_vpt, serialize_vpt
from vptenum.spanner import compile_vpeg, parse_vpeg
from vptenum.nested import StructuredAlphabet
from vptenum.vpt import Vpt, io_determinize


def one_state(q) -> Vpt:
    """A machine with the one state q, initial and final, and nothing else."""
    none = frozenset()
    return Vpt(
        states=frozenset({q}),
        alphabet=StructuredAlphabet(opens=none, closes=none, neutrals=none),
        stack_symbols=none,
        output_symbols=none,
        opens=none,
        closes=none,
        neutrals=none,
        initial=frozenset({q}),
        final=frozenset({q}),
    )

VPT_TEXT = """\
states: q0 q1 qf
initial: q0
final: qf
stack: X
outputs: o
open a q0 -> q1 push X out o
close a q1 pop X -> qf out -
"""

# an acceptor: no outputs: header, out - on every transition line
VPA_TEXT = """\
states: q0 q1
initial: q0
final: q1
stack: X
open a q0 -> q0 push X out -
close a q0 pop X -> q1 out -
close a q1 pop X -> q1 out -
neutral c q0 -> q0 out -
"""


class TestParse:
    def test_vpt_fields(self):
        vpt = parse_vpt(VPT_TEXT)
        assert vpt.states == {"q0", "q1", "qf"}
        assert vpt.initial == {"q0"}
        assert vpt.final == {"qf"}
        assert vpt.stack_symbols == {"X"}
        assert vpt.output_symbols == {"o"}
        assert vpt.opens == {("q0", "a", "o", "q1", "X")}
        assert vpt.closes == {("q1", "a", None, "X", "qf")}
        assert vpt.neutrals == frozenset()
        assert vpt.alphabet.opens == {"a"}
        assert vpt.alphabet.closes == {"a"}

    def test_vpa_fields(self):
        vpa = parse_vpt(VPA_TEXT)
        assert vpa.output_symbols == frozenset()
        assert vpa.opens == {("q0", "a", None, "q0", "X")}
        assert vpa.closes == {("q0", "a", None, "X", "q1"), ("q1", "a", None, "X", "q1")}
        assert vpa.neutrals == {("q0", "c", None, "q0")}

    def test_comments_and_blank_lines(self):
        text = "# a machine\n\n" + VPT_TEXT + "\n   # trailing note\n"
        assert parse_vpt(text) == parse_vpt(VPT_TEXT)

    def test_hash_inside_symbol_is_not_a_comment(self):
        text = (
            "states: q0 q1\ninitial: q0\nfinal: q1\n"
            "neutral a#b q0 -> q1 out -\n"
        )
        vpa = parse_vpt(text)
        assert vpa.neutrals == {("q0", "a#b", None, "q1")}

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\r"], ids=["vt", "ff", "fs", "nel", "ls", "ps", "cr"]
    )
    def test_only_newline_ends_a_line(self, sep):
        # other line breaks separate words, as in a document: the first
        # line declares the states q0, initial: and q0, so frob is on line 3
        with pytest.raises(FormatError) as exc:
            parse_vpt(f"states: q0{sep}initial: q0\nfinal: q0\nfrob\n")
        assert str(exc.value) == "line 3: unrecognized line: 'frob'"
        # and a comment runs past them to the next "\n"
        text = VPA_TEXT + f"# note{sep}neutral d q0 -> q0 out -\n"
        assert parse_vpt(text) == parse_vpt(VPA_TEXT)

    def test_crlf_is_one_line_break(self):
        with pytest.raises(FormatError) as exc:
            parse_vpt("states: q0\r\ninitial: q0\r\nfinal: q0\r\nfrob\r\n")
        assert str(exc.value) == "line 4: unrecognized line: 'frob'"
        assert parse_vpt(VPA_TEXT.replace("\n", "\r\n")) == parse_vpt(VPA_TEXT)

    def test_stack_header_optional_without_brackets(self):
        text = "states: q0\ninitial: q0\nfinal: q0\nneutral c q0 -> q0 out -\n"
        vpa = parse_vpt(text)
        assert vpa.stack_symbols == frozenset()

    def test_missing_required_headers(self):
        for missing in ("states", "initial", "final"):
            text = "\n".join(
                line
                for line in VPA_TEXT.splitlines()
                if not line.startswith(missing)
            )
            with pytest.raises(FormatError, match=f"missing {missing}: header"):
                parse_vpt(text)

    @pytest.mark.parametrize("header", ["initial", "final"])
    def test_undeclared_initial_or_final_state(self, header):
        text = VPA_TEXT.replace(f"{header}: q", f"{header}: q9 q")
        with pytest.raises(FormatError, match=f"{header}: header names undeclared state\\(s\\) q9"):
            parse_vpt(text)

    def test_duplicate_header(self):
        with pytest.raises(FormatError, match="line 2: duplicate states: header"):
            parse_vpt("states: q0\nstates: q0\ninitial: q0\nfinal: q0\n")

    def test_malformed_open(self):
        bad = "states: q0\ninitial: q0\nfinal: q0\nstack: X\nopen a q0 -> q0 push out -\n"
        with pytest.raises(FormatError, match="line 5: malformed open transition"):
            parse_vpt(bad)

    def test_malformed_close_keyword(self):
        bad = (
            "states: q0\ninitial: q0\nfinal: q0\nstack: X\noutputs:\n"
            "close a q0 push X -> q0 out -\n"
        )
        with pytest.raises(FormatError, match="line 6: malformed close transition"):
            parse_vpt(bad)

    def test_missing_out_field(self):
        bad = "states: q0\ninitial: q0\nfinal: q0\nneutral c q0 -> q0\n"
        with pytest.raises(FormatError, match="line 4: malformed neutral transition"):
            parse_vpt(bad)

    def test_unrecognized_line(self):
        with pytest.raises(FormatError, match="line 2: unrecognized line"):
            parse_vpt("states: q0\nhop a q0 q0\ninitial: q0\nfinal: q0\n")

    def test_undeclared_state(self):
        bad = "states: q0\ninitial: q0\nfinal: q0\nneutral c q0 -> q9 out -\n"
        with pytest.raises(FormatError, match="line 4: undeclared state"):
            parse_vpt(bad)

    def test_undeclared_stack_symbol(self):
        bad = "states: q0\ninitial: q0\nfinal: q0\nopen a q0 -> q0 push Y out -\n"
        with pytest.raises(FormatError, match="line 4: undeclared stack symbol 'Y'"):
            parse_vpt(bad)

    def test_undeclared_output(self):
        bad = (
            "states: q0\ninitial: q0\nfinal: q0\noutputs: o\n"
            "neutral c q0 -> q0 out p\n"
        )
        with pytest.raises(FormatError, match="line 5: undeclared output 'p'"):
            parse_vpt(bad)

    def test_bracket_letter_reused_as_neutral(self):
        bad = (
            "states: q0\ninitial: q0\nfinal: q0\nstack: X\n"
            "open a q0 -> q0 push X out -\nneutral a q0 -> q0 out -\n"
        )
        with pytest.raises(FormatError, match="both as bracket and neutral: a"):
            parse_vpt(bad)

    def test_first_bad_line_in_file_order(self):
        bad = (
            "states: q0\ninitial: q0\nfinal: q0\nstack: X\n"
            "neutral c q0 -> q9 out -\nopen a q0 -> q0 push Y out -\n"
        )
        with pytest.raises(FormatError, match="^line 5: undeclared state"):
            parse_vpt(bad)

    @pytest.mark.parametrize(
        "full", ["open a q0 -> q0 push X out -", "close a q0 pop X -> q0 out -", "neutral c q0 -> q0 out -"]
    )
    def test_truncated_transition(self, full):
        words = (full + " extra").split()
        kind = words[0]
        for n in range(1, 9):
            if n == len(words) - 1:
                continue  # the whole neutral line
            text = "states: q0\ninitial: q0\nfinal: q0\nstack: X\n" + " ".join(words[:n]) + "\n"
            with pytest.raises(FormatError, match=f"^line 5: malformed {kind} transition"):
                parse_vpt(text)

    def test_letter_headers(self):
        # header letters join the letters of the transition lines
        vpa = parse_vpt(VPA_TEXT + "opens: b\ncloses: b e\nneutrals: c d\n")
        assert vpa.alphabet == StructuredAlphabet(opens={"a", "b"}, closes={"a", "b", "e"}, neutrals={"c", "d"})
        with pytest.raises(FormatError, match="both as bracket and neutral: b"):
            parse_vpt(VPA_TEXT + "opens: b\nneutrals: b\n")

    def test_shared_open_close_letter_is_the_pairing(self):
        # <a ... a> uses one letter for both faces of the bracket
        vpa = parse_vpt(VPA_TEXT)
        assert vpa.alphabet.opens == vpa.alphabet.closes == {"a"}


class TestSerialize:
    def test_golden_vpt(self):
        assert serialize_vpt(parse_vpt(VPT_TEXT)) == VPT_TEXT

    def test_golden_vpa(self):
        assert serialize_vpt(parse_vpt(VPA_TEXT)) == VPA_TEXT

    def test_vpt_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(25):
            vpt = random_det_vpt(rng)
            back = parse_vpt(serialize_vpt(vpt))
            assert back.opens == vpt.opens
            assert back.closes == vpt.closes
            assert back.neutrals == vpt.neutrals
            assert back.states == vpt.states
            assert back.initial == vpt.initial
            assert back.final == vpt.final
            assert back.stack_symbols == vpt.stack_symbols
            assert back.output_symbols == vpt.output_symbols
            # the parser infers the alphabet from the transitions, so
            # letters no transition uses do not survive the trip
            assert back.alphabet.opens <= vpt.alphabet.opens
            assert back.alphabet.neutrals <= vpt.alphabet.neutrals

    def test_vpa_round_trip_random(self):
        rng = random.Random(4)
        for _ in range(25):
            vpa = random_vpa(rng)
            back = parse_vpt(serialize_vpt(vpa))
            assert back.opens == vpa.opens
            assert back.closes == vpa.closes
            assert back.neutrals == vpa.neutrals
            assert (back.states, back.initial, back.final) == (
                vpa.states,
                vpa.initial,
                vpa.final,
            )

    @pytest.mark.parametrize("make", [random_det_vpt, random_nondet_vpt, random_vpa])
    def test_unused_letters_round_trip(self, make):
        rng = random.Random(6)
        for _ in range(20):
            m = make(rng)
            letters = m.alphabet
            m = replaced(
                m,
                alphabet=StructuredAlphabet(letters.opens | {"e"}, letters.closes | {"f"}, letters.neutrals | {"g"}),
            )
            for machine in (m, io_determinize(m)):
                assert parse_vpt(serialize_vpt(machine)) == machine

    def test_bracket_neutral_letter_cannot_serialize(self):
        letters = StructuredAlphabet(opens={"a"}, closes={"b"}, neutrals={"a", "b", "c"})
        vpt = replaced(one_state("q"), alphabet=letters)
        with pytest.raises(FormatError, match="neutral: a, b; this machine cannot be written in the text format"):
            serialize_vpt(vpt)

    def test_structured_outputs_cannot_serialize(self):
        # compiled spanners emit marker sets, which are not plain words
        vpt = compile_vpeg(
            parse_vpeg("var x\nstart S\nS -> (x A\nA -> x) B\nB -> c B | eps")
        )
        with pytest.raises(FormatError, match="not a plain word"):
            serialize_vpt(vpt)

    def test_dash_output_cannot_serialize(self):
        # `out -` is the no-output mark, so an output named `-` would come
        # back as a silent step
        vpt = replaced(
            one_state("q"),
            alphabet=StructuredAlphabet(opens=frozenset(), closes=frozenset(), neutrals=frozenset({"c"})),
            output_symbols=frozenset({"-"}),
            neutrals=frozenset({("q", "c", "-", "q")}),
        )
        with pytest.raises(FormatError, match="output symbol '-' would read back as no output"):
            serialize_vpt(vpt)

    def test_tuple_state_cannot_serialize(self):
        with pytest.raises(FormatError, match="not a plain word"):
            serialize_vpt(one_state(("q", 0)))

    def test_space_in_symbol_cannot_serialize(self):
        with pytest.raises(FormatError, match="not a plain word"):
            serialize_vpt(one_state("q 0"))
