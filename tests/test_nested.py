import io
import itertools
import random
import time

from vptenum import nested

import pytest
from hypothesis import given, strategies as st

from vptenum.nested import (
    Span,
    StructuredAlphabet,
    Token,
    TokenKind,
    TokenizeError,
    token_of_word,
    tokenize,
    tokenize_blocks,
)

from oracle_helpers import (
    brackets,
    currlevel,
    currlevel_by_scan,
    is_well_nested,
    lowerlevel,
    lowerlevel_by_scan,
    random_well_nested,
    serialize,
    tok_close,
    tok_neutral,
    tok_open,
    tokenize_by_chars,
    well_nested_words,
)

ALPH = StructuredAlphabet(
    opens=frozenset({"a", "b"}),
    closes=frozenset({"a", "b"}),
    neutrals=frozenset({"c", "item"}),
)
PAIR_ALPH = StructuredAlphabet(frozenset({"a"}), frozenset({"a"}), frozenset({"c"}))


class TestTokenize:
    def test_basic_words(self):
        toks = list(tokenize("<a c item a>", ALPH))
        assert toks == [
            Token(TokenKind.OPEN, "a"),
            Token(TokenKind.NEUTRAL, "c"),
            Token(TokenKind.NEUTRAL, "item"),
            Token(TokenKind.CLOSE, "a"),
        ]

    def test_comments_and_whitespace(self):
        text = "  <a\tc # rest of line ignored\n  a>\n# all of it\n"
        toks = list(tokenize(text, ALPH))
        assert serialize(toks) == "<a c a>"

    def test_stream_input(self):
        toks = list(tokenize(io.StringIO("<b c b>"), ALPH))
        assert [t.kind for t in toks] == [TokenKind.OPEN, TokenKind.NEUTRAL, TokenKind.CLOSE]

    def test_unknown_symbol(self):
        with pytest.raises(TokenizeError):
            list(tokenize("<zzz", ALPH))
        with pytest.raises(TokenizeError):
            list(tokenize("q", ALPH))

    def test_malformed(self):
        with pytest.raises(TokenizeError):
            token_of_word("<a>", ALPH)
        with pytest.raises(TokenizeError):
            token_of_word("<", ALPH)
        with pytest.raises(TokenizeError):
            token_of_word(">", ALPH)

    def test_same_name_across_classes(self):
        # 'a' opens, closes, and (here) also appears neutral
        alph = StructuredAlphabet(frozenset({"a"}), frozenset({"a"}), frozenset({"a"}))
        toks = list(tokenize("<a a a>", alph))
        assert [t.kind for t in toks] == [TokenKind.OPEN, TokenKind.NEUTRAL, TokenKind.CLOSE]
        assert {t.name for t in toks} == {"a"}

    def test_round_trip(self):
        text = "<a <b c b> c a> item"
        assert serialize(tokenize(text, ALPH)) == text

    def test_unknown_symbol_position(self):
        with pytest.raises(
            TokenizeError, match=r"^unknown neutral symbol 'q' at token 4, line 2:3$"
        ):
            list(tokenize("<a c\nc q a>", ALPH))

    def test_malformed_token_on_line_3(self):
        text = "<a c # a comment <b>\n\titem\n  c <b> a>\n"
        with pytest.raises(TokenizeError, match=r"^malformed token '<b>' at token 5, line 3:5$"):
            list(tokenize(text, ALPH))

    def test_position_of_a_token_split_across_blocks(self, monkeypatch):
        monkeypatch.setattr(nested, "BLOCK_CHARS", 4)
        with pytest.raises(TokenizeError, match=r"^unknown neutral symbol 'itex' at token 3, line 2:4$"):
            list(tokenize("<a c\n   itex a>", ALPH))

    def test_comment_ends_only_at_newline(self):
        # \r, \x0b, \x1c, \x85 and \u2028 split tokens but do not end a comment
        for brk in ("\r", "\x0b", "\x1c", "\x85", "\u2028"):
            text = f"<a # q{brk}q\nc{brk}a>"
            assert serialize(tokenize(text, ALPH)) == "<a c a>"

    def test_mid_token_hash_is_part_of_the_token(self):
        with pytest.raises(TokenizeError, match=r"'c#d' at token 2, line 1:4"):
            list(tokenize("<a c#d a>", ALPH))

    def test_a_long_word_is_refused_early(self):
        # a 10 MB word is refused once it outgrows every symbol, not carried
        # to its end, and the message names only its first characters
        text = "<a c\n " + "x" * 10_000_000 + " a>"
        start = time.perf_counter()
        with pytest.raises(TokenizeError) as exc:
            list(tokenize(text, ALPH))
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == "word starting 'xxxxx' is longer than any symbol at token 3, line 2:2"

    def test_a_long_word_in_a_stream_is_refused_after_one_piece(self):
        pulled = []

        def pieces():
            yield "<a c\n "
            for _ in range(10_000):  # one word of 10 MB
                pulled.append(1)
                yield "x" * 1_000

        with pytest.raises(TokenizeError, match=r"^word starting 'xxxxx' .* at token 3, line 2:2$"):
            list(tokenize(pieces(), ALPH))
        assert len(pulled) == 1

    def test_a_word_past_the_longest_symbol_is_named_by_its_start(self):
        # the same message whether the word ends in its block or is cut
        # off by a block edge, so it cannot depend on the word's end
        assert str(pytest.raises(TokenizeError, token_of_word, "itemitem>", ALPH).value) == (
            "word starting 'itemi' is longer than any symbol"
        )
        assert ALPH.longest_word == 5


# fragments for random documents: words, bad words, comment starts,
# and the separators that split tokens (\n alone ends a comment)
_WORDS = ["<a", "a>", "<b", "b>", "c", "item"]
_BAD = ["q", "<>", "<a>", "<", ">", "<zz", "zz>", "a#b", "c#"]
_COMMENTS = ["#", "# note <a", "#c", "##"]
_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\u2003", "\u2028", "\x85", ""]


def _random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.7:
            parts.append(rng.choice(_WORDS))
        elif roll < 0.8:
            parts.append(rng.choice(_BAD))
        else:
            parts.append(rng.choice(_COMMENTS))
        parts.append(rng.choice(_SPACES))
    return "".join(parts)


def _prefix_and_error(tokens):
    """The tokens that come out, and the error message after them or None."""
    got = []
    try:
        for tok in tokens:
            got.append(tok)
    except TokenizeError as exc:
        return got, str(exc)
    return got, None


def _flat_blocks(source):
    """``_prefix_and_error`` over the blocks' lists, checking that each is a list."""
    got = []
    try:
        for block in tokenize_blocks(source, ALPH):
            assert type(block) is list
            got.extend(block)
    except TokenizeError as exc:
        return got, str(exc)
    return got, None


# comments long enough to cross blocks of 7 characters, with words and
# hashes inside them and a line break or a block edge behind them
_LONG_COMMENTS = ["# <a c a> item q", "#" * 9, "#c <b\t##", "#\u2028<a c"]


def _random_text_long_comments(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.6:
            parts.append(rng.choice(_WORDS))
        elif roll < 0.7:
            parts.append(rng.choice(_BAD))
        else:
            parts.append(rng.choice(_LONG_COMMENTS + _COMMENTS))
        parts.append(rng.choice(_SPACES))
    return "".join(parts)


class TestTokenizeAgainstCharLoop:
    """The block tokenizer against the character loop it replaced."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, nested.BLOCK_CHARS])
    def test_blocks_flatten_to_the_reference(self, block, monkeypatch):
        # one list per block; before an error, exactly the tokens the
        # character loop yields before its error, then the same message
        monkeypatch.setattr(nested, "BLOCK_CHARS", block)
        rng = random.Random(2010_06038 + block)
        for _ in range(300):
            text = _random_text_long_comments(rng)
            want = _prefix_and_error(tokenize_by_chars(text, ALPH))
            assert _flat_blocks(text) == want, repr(text)
            assert _flat_blocks(io.StringIO(text)) == want, repr(text)
            assert _prefix_and_error(tokenize(text, ALPH)) == want, repr(text)
            for cut in range(len(text) + 1):
                assert _flat_blocks(iter([text[:cut], text[cut:]])) == want, (repr(text), cut)

    @pytest.mark.parametrize("shift", range(-3, 4))
    def test_comment_across_a_full_block_edge(self, shift):
        # a comment that starts a few characters before or after the end
        # of the first BLOCK_CHARS block and ends on the next line
        head = "c " * ((nested.BLOCK_CHARS + shift) // 2)
        for tail in ("# <b> q #\n<a c #x\nq a>", "#\n#\n\titem <z", "#" * 5 + "\nc"):
            text = head + tail
            want = _prefix_and_error(tokenize_by_chars(text, ALPH))
            assert _flat_blocks(text) == want
            assert _flat_blocks(io.StringIO(text)) == want

    def test_one_list_per_block(self, monkeypatch):
        monkeypatch.setattr(nested, "BLOCK_CHARS", 4)
        blocks = list(tokenize_blocks("<a c c a>", ALPH))
        # blocks "<a c", " c a", ">" and the end: a word cut by a block
        # edge comes out with the block that completes it
        assert blocks == [[tok_open("a")], [tok_neutral("c"), tok_neutral("c")], [], [tok_close("a")]]

    def test_prefix_of_the_bad_block_comes_first(self):
        blocks = tokenize_blocks("<a c\nc q a>", ALPH)
        assert next(blocks) == [tok_open("a"), tok_neutral("c"), tok_neutral("c")]
        with pytest.raises(TokenizeError, match=r"^unknown neutral symbol 'q' at token 4, line 2:3$"):
            next(blocks)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, nested.BLOCK_CHARS])
    def test_random_texts(self, block, monkeypatch):
        monkeypatch.setattr(nested, "BLOCK_CHARS", block)
        rng = random.Random(2010_06037 + block)
        for _ in range(300):
            text = _random_text(rng)
            want = _prefix_and_error(tokenize_by_chars(text, ALPH))
            assert _prefix_and_error(tokenize(text, ALPH)) == want, repr(text)
            assert _prefix_and_error(tokenize(io.StringIO(text), ALPH)) == want, repr(text)
            for cut in range(len(text) + 1):
                chunks = iter([text[:cut], text[cut:]])
                assert _prefix_and_error(tokenize(chunks, ALPH)) == want, (repr(text), cut)

    def test_reference_errors_carry_positions(self):
        assert _prefix_and_error(tokenize_by_chars("c\n\r\n  <b> c", ALPH)) == (
            [tok_neutral("c")],
            "malformed token '<b>' at token 2, line 3:3",
        )

    def test_lazy_over_chunks(self):
        pulled = []

        def chunks():
            for chunk in ["<a c ", "c a>", "q"]:
                pulled.append(chunk)
                yield chunk

        stream = tokenize(chunks(), ALPH)
        assert next(stream) == tok_open("a")
        assert pulled == ["<a c "]
        assert next(stream) == tok_neutral("c")
        assert pulled == ["<a c "]
        with pytest.raises(TokenizeError, match="'a>q' at token 4"):
            list(stream)


class TestNestedness:
    def test_validate(self):
        assert is_well_nested(brackets("(()(()))"))
        assert is_well_nested([])
        assert not is_well_nested(brackets("(()"))
        assert not is_well_nested(brackets(")("))
        # mismatched names still nest: any open pairs with any close
        assert is_well_nested(list(tokenize("<a b>", ALPH)))


class TestSpans:
    def test_span_validation(self):
        assert Span(2, 2).start == 2
        with pytest.raises(ValueError):
            Span(3, 2)
        with pytest.raises(ValueError):
            Span(0, 1)

    def test_frozen_values(self):
        doc = brackets("(()(()))")
        assert currlevel(doc, 8) == Span(2, 8)
        assert lowerlevel(doc, 7) == Span(2, 4)
        assert currlevel(doc, 9) == Span(1, 9)
        assert lowerlevel(doc, 9) is None

    def test_all_positions_of_fixture(self):
        doc = brackets("(()(()))")
        expected = {
            1: Span(1, 1),
            2: Span(2, 2),
            3: Span(3, 3),
            4: Span(2, 4),
            5: Span(5, 5),
            6: Span(6, 6),
            7: Span(5, 7),
            8: Span(2, 8),
            9: Span(1, 9),
        }
        for k, span in expected.items():
            assert currlevel(doc, k) == span

    def test_neutrals_never_break_level(self):
        doc = brackets("..(.).")
        assert currlevel(doc, 3) == Span(1, 3)
        assert currlevel(doc, 4) == Span(4, 4)
        assert currlevel(doc, 7) == Span(1, 7)
        assert lowerlevel(doc, 5) == Span(1, 3)

    def test_out_of_range(self):
        doc = brackets("()")
        with pytest.raises(ValueError):
            currlevel(doc, 0)
        with pytest.raises(ValueError):
            currlevel(doc, 4)

    def test_unbalanced_close_reported(self):
        doc = brackets("())")
        with pytest.raises(ValueError, match=r"unbalanced close at position 3"):
            currlevel(doc, 4)

    def test_against_scan_oracle_random(self):
        rng = random.Random(7)
        alph = StructuredAlphabet(frozenset({"a"}), frozenset({"a"}), frozenset({"c"}))
        for _ in range(60):
            doc = random_well_nested(rng, alph, rng.randint(0, 14))
            for k in range(1, len(doc) + 2):
                assert currlevel(doc, k) == currlevel_by_scan(doc, k)
                assert lowerlevel(doc, k) == lowerlevel_by_scan(doc, k)


@st.composite
def bracket_strings(draw):
    # generates well-nested shorthand by construction
    parts = draw(st.lists(st.sampled_from([".", "()", "(.)", "(())"]), max_size=6))
    return "".join(parts)


class TestWellNestedWords:
    def test_small_counts_match_bruteforce(self):
        # Motzkin counts for 1 bracket pair + 1 neutral
        words = well_nested_words(PAIR_ALPH, 6)
        by_len: dict[int, int] = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {0: 1, 1: 1, 2: 2, 3: 4, 4: 9, 5: 21, 6: 51}
        # cross-check length 4 exhaustively
        pool = [tok_open("a"), tok_close("a"), tok_neutral("c")]
        brute = {
            seq
            for seq in itertools.product(pool, repeat=4)
            if is_well_nested(list(seq))
        }
        assert {w for w in words if len(w) == 4} == brute

    def test_total_up_to_eight(self):
        assert len(well_nested_words(PAIR_ALPH, 8)) == 539


class TestProperties:
    @given(bracket_strings())
    def test_currlevel_matches_scan(self, text):
        doc = brackets(text)
        for k in range(1, len(doc) + 2):
            assert currlevel(doc, k) == currlevel_by_scan(doc, k)

    @given(st.lists(st.sampled_from(["<a", "a>", "<b", "b>", "c", "item"]), max_size=10))
    def test_serialize_tokenize_round_trip(self, words):
        # only keep sequences the tokenizer accepts outright
        text = " ".join(words)
        toks = list(tokenize(text, ALPH))
        assert serialize(toks) == text
        assert list(tokenize(serialize(toks), ALPH)) == toks
