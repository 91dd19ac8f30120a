"""Structured alphabets, tokens, spans, and the tokenizer.

A document is a sequence of tokens over a structured alphabet: every
symbol is an open, a close, or a neutral. Opens push, closes pop, and a
word is well-nested when every close matches some earlier open (any
open may pair with any close). Spans use 1-based inter-symbol positions,
so ``Span(i, j)`` covers tokens ``i .. j-1`` and ``Span(i, i)`` is empty.

A symbol is identified by its class together with its name; the written
forms ``<a`` (open), ``a>`` (close) and ``a`` (neutral) keep the classes
apart, so the same base name may appear in more than one class.

``tokenize_blocks`` turns text into one list of tokens per block of
text, with one split and one C-level map over a word table per block;
``tokenize`` chains those lists into a token stream. Before a bad word
the tokens ahead of it in its block still come out, then the error.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from enum import Enum
from functools import cached_property
from itertools import chain, islice


class TokenKind(Enum):
    OPEN = "open"
    CLOSE = "close"
    NEUTRAL = "neutral"


class InputError(ValueError):
    """A document, machine file or grammar that breaks its rules."""


class TokenizeError(InputError):
    """Raised on malformed token syntax or a symbol outside the alphabet."""


class Record:
    """A record of the fields its class names in ``_fields``: equal to a
    record of the same class whose fields are equal, shown as
    ``Name(field=value, ...)``, and unhashable, since it may change."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record that refuses assignment and deletion, and so hashes by
    its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__  # how a FrozenRecord's __init__ sets its fields


class StructuredAlphabet(FrozenRecord):
    _fields = ("opens", "closes", "neutrals")

    def __init__(self, opens, closes, neutrals) -> None:
        _set(self, "opens", frozenset(opens))
        _set(self, "closes", frozenset(closes))
        _set(self, "neutrals", frozenset(neutrals))

    def kind_of(self, name: str, kind: TokenKind) -> bool:
        if kind is TokenKind.OPEN:
            return name in self.opens
        if kind is TokenKind.CLOSE:
            return name in self.closes
        return name in self.neutrals

    @cached_property
    def longest_word(self) -> int:
        """No written symbol is longer: the longest name plus a bracket."""
        return 1 + max(map(len, self.opens | self.closes | self.neutrals), default=0)


class Token(FrozenRecord):
    _fields = ("kind", "name")

    def __init__(self, kind: TokenKind, name: str) -> None:
        _set(self, "kind", kind)
        _set(self, "name", name)

    def __repr__(self) -> str:
        return f"Token({self.kind.value}:{self.name})"


class Span(FrozenRecord):
    _fields = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if not (1 <= start <= end):
            raise ValueError(f"invalid span <{start},{end}>")
        _set(self, "start", start)
        _set(self, "end", end)

    def __repr__(self) -> str:
        return f"<{self.start},{self.end}>"


TextSource = str | Iterable[str]


BLOCK_CHARS = 8192


def _blocks(source: TextSource) -> Iterator[str]:
    """The source as text blocks, read one at a time."""
    if isinstance(source, str):
        for i in range(0, len(source), BLOCK_CHARS):
            yield source[i : i + BLOCK_CHARS]
        return
    read = getattr(source, "read", None)
    if read is not None:
        while block := read(BLOCK_CHARS):
            yield block
        return
    yield from source


def token_of_word(word: str, alphabet: StructuredAlphabet) -> Token:
    """Map one whitespace-delimited word to a token.

    ``<x`` opens x, ``x>`` closes x, a bare name is neutral. A word
    longer than any symbol is named by its first characters only, as
    many as the tokenizer has seen when it refuses such a word early.
    """
    longest = alphabet.longest_word
    if len(word) > longest:
        raise TokenizeError(f"word starting {word[:min(longest, 40)]!r} is longer than any symbol")
    if word.startswith("<") and word.endswith(">"):
        raise TokenizeError(f"malformed token {word!r}")
    if word.startswith("<"):
        name, kind = word[1:], TokenKind.OPEN
    elif word.endswith(">"):
        name, kind = word[:-1], TokenKind.CLOSE
    else:
        name, kind = word, TokenKind.NEUTRAL
    if not name:
        raise TokenizeError(f"malformed token {word!r}")
    if not alphabet.kind_of(name, kind):
        raise TokenizeError(f"unknown {kind.value} symbol {name!r}")
    return Token(kind, name)


class _WordTokens(dict):
    """Word -> Token, filled on first sight; bounded by the alphabet
    because an unknown word raises instead of being stored."""

    def __init__(self, alphabet: StructuredAlphabet):
        self.alphabet = alphabet

    def __missing__(self, word: str) -> Token:
        tok = self[word] = token_of_word(word, self.alphabet)
        return tok


_WORD = re.compile(r"\S+")  # \s is exactly str.isspace, as in str.split
_COMMENT = re.compile(r"(?<!\S)#[^\n]*")  # a "#" that begins a token, to the line's end


def tokenize_blocks(text: TextSource, alphabet: StructuredAlphabet) -> Iterator[list[Token]]:
    """The tokens of each text block, as one list per block.

    The source is read in blocks of at most BLOCK_CHARS characters (an
    iterable source in the pieces it yields), and a block's list comes
    out before the next block is read, so the stream may be unbounded
    (e.g. stdin, read as it arrives). Only a partial token and an
    in-comment flag carry over from one block to the next. Tokens are
    whitespace-separated words; a comment starts at a ``#`` that begins
    a token and ends at the next ``"\n"``, no other line break ends it.
    One Token object stands for each distinct word. A partial token
    longer than any symbol is refused at once instead of carried into
    the next block, so one long word costs at most one block's work.

    On a bad word the tokens before it in its block come out first, as
    one more list; then TokenizeError names the 1-based token index and
    the line:col of the bad word.
    """
    tokens = _WordTokens(alphabet)
    longest = alphabet.longest_word
    carry = ""  # a token that may continue in the next block
    in_comment = False
    count = 0  # tokens produced before the current piece
    line, col = 1, 0  # the current piece's start: its line, and characters before it on that line
    # a final separator flushes the token carried at the end of input
    for block in chain(_blocks(text), [" "]):
        piece = carry + block
        if in_comment:
            cut = piece.find("\n")
            if cut < 0:
                col += len(piece)
                continue
            in_comment = False
            col += cut
            piece = piece[cut:]
        if "#" in piece:
            # a comment that starts on the piece's last line runs to its end
            in_comment = _COMMENT.search(piece, piece.rfind("\n") + 1) is not None
            piece = _COMMENT.sub(lambda comment: " " * len(comment[0]), piece)  # columns stay exact
        words = piece.split()
        carry = words.pop() if piece and not piece[-1].isspace() else ""
        if len(carry) > longest:
            words.append(carry)  # no symbol is that long: refused below
        try:
            block_tokens = list(map(tokens.__getitem__, words))
        except TokenizeError as exc:
            j = next(j for j, word in enumerate(words) if word not in tokens)
            yield list(map(tokens.__getitem__, words[:j]))
            at = next(islice(_WORD.finditer(piece), j, None)).start()
            lines = piece.count("\n", 0, at)
            at_col = at - piece.rfind("\n", 0, at) if lines else col + at + 1
            raise TokenizeError(f"{exc} at token {count + j + 1}, line {line + lines}:{at_col}") from None
        count += len(block_tokens)
        lines = piece.count("\n")
        if lines:
            line += lines
            col = len(piece) - piece.rfind("\n") - 1 - len(carry)
        else:
            col += len(piece) - len(carry)
        del words  # the block's word strings go before the pass runs
        yield block_tokens
        del block_tokens  # and its token list before the next one is built


def tokenize(text: TextSource, alphabet: StructuredAlphabet) -> Iterator[Token]:
    """Pull-based tokenizer: the tokens of ``tokenize_blocks``, one by one.

    The blocks' lists are chained at C level, so a consumer's ``for``
    loop pulls each token without resuming a Python frame. The tokens
    before a bad word come out before the TokenizeError; exhaustion is
    the end-of-input signal.
    """
    return chain.from_iterable(tokenize_blocks(text, alphabet))
