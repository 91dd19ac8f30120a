"""Structured alphabets, tokenization, and well-nestedness bookkeeping.

A document is a sequence of tokens over a structured alphabet: every
symbol is an open, a close, or a neutral. Opens push, closes pop, and a
word is well-nested when every close matches some earlier open (any
open may pair with any close). Spans use 1-based inter-symbol positions,
so ``Span(i, j)`` covers tokens ``i .. j-1`` and ``Span(i, i)`` is empty.

A symbol is identified by its class together with its name; the written
forms ``<a`` (open), ``a>`` (close) and ``a`` (neutral) keep the classes
apart, so the same base name may appear in more than one class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, product as _cartesian
from typing import Iterable, Iterator, Union


class TokenKind(Enum):
    OPEN = "open"
    CLOSE = "close"
    NEUTRAL = "neutral"


class TokenizeError(ValueError):
    """Raised on malformed token syntax or a symbol outside the alphabet."""


@dataclass(frozen=True)
class StructuredAlphabet:
    opens: frozenset
    closes: frozenset
    neutrals: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "opens", frozenset(self.opens))
        object.__setattr__(self, "closes", frozenset(self.closes))
        object.__setattr__(self, "neutrals", frozenset(self.neutrals))

    def kind_of(self, name: str, kind: TokenKind) -> bool:
        if kind is TokenKind.OPEN:
            return name in self.opens
        if kind is TokenKind.CLOSE:
            return name in self.closes
        return name in self.neutrals


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    name: str

    def __repr__(self) -> str:
        return f"Token({self.kind.value}:{self.name})"


@dataclass(frozen=True)
class Span:
    start: int
    end: int

    def __post_init__(self) -> None:
        if not (1 <= self.start <= self.end):
            raise ValueError(f"invalid span <{self.start},{self.end}>")

    def __repr__(self) -> str:
        return f"<{self.start},{self.end}>"


TextSource = Union[str, Iterable[str]]


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

    ``<x`` opens x, ``x>`` closes x, a bare name is neutral.
    """
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


def tokenize(text: TextSource, alphabet: StructuredAlphabet) -> Iterator[Token]:
    """Pull-based tokenizer: whitespace-separated tokens, ``#`` comments.

    The source is read in blocks of at most BLOCK_CHARS characters,
    each split with ``str.split``; tokens come out before the next
    block is read, so the stream may be unbounded (e.g. stdin). Only a
    partial token and an in-comment flag carry over from one block to
    the next. A comment starts at a ``#`` that begins a token and ends
    at the next ``"\n"``; no other line break ends it. Generator
    exhaustion is the end-of-input signal.

    Errors name the 1-based token index and line:col of the bad token.
    """
    tokens = _WordTokens(alphabet)
    carry = ""  # a token that may continue in the next block
    in_comment = False
    count = 0  # tokens produced before the current line piece
    line = 1
    col0 = 0  # characters of the current line read so far
    # a final separator flushes the token carried at the end of input
    for block in chain(_blocks(text), [" "]):
        pieces = block.split("\n")
        last = len(pieces) - 1
        for i, piece in enumerate(pieces):
            if i:
                in_comment = False
                line += 1
                col0 = 0
            if in_comment:
                continue
            start = col0 - len(carry)
            col0 += len(piece)
            piece = carry + piece
            carry = ""
            words = piece.split()
            if "#" in piece:
                for j, word in enumerate(words):
                    if word[0] == "#":
                        del words[j:]
                        in_comment = True
                        break
            if i == last and not in_comment and piece and not piece[-1].isspace():
                carry = words.pop()
            try:
                yield from map(tokens.__getitem__, words)
            except TokenizeError as exc:
                j = next(j for j, word in enumerate(words) if word not in tokens)
                col = start + next(islice(_WORD.finditer(piece), j, None)).start() + 1
                raise TokenizeError(f"{exc} at token {count + j + 1}, line {line}:{col}") from None
            count += len(words)


def serialize_token(token: Token) -> str:
    if token.kind is TokenKind.OPEN:
        return f"<{token.name}"
    if token.kind is TokenKind.CLOSE:
        return f"{token.name}>"
    return token.name


def serialize(tokens: Iterable[Token]) -> str:
    return " ".join(serialize_token(t) for t in tokens)


def validate_nestedness(tokens: Iterable[Token]) -> bool:
    """True iff opens and closes balance (any open pairs with any close)."""
    depth = 0
    for tok in tokens:
        if tok.kind is TokenKind.OPEN:
            depth += 1
        elif tok.kind is TokenKind.CLOSE:
            if depth == 0:
                return False
            depth -= 1
    return depth == 0


def well_nested_words(alphabet: StructuredAlphabet, max_len: int) -> list[tuple[Token, ...]]:
    """Every well-nested token sequence of length at most max_len."""
    opens = sorted(alphabet.opens)
    closes = sorted(alphabet.closes)
    neutrals = sorted(alphabet.neutrals)
    memo: dict[int, list[tuple[Token, ...]]] = {0: [()]}

    def of_len(n: int) -> list[tuple[Token, ...]]:
        if n in memo:
            return memo[n]
        words: list[tuple[Token, ...]] = []
        for c in neutrals:
            head = (Token(TokenKind.NEUTRAL, c),)
            for rest in of_len(n - 1):
                words.append(head + rest)
        for m in range(0, n - 1):
            for a, b in _cartesian(opens, closes):
                for inner in of_len(m):
                    bracketed = (
                        (Token(TokenKind.OPEN, a),)
                        + inner
                        + (Token(TokenKind.CLOSE, b),)
                    )
                    for rest in of_len(n - 2 - m):
                        words.append(bracketed + rest)
        memo[n] = words
        return words

    all_words: list[tuple[Token, ...]] = []
    for n in range(max_len + 1):
        all_words.extend(of_len(n))
    return all_words
