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

from dataclasses import dataclass
from enum import Enum
from itertools import product as _cartesian
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


def _chars(source: TextSource) -> Iterator[str]:
    if isinstance(source, str):
        yield from source
        return
    read = getattr(source, "read", None)
    if read is not None:
        while True:
            chunk = read(8192)
            if not chunk:
                return
            yield from chunk
        return
    for chunk in source:
        yield from chunk


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


def tokenize(text: TextSource, alphabet: StructuredAlphabet) -> Iterator[Token]:
    """Pull-based tokenizer: whitespace-separated tokens, ``#`` comments.

    Tokens are produced one at a time and the total length is never
    inspected in advance, so the stream may be unbounded (e.g. stdin).
    Generator exhaustion is the end-of-input signal.
    """
    buf: list[str] = []
    in_comment = False
    for ch in _chars(text):
        if in_comment:
            if ch == "\n":
                in_comment = False
            continue
        if ch == "#" and not buf:
            in_comment = True
            continue
        if ch.isspace():
            if buf:
                yield token_of_word("".join(buf), alphabet)
                buf.clear()
            continue
        buf.append(ch)
    if buf:
        yield token_of_word("".join(buf), alphabet)


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


def _unmatched_open_positions(tokens: list[Token], upto: int) -> list[int]:
    # positions (1-based) of opens in tokens[0:upto] with no matching close
    stack: list[int] = []
    for idx in range(upto):
        tok = tokens[idx]
        if tok.kind is TokenKind.OPEN:
            stack.append(idx + 1)
        elif tok.kind is TokenKind.CLOSE:
            if not stack:
                raise ValueError(f"unbalanced close at position {idx + 1}")
            stack.pop()
    return stack


def currlevel(tokens: list[Token], k: int) -> Span:
    """Longest well-nested span ending at position k.

    Equals <j,k> where j-1 is the deepest open of the prefix that is
    still unmatched at k, or j = 1 when the prefix balances.
    """
    if not 1 <= k <= len(tokens) + 1:
        raise ValueError(f"position {k} out of range")
    stack = _unmatched_open_positions(tokens, k - 1)
    j = stack[-1] + 1 if stack else 1
    return Span(j, k)


def lowerlevel(tokens: list[Token], k: int) -> Span | None:
    """The level just below currlevel(k), or None at the root level."""
    j = currlevel(tokens, k).start
    if j == 1:
        return None
    return currlevel(tokens, j - 1)
