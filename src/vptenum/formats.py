"""Line-oriented text format for transducers.

Header lines declare the component sets, transition lines carry one
transition each:

    states: q0 q1
    initial: q0
    final: q1
    stack: X
    outputs: o
    open a q0 -> q1 push X out o
    close a q1 pop X -> q1 out -
    neutral c q1 -> q1 out o

``out -`` marks an emission-free step; a machine without outputs (an
acceptor) omits the ``outputs:`` header and writes ``out -`` on every
transition line. Comments are lines whose first nonblank character is
``#`` (symbols may legally contain ``#``, so there are no trailing
comments). The letter classes are inferred from the transition lines;
open and close lines share the bracket letter (that sharing is the
pairing convention), but a bracket letter may not double as a neutral.
"""

from __future__ import annotations

from vptenum.nested import StructuredAlphabet
from vptenum.vpt import Vpt


class FormatError(ValueError):
    """The machine file does not follow the format."""


_HEADERS = ("states", "initial", "final", "stack", "outputs")


def _parse_lines(text: str):
    headers: dict[str, list[str]] = {}
    opens, closes, neutrals = [], [], []

    def fail(lineno, msg):
        raise FormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        head = parts[0].rstrip(":")
        if parts[0].endswith(":") and head in _HEADERS:
            if head in headers:
                fail(lineno, f"duplicate {head}: header")
            headers[head] = parts[1:]
            continue
        if parts[0] == "open":
            if len(parts) != 9 or parts[3] != "->" or parts[5] != "push" or parts[7] != "out":
                fail(lineno, f"malformed open transition: {line!r}")
            out = None if parts[8] == "-" else parts[8]
            opens.append((lineno, parts[1], parts[2], out, parts[4], parts[6]))
        elif parts[0] == "close":
            if len(parts) != 9 or parts[3] != "pop" or parts[5] != "->" or parts[7] != "out":
                fail(lineno, f"malformed close transition: {line!r}")
            out = None if parts[8] == "-" else parts[8]
            closes.append((lineno, parts[1], parts[2], out, parts[4], parts[6]))
        elif parts[0] == "neutral":
            if len(parts) != 7 or parts[3] != "->" or parts[5] != "out":
                fail(lineno, f"malformed neutral transition: {line!r}")
            out = None if parts[6] == "-" else parts[6]
            neutrals.append((lineno, parts[1], parts[2], out, parts[4]))
        else:
            fail(lineno, f"unrecognized line: {line!r}")

    for required in ("states", "initial", "final"):
        if required not in headers:
            raise FormatError(f"missing {required}: header")
    states = frozenset(headers["states"])
    initial = frozenset(headers["initial"])
    final = frozenset(headers["final"])
    stack = frozenset(headers.get("stack", []))
    outputs = frozenset(headers.get("outputs", []))
    for head, named in (("initial", initial), ("final", final)):
        if not named <= states:
            raise FormatError(f"{head}: header names undeclared state(s) {' '.join(sorted(named - states))}")

    open_letters = {a for _, a, *_ in opens}
    close_letters = {a for _, a, *_ in closes}
    neutral_letters = {a for _, a, *_ in neutrals}
    overlap = (open_letters | close_letters) & neutral_letters
    if overlap:
        raise FormatError(
            f"letters used both as bracket and neutral: {', '.join(sorted(overlap))}"
        )

    def check(lineno, cond, msg):
        if not cond:
            raise FormatError(f"line {lineno}: {msg}")

    for lineno, a, q, out, q2, x in opens:
        check(lineno, q in states and q2 in states, f"undeclared state in {q!r} -> {q2!r}")
        check(lineno, x in stack, f"undeclared stack symbol {x!r}")
        check(lineno, out is None or out in outputs, f"undeclared output {out!r}")
    for lineno, a, q, out, x, q2 in closes:
        check(lineno, q in states and q2 in states, f"undeclared state in {q!r} -> {q2!r}")
        check(lineno, x in stack, f"undeclared stack symbol {x!r}")
        check(lineno, out is None or out in outputs, f"undeclared output {out!r}")
    for lineno, a, q, out, q2 in neutrals:
        check(lineno, q in states and q2 in states, f"undeclared state in {q!r} -> {q2!r}")
        check(lineno, out is None or out in outputs, f"undeclared output {out!r}")

    alphabet = StructuredAlphabet(
        opens=frozenset(open_letters),
        closes=frozenset(close_letters),
        neutrals=frozenset(neutral_letters),
    )
    return states, alphabet, stack, outputs, opens, closes, neutrals, initial, final


def parse_vpt(text: str) -> Vpt:
    states, alphabet, stack, outputs, opens, closes, neutrals, initial, final = _parse_lines(text)
    return Vpt(
        states=states,
        alphabet=alphabet,
        stack_symbols=stack,
        output_symbols=outputs,
        opens=frozenset((q, a, out, q2, x) for _, a, q, out, q2, x in opens),
        closes=frozenset((q, a, out, x, q2) for _, a, q, out, x, q2 in closes),
        neutrals=frozenset((q, a, out, q2) for _, a, q, out, q2 in neutrals),
        initial=initial,
        final=final,
    )


def _check_symbols(*groups):
    for group in groups:
        for sym in group:
            if not isinstance(sym, str) or not sym or any(c.isspace() for c in sym):
                raise FormatError(
                    f"symbol {sym!r} is not a plain word; this machine cannot "
                    "be written in the text format"
                )


def serialize_vpt(vpt: Vpt) -> str:
    _check_symbols(
        vpt.states,
        vpt.stack_symbols,
        vpt.output_symbols,
        vpt.alphabet.opens,
        vpt.alphabet.closes,
        vpt.alphabet.neutrals,
    )
    lines = [
        "states: " + " ".join(sorted(vpt.states)),
        "initial: " + " ".join(sorted(vpt.initial)),
        "final: " + " ".join(sorted(vpt.final)),
        "stack: " + " ".join(sorted(vpt.stack_symbols)),
    ]
    if vpt.output_symbols:
        lines.append("outputs: " + " ".join(sorted(vpt.output_symbols)))
    for q, a, out, q2, x in sorted(vpt.opens, key=repr):
        lines.append(f"open {a} {q} -> {q2} push {x} out {out or '-'}")
    for q, a, out, x, q2 in sorted(vpt.closes, key=repr):
        lines.append(f"close {a} {q} pop {x} -> {q2} out {out or '-'}")
    for q, a, out, q2 in sorted(vpt.neutrals, key=repr):
        lines.append(f"neutral {a} {q} -> {q2} out {out or '-'}")
    return "\n".join(lines) + "\n"
