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
comments). A letter class is read off the transition lines, plus the
optional ``opens:``, ``closes:`` and ``neutrals:`` headers, which
``serialize_vpt`` writes only for letters no transition of the class
uses. Open and close lines share the bracket letter (that sharing is
the pairing convention), but a bracket letter may not double as a
neutral. An error names the first bad line in file order, save that a
malformed line is reported before a fault of the headers, and that
before an undeclared name on a transition line.
"""

from __future__ import annotations

from vptenum.nested import InputError, StructuredAlphabet
from vptenum.vpt import Vpt


class FormatError(InputError):
    """The machine file does not follow the format."""


_HEADERS = ("states", "initial", "final", "stack", "outputs", "opens", "closes", "neutrals")


def _fail(lineno, msg):
    raise FormatError(f"line {lineno}: {msg}")


def parse_vpt(text: str) -> Vpt:
    headers: dict[str, list[str]] = {}
    opens, closes, neutrals = [], [], []
    checks = []  # (line number, source, target, stack symbol, output) of each transition, in file order
    for lineno, raw in enumerate(text.split("\n"), start=1):  # only "\n" ends a line, as in documents
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        head = parts[0].rstrip(":")
        if parts[0].endswith(":") and head in _HEADERS:
            if head in headers:
                _fail(lineno, f"duplicate {head}: header")
            headers[head] = parts[1:]
        elif parts[0] == "open":
            if len(parts) != 9 or parts[3] != "->" or parts[5] != "push" or parts[7] != "out":
                _fail(lineno, f"malformed open transition: {line!r}")
            out = None if parts[8] == "-" else parts[8]
            opens.append((parts[2], parts[1], out, parts[4], parts[6]))
            checks.append((lineno, parts[2], parts[4], parts[6], out))
        elif parts[0] == "close":
            if len(parts) != 9 or parts[3] != "pop" or parts[5] != "->" or parts[7] != "out":
                _fail(lineno, f"malformed close transition: {line!r}")
            out = None if parts[8] == "-" else parts[8]
            closes.append((parts[2], parts[1], out, parts[4], parts[6]))
            checks.append((lineno, parts[2], parts[6], parts[4], out))
        elif parts[0] == "neutral":
            if len(parts) != 7 or parts[3] != "->" or parts[5] != "out":
                _fail(lineno, f"malformed neutral transition: {line!r}")
            out = None if parts[6] == "-" else parts[6]
            neutrals.append((parts[2], parts[1], out, parts[4]))
            checks.append((lineno, parts[2], parts[4], None, out))
        else:
            _fail(lineno, f"unrecognized line: {line!r}")

    for required in ("states", "initial", "final"):
        if required not in headers:
            raise FormatError(f"missing {required}: header")
    states = frozenset(headers["states"])
    initial = frozenset(headers["initial"])
    final = frozenset(headers["final"])
    stack = frozenset(headers.get("stack", ()))
    outputs = frozenset(headers.get("outputs", ()))
    for head, named in (("initial", initial), ("final", final)):
        if not named <= states:
            raise FormatError(f"{head}: header names undeclared state(s) {' '.join(sorted(named - states))}")

    alphabet = StructuredAlphabet(
        opens={t[1] for t in opens}.union(headers.get("opens", ())),
        closes={t[1] for t in closes}.union(headers.get("closes", ())),
        neutrals={t[1] for t in neutrals}.union(headers.get("neutrals", ())),
    )
    overlap = (alphabet.opens | alphabet.closes) & alphabet.neutrals
    if overlap:
        raise FormatError(f"letters used both as bracket and neutral: {', '.join(sorted(overlap))}")

    for lineno, q, q2, x, out in checks:
        if q not in states or q2 not in states:
            _fail(lineno, f"undeclared state in {q!r} -> {q2!r}")
        if x is not None and x not in stack:
            _fail(lineno, f"undeclared stack symbol {x!r}")
        if out is not None and out not in outputs:
            _fail(lineno, f"undeclared output {out!r}")

    return Vpt(
        states=states,
        alphabet=alphabet,
        stack_symbols=stack,
        output_symbols=outputs,
        opens=frozenset(opens),
        closes=frozenset(closes),
        neutrals=frozenset(neutrals),
        initial=initial,
        final=final,
    )


def _refuse(why):
    raise FormatError(f"{why}; this machine cannot be written in the text format")


def serialize_vpt(vpt: Vpt) -> str:
    letters = vpt.alphabet
    groups = (vpt.states, vpt.stack_symbols, vpt.output_symbols, letters.opens, letters.closes, letters.neutrals)
    for group in groups:
        for sym in group:
            if not isinstance(sym, str) or not sym or any(c.isspace() for c in sym):
                _refuse(f"symbol {sym!r} is not a plain word")
    if "-" in vpt.output_symbols:
        _refuse("output symbol '-' would read back as no output")
    overlap = (letters.opens | letters.closes) & letters.neutrals
    if overlap:
        _refuse(f"letters used both as bracket and neutral: {', '.join(sorted(overlap))}")
    lines = [
        "states: " + " ".join(sorted(vpt.states)),
        "initial: " + " ".join(sorted(vpt.initial)),
        "final: " + " ".join(sorted(vpt.final)),
        "stack: " + " ".join(sorted(vpt.stack_symbols)),
    ]
    if vpt.output_symbols:
        lines.append("outputs: " + " ".join(sorted(vpt.output_symbols)))
    # a letter class is read off its transition lines, so only its unused letters need a header
    for head, moves in (("opens", vpt.opens), ("closes", vpt.closes), ("neutrals", vpt.neutrals)):
        unused = getattr(letters, head).difference(t[1] for t in moves)
        if unused:
            lines.append(f"{head}: " + " ".join(sorted(unused)))
    for q, a, out, q2, x in sorted(vpt.opens, key=repr):
        lines.append(f"open {a} {q} -> {q2} push {x} out {out or '-'}")
    for q, a, out, x, q2 in sorted(vpt.closes, key=repr):
        lines.append(f"close {a} {q} pop {x} -> {q2} out {out or '-'}")
    for q, a, out, q2 in sorted(vpt.neutrals, key=repr):
        lines.append(f"neutral {a} {q} -> {q2} out {out or '-'}")
    return "\n".join(lines) + "\n"
