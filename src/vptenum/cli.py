"""Command-line front end.

Subcommands: run (evaluate a transducer over a document), oracle
(brute-force reference, optionally diffed against the engine), spanner
(grammar evaluation), determinize (rewrite a transducer file), bench
(instrumented synthetic runs as CSV).

Documents, machine files and grammars are read as UTF-8 text with their
line breaks as written; a document named - is read from stdin.

Exit codes: 0 success, 1 usage, 2 bad input (an InputError or OSError: a
document, machine file or grammar that cannot be opened, is not UTF-8
text or breaks its rules), 3 resource cap, 4 ambiguity-mode violation,
5 oracle diff mismatch.
"""

from __future__ import annotations

import codecs
import os
import sys
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from functools import partial
from itertools import islice, repeat
from types import SimpleNamespace

from vptenum import engine, formats, nested, spanner
from vptenum.enumtree import Enumerator
from vptenum.nested import InputError, StructuredAlphabet, Token, TokenKind, tokenize
from vptenum.vpt import ResourceCapError, Vpt, is_io_deterministic, io_determinize, oracle_enumerate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_MODE = 4
EXIT_DIFF = 5


def _bad_value(message: str) -> Exception:
    """argparse's error for a bad option value. Only values that
    argparse reads can be bad, so only then is argparse imported."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _count(text: str) -> int:
    """A non-negative int option value, written in ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise _bad_value(f"not an integer: {text!r}")
    if digits != text:
        raise _bad_value(f"must not be negative: {text}")
    return int(text)


def _lengths(text: str) -> list[int]:
    """A comma-separated list of document lengths."""
    return [_count(part) for part in text.split(",") if part]


def render_word(word) -> str:
    if not word:
        return "ε"
    return " ".join(f"{sym}@{pos}" for sym, pos in word)


def _arriving(stdin) -> Iterator[str]:
    """A byte stream's UTF-8 text as it arrives.

    Each read returns what the underlying pipe or terminal has (at most
    BLOCK_CHARS bytes) instead of waiting for a full block, so a writer
    that keeps the pipe open gets each complete token read. The bytes
    decode strictly and keep their line breaks, as a file's do, whatever
    the stream's own encoding and errors.
    """
    return codecs.iterdecode(iter(partial(stdin.buffer.read1, nested.BLOCK_CHARS), b""), "utf-8")


@contextmanager
def _decoded(name: str):
    """Bytes read in the block that are not UTF-8: bad input in ``name``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's chunk, not the input
        bad = " ".join(f"0x{byte:02x}" for byte in exc.object[exc.start : exc.end])
        raise InputError(f"{name}: not UTF-8 text ({exc.reason}: {bad})") from None


@contextmanager
def _text_file(path: str):
    """``path`` open as UTF-8 text with its line breaks as written."""
    with open(path, "r", encoding="utf-8", newline="") as handle, _decoded(path):
        yield handle


@contextmanager
def _document(path: str, alphabet: StructuredAlphabet):
    """Token stream for a document path; '-' reads stdin as it arrives.

    A file is closed when the block ends; stdin is left open.
    """
    if path != "-":
        with _text_file(path) as handle:
            yield tokenize(handle, alphabet)
        return
    stdin = sys.stdin  # a stand-in without a byte buffer is read as it is
    with _decoded("stdin"):
        yield tokenize(_arriving(stdin) if hasattr(stdin, "buffer") else stdin, alphabet)


def _load_vpt(path: str) -> Vpt:
    with _text_file(path) as fh:
        return formats.parse_vpt(fh.read())


# Each observer writes as the pass consumes a token and keeps nothing
# per token. Without --stats-out, run's CSV rows and checkpoint lines
# share stderr: each token's row comes before its checkpoint line.


def _symbol_rows(writer, *prefix) -> Callable:
    """One CSV ``symbol`` row per token: the token's work."""

    def observe(k, state, counts):
        writer.writerow(
            ["symbol", *prefix, k, counts.visits, counts.scans, counts.ecs_calls, counts.nodes_added, "", ""]
        )

    return observe


def _checkpoint_lines(vpt: Vpt) -> Callable:
    """One ``checkpoint`` line per token on stderr: whether the prefix
    read so far is accepted."""

    def observe(k, state, counts):
        # table handles are never EMPTY, so an accepting key is enough
        depth = len(state.stack)
        keys = state.shapes.keys[state.shape]
        accepting = "yes" if depth == 0 and any(p in vpt.initial and q in vpt.final for p, q in keys) else "no"
        print(f"checkpoint k={k} depth={depth} accepting={accepting}", file=sys.stderr)

    return observe


def _all_of(observers: list) -> Callable | None:
    """One observer that calls each of ``observers`` in turn."""
    if len(observers) < 2:
        return observers[0] if observers else None

    def observe(k, state, counts):
        for each in observers:
            each(k, state, counts)

    return observe


def _result_rows(writer, result, enum: Enumerator, words, *prefix) -> Iterator:
    """Once iterated, write the pass's CSV ``finalize`` row, then pass
    ``words``, taken from ``enum``, through and write one ``output`` row
    as each is emitted: the unit steps since the previous word, and the
    word's length counting the empty word as 1."""
    fin = result.stats.finalize
    writer.writerow(["finalize", *prefix, "", fin.visits, fin.scans, fin.ecs_calls, fin.nodes_added, "", ""])
    before = enum.steps
    for i, word in enumerate(words, start=1):
        writer.writerow(["output", *prefix, i, "", "", "", "", enum.steps - before, len(word) or 1])
        before = enum.steps
        yield word


STATS_HEADER = ["record", "index", "visits", "scans", "ecs_calls", "nodes_added", "delay_steps", "output_len"]


def cmd_run(args) -> int:
    vpt = _load_vpt(args.transducer)
    vpt = engine.resolve_mode(vpt, args.mode)
    with ExitStack() as stack:
        writer, observers = None, []
        if args.stats or args.stats_out:
            import csv

            dest = sys.stderr
            if args.stats_out:
                dest = stack.enter_context(open(args.stats_out, "w", encoding="utf-8", newline=""))
            writer = csv.writer(dest)
            writer.writerow(STATS_HEADER)
            observers.append(_symbol_rows(writer))
        if args.checkpoint:
            observers.append(_checkpoint_lines(vpt))
        with _document(args.document, vpt.alphabet) as doc:
            result = engine.preprocess(vpt, doc, _all_of(observers))
        enum = Enumerator(result.arena, result.root)
        words = islice(enum, args.limit)
        if writer is not None:
            words = _result_rows(writer, result, enum, words)
        write = sys.stdout.write  # one call per result line
        print("#")
        # the texts of the symbols each word keeps of the previous one;
        # only the new suffix is looked up, and each leaf formatted once
        pieces, texts = [], {}
        for word in words:
            cut = enum.last_cut
            del pieces[cut:]
            for item in word[cut:]:
                text = texts.get(item)
                if text is None:
                    out, k = item
                    text = texts[item] = f"{out}@{k}"
                pieces.append(text)
            write((" ".join(pieces) or "ε") + "\n")
        print("#")
    return EXIT_OK


def cmd_oracle(args) -> int:
    vpt = _load_vpt(args.transducer)
    with _document(args.document, vpt.alphabet) as doc:
        doc = list(doc)
    reference = oracle_enumerate(vpt, doc, max_configs=args.max_configs)
    for word in sorted(reference, key=lambda w: (len(w), w)):
        print(render_word(word))
    if args.diff:
        mode = "trust" if is_io_deterministic(vpt) else "determinize"
        got = frozenset(engine.evaluate(vpt, doc, mode=mode))
        if got != reference:
            missing = sorted(reference - got, key=repr)
            extra = sorted(got - reference, key=repr)
            print(
                f"mismatch: engine lacks {len(missing)} word(s), "
                f"adds {len(extra)} word(s)",
                file=sys.stderr,
            )
            for w in missing[:5]:
                print(f"  missing: {render_word(w)}", file=sys.stderr)
            for w in extra[:5]:
                print(f"  extra:   {render_word(w)}", file=sys.stderr)
            return EXIT_DIFF
    return EXIT_OK


def cmd_spanner(args) -> int:
    with _text_file(args.grammar) as fh:
        vpeg = spanner.parse_vpeg(fh.read())
    write = sys.stdout.write  # one call per result line
    with _document(args.document, vpeg.alphabet) as doc:
        # the pass reads and checks the whole document when evaluate_spanner
        # is called, so --limit 0 still refuses a bad one
        for mapping in islice(spanner.evaluate_spanner(vpeg, doc), args.limit):
            write(mapping.render() + "\n")
    return EXIT_OK


def cmd_determinize(args) -> int:
    vpt = _load_vpt(args.transducer)
    det = io_determinize(vpt, max_states=args.max_states)
    text = formats.serialize_vpt(det)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _bench_vpt() -> Vpt:
    # one bracket pair around a run of binary choices and silent padding
    alphabet = StructuredAlphabet(
        opens=frozenset({"r"}), closes=frozenset({"r"}), neutrals=frozenset({"b", "c"})
    )
    return Vpt(
        states=frozenset({"q0", "q1", "qf"}),
        alphabet=alphabet,
        stack_symbols=frozenset({"X"}),
        output_symbols=frozenset({"u", "v"}),
        opens=frozenset({("q0", "r", None, "q1", "X")}),
        closes=frozenset({("q1", "r", None, "X", "qf")}),
        neutrals=frozenset(
            {("q1", "b", "u", "q1"), ("q1", "b", "v", "q1"), ("q1", "c", None, "q1")}
        ),
        initial=frozenset({"q0"}),
        final=frozenset({"qf"}),
    )


def _bench_doc(length: int, choices: int):
    if length < choices + 2:
        raise ValueError(f"bench length {length} too short for {choices} choices")
    yield Token(TokenKind.OPEN, "r")
    yield from repeat(Token(TokenKind.NEUTRAL, "b"), choices)
    yield from repeat(Token(TokenKind.NEUTRAL, "c"), length - choices - 2)
    yield Token(TokenKind.CLOSE, "r")


def cmd_bench(args) -> int:
    for length in args.lengths:
        if length < args.choices + 2:
            message = f"length {length} is shorter than --choices + 2 = {args.choices + 2}"
            build_parser().subcommands["bench"].error(message)
    import csv

    vpt = _bench_vpt()
    dest = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(dest)
        writer.writerow(["record", "length", *STATS_HEADER[1:]])
        for length in args.lengths:
            result = engine.preprocess(vpt, _bench_doc(length, args.choices), _symbol_rows(writer, length))
            enum = Enumerator(result.arena, result.root)
            for _ in _result_rows(writer, result, enum, islice(enum, args.limit), length):
                pass
    finally:
        if dest is not sys.stdout:
            dest.close()
    return EXIT_OK


# run's mode flags set one mode, the value engine.resolve_mode takes
MODE = {"action": "store_const", "dest": "mode", "exclusive": True}


# The command line, declared once. Each subcommand has its help, the
# function that runs it and its options in help order; an option is
# its flags and its argparse add_argument keywords, where "exclusive"
# puts a flag in the subcommand's mutually exclusive group.
# build_parser builds argparse from this table; _parse_plain reads the
# same table for the command lines it accepts.
COMMANDS = {
    "run": (
        "evaluate a transducer over a document",
        cmd_run,
        (
            (("-t", "--transducer"), {"required": True, "help": "transducer file"}),
            (("-d", "--document"), {"required": True, "help": "document file, or - for stdin"}),
            (
                ("--check-deterministic",),
                {
                    **MODE,
                    "const": "check",
                    "default": "check",
                    "help": "refuse transducers that are not deterministic in (letter, output); the default",
                },
            ),
            (
                ("--trust-unambiguous",),
                {
                    **MODE,
                    "const": "trust",
                    "help": "skip the check; the caller vouches for one accepting run per result",
                },
            ),
            (("--determinize-first",), {**MODE, "const": "determinize", "help": "determinize before evaluating"}),
            (("--limit",), {"type": _count, "help": "stop after this many results"}),
            (("--checkpoint",), {"action": "store_true", "help": "report per-symbol acceptance on stderr"}),
            (("--stats",), {"action": "store_true", "help": "emit instrumentation CSV"}),
            (("--stats-out",), {"help": "write the CSV here instead of stderr"}),
        ),
    ),
    "oracle": (
        "brute-force reference output set",
        cmd_oracle,
        (
            (("-t", "--transducer"), {"required": True}),
            (("-d", "--document"), {"required": True}),
            (("--diff",), {"action": "store_true", "help": "also run the engine and compare"}),
            (("--max-configs",), {"type": _count, "default": 5_000_000}),
        ),
    ),
    "spanner": (
        "evaluate an extraction grammar",
        cmd_spanner,
        (
            (("-g", "--grammar"), {"required": True, "help": "grammar file"}),
            (("-d", "--document"), {"required": True}),
            (("--limit",), {"type": _count, "help": "stop after this many results"}),
        ),
    ),
    "determinize": (
        "rewrite a transducer deterministically",
        cmd_determinize,
        (
            (("-t", "--transducer"), {"required": True}),
            (("-o", "--out"), {"help": "output file (default stdout)"}),
            (("--max-states",), {"type": _count, "default": 4096}),
        ),
    ),
    "bench": (
        "instrumented synthetic runs",
        cmd_bench,
        (
            (
                ("--lengths",),
                {"type": _lengths, "default": "1000,10000,100000", "help": "comma-separated document lengths"},
            ),
            (("--choices",), {"type": _count, "default": 40, "help": "binary choice positions per document"}),
            (("--limit",), {"type": _count, "default": 10_000, "help": "results enumerated per document"}),
            (("-o", "--out"), {"help": "CSV file (default stdout)"}),
        ),
    ),
}


def _dest(flags: tuple, keywords: dict) -> str:
    """The attribute argparse names an option by: its dest, else its
    first long flag."""
    return keywords.get("dest") or next(f for f in flags if f.startswith("--"))[2:].replace("-", "_")


def build_parser():
    """The argparse parser for COMMANDS: it gives the help, the usage
    lines and the error messages."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors by default; 2 is taken
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = Parser(prog="vptenum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        group = None
        for flags, keywords in options:
            keywords = dict(keywords)
            target = command
            if keywords.pop("exclusive", False):
                group = group or command.add_mutually_exclusive_group()
                target = group
            target.add_argument(*flags, **keywords)
    parser.subcommands = sub.choices
    return parser


def _parse_plain(argv: list):
    """The namespace argparse gives for ``argv``, read without argparse;
    None unless ``argv`` is a subcommand followed by its options, by their
    full flags and each dest at most once, and each value as the next
    argument, with every required option given. A value may not start
    with '-' unless it is '-', and must convert by the option's type.
    Anything else, help included, is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    values = {"command": argv[0]}
    options = COMMANDS[argv[0]][2]
    by_flag = {}
    for flags, keywords in options:
        dest = _dest(flags, keywords)
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        convert = keywords.get("type")
        values.setdefault(dest, convert(default) if convert and isinstance(default, str) else default)
        for flag in flags:
            by_flag[flag] = dest, keywords
    given: set = set()
    args = iter(argv[1:])
    for arg in args:
        if arg not in by_flag:
            return None
        dest, keywords = by_flag[arg]
        if dest in given:
            return None
        given.add(dest)
        if "action" in keywords:
            values[dest] = keywords.get("const", True)
            continue
        text = next(args, None)
        if text is None or (text.startswith("-") and text != "-"):
            return None
        if convert := keywords.get("type"):
            try:
                text = convert(text)
            except Exception:
                return None
        values[dest] = text
    required = {_dest(flags, keywords) for flags, keywords in options if keywords.get("required")}
    if not required <= given:
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except BrokenPipeError:
        # the consumer closed our stdout (e.g. `vptenum bench | head`);
        # silence the interpreter-exit flush and follow Unix convention
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (InputError, OSError) as exc:
        print(f"vptenum: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"vptenum: resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except engine.AmbiguityError as exc:
        print(f"vptenum: mode violation: {exc}", file=sys.stderr)
        return EXIT_MODE


if __name__ == "__main__":
    raise SystemExit(main())
