"""One measured run of one workload, in a fresh process.

    python3 perfbench/child.py '{"mode": ..., "spec": ".../spec.json"}'

The driver (run.py) starts this script with a fixed PYTHONHASHSEED,
with address-space randomization off and with PYTHONPATH pointing at
the package under test. It prints one JSON object as its last line.

Modes:
  time      cli.main on the workload document, stdout swapped for a
            sink that timestamps every line; then repeated set-up.
  memory    cli.main with a sink that only counts lines; ru_maxrss.
  oracle    cli.main on the small document, checked against the
            brute-force oracle as well as the generator.
  trace     cli.main with spans around the layer calls it makes, then
            each layer called on its own through its public functions.
  counts    the exact unit-step counts of one pass and one enumeration.
  series    depth series (spanner-tree) or length series (scan).
  retained  tracemalloc around the pass: bytes kept per token.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import workloads
from vptenum import cli, engine, formats, spanner
from vptenum import vpt as vpt_mod
from vptenum.enumtree import Enumerator
from vptenum.nested import StructuredAlphabet, Token, TokenKind, tokenize

SETUP_REPS = 25
DEPTH_CAPS = (16, 64, 256, 1024)
LENGTHS = ((1_000, "n-1e3", 50), (10_000, "n-1e4", 10), (100_000, "n-1e5", 3))

clock = time.perf_counter


class LineSink:
    """Stands in for sys.stdout; timestamps each completed line."""

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.lines: list[str] = []
        self.times: list[float] = []
        self.count = 0
        self._buf: list[str] = []

    def write(self, s: str) -> int:
        self._buf.append(s)
        if "\n" in s:
            t = clock()
            text = "".join(self._buf)
            self._buf.clear()
            *done, rest = text.split("\n")
            self.count += len(done)
            if self.keep:
                self.lines.extend(done)
                self.times.extend([t] * len(done))
            if rest:
                self._buf.append(rest)
        return len(s)

    def flush(self) -> None:
        pass


class Tracer:
    """In-memory spans: (name, start, end, parent index or -1)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, clock(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = clock()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def run_cli(argv: list[str], sink: LineSink) -> tuple[int, float, float]:
    """cli.main in-process with stdout swapped; (exit code, start, end)."""
    saved = sys.stdout
    sys.stdout = sink
    start = clock()
    try:
        rc = cli.main(argv)
    finally:
        end = clock()
        sys.stdout = saved
    return rc, start, end


def checked_results(spec: dict, rc: int, sink: LineSink, expected: dict):
    """(result lines, their timestamps, problem or None)."""
    results, problem = workloads.result_lines(sink.lines, spec["command"])
    times = sink.times[1:-1] if spec["command"] == "run" else sink.times
    if rc != 0:
        problem = f"exit code {rc}"
    return results, times, problem or workloads.check(expected, results)


def set_up(spec: dict, text: str, tracer: Tracer | None = None):
    """The program's set-up through public calls: (machine, doc alphabet, grammar)."""
    span = tracer.span if tracer else lambda name: nullcontext()
    if spec["command"] == "run":
        with span("formats.parse_vpt"):
            machine = formats.parse_vpt(text)
        with span("engine.resolve_mode"):
            machine = engine.resolve_mode(machine, "check")
        return machine, machine.alphabet, None
    with span("spanner.parse_vpeg"):
        grammar = spanner.parse_vpeg(text)
    with span("spanner.compile_vpeg"):
        machine = spanner.compile_vpeg(grammar)
    with span("vpt.is_io_deterministic"):
        deterministic = vpt_mod.is_io_deterministic(machine)
    with span("vpt.io_determinize"):
        if not deterministic:
            machine = vpt_mod.io_determinize(machine)
    alphabet = StructuredAlphabet(
        opens=grammar.alphabet.opens,
        closes=grammar.alphabet.closes,
        neutrals=grammar.alphabet.neutrals,
    )
    return machine, alphabet, grammar


def read_tokens(spec: dict, path: str, alphabet) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = list(tokenize(fh, alphabet))
    if spec["command"] == "spanner":
        tokens.append(Token(TokenKind.NEUTRAL, spanner.END_MARKER))
    return tokens


def enum_counts(result, limit: int | None) -> dict:
    """Exact counts from one pass result and an instrumented enumeration."""
    n = result.length
    totals = result.stats.totals()
    enum = Enumerator(result.arena, result.root, instrument=True)
    for _ in itertools.islice(enum, limit):
        pass
    steps = [gap / length for gap, length in enum.gaps]
    nodes = [size / max(1, length) for size, length in enum.tree_sizes]
    return {
        "tokens": n,
        "arena_nodes": len(result.arena),
        "visits": totals.visits,
        "scans": totals.scans,
        "ecs_calls": totals.ecs_calls,
        "enum_steps": enum.steps,
        "engine.visits_per_token": totals.visits / n,
        "engine.scans_per_token": totals.scans / n,
        "engine.ecs_calls_per_token": totals.ecs_calls / n,
        "ecs.nodes_per_token": len(result.arena) / n,
        "enumtree.steps_per_symbol.p50": statistics.median(steps),
        "enumtree.steps_per_symbol.max": max(steps),
        "enumtree.tree_nodes_per_symbol.p50": statistics.median(nodes),
    }


def mode_time(spec: dict, text: str) -> dict:
    sink = LineSink()
    rc, start, end = run_cli(workloads.cli_argv(spec, spec["document"]), sink)
    results, times, problem = checked_results(spec, rc, sink, spec["expected"])
    out = {"problem": problem}
    if problem is None:
        delays = [
            (times[i] - times[i - 1]) * 1e6 / workloads.items_on(results[i])
            for i in range(1, len(results))
        ]
        out.update(first_result_s=times[0] - start, total_s=end - start, delays_us=delays)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        set_up(spec, text)
        reps.append(clock() - t0)
    out["setup_s"] = reps
    return out


def mode_memory(spec: dict, text: str) -> dict:
    sink = LineSink(keep=False)
    rc, _, _ = run_cli(workloads.cli_argv(spec, spec["document"]), sink)
    want = workloads.expected_count(spec["expected"])
    got = sink.count - (2 if spec["command"] == "run" else 0)
    problem = None
    if rc != 0:
        problem = f"exit code {rc}"
    elif got != want:
        problem = f"{got} results, wanted {want}"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"problem": problem, "peak_rss_mb": peak}


def mode_oracle(spec: dict, text: str) -> dict:
    sink = LineSink()
    rc, _, _ = run_cli(workloads.cli_argv(spec, spec["small_document"]), sink)
    results, _, problem = checked_results(spec, rc, sink, spec["small_expected"])
    if problem is None:
        if spec["command"] == "run":
            machine = formats.parse_vpt(text)
            tokens = read_tokens(spec, spec["small_document"], machine.alphabet)
            want = {cli.render_word(w) for w in vpt_mod.oracle_enumerate(machine, tokens)}
        else:
            _, alphabet, grammar = set_up(spec, text)
            machine = spanner.compile_vpeg(grammar)  # the oracle runs it undeterminized
            tokens = read_tokens(spec, spec["small_document"], alphabet)
            want = {
                spanner.decode_mapping(w, grammar.variables).render()
                for w in vpt_mod.oracle_enumerate(machine, tokens)
            }
        if set(results) != want:
            problem = "output differs from vpt.oracle_enumerate"
    return {"problem": problem, "results": len(results)}


def traced_cli(spec: dict, tracer: Tracer) -> tuple[float, str | None]:
    """cli.main with a span around every layer call it makes."""
    patches = [
        (formats, "parse_vpt"),
        (engine, "resolve_mode"),
        (engine, "io_determinize"),
        (engine, "preprocess"),
        (cli, "render_word"),
        (spanner, "parse_vpeg"),
        (spanner, "compile_vpeg"),
        (spanner, "is_io_deterministic"),
        (spanner, "decode_mapping"),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name in patches]
    for mod, name, fn in saved:
        setattr(mod, name, tracer.wrap(fn, f"{mod.__name__.split('.')[-1]}.{name}"))
    sink = LineSink()
    try:
        with tracer.span("cli.main"):
            rc, start, end = run_cli(workloads.cli_argv(spec, spec["document"]), sink)
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    _, _, problem = checked_results(spec, rc, sink, spec["expected"])
    return end - start, problem


def mode_trace(spec: dict, text: str) -> dict:
    cli_tracer = Tracer()
    traced_total, problem = traced_cli(spec, cli_tracer)
    tracer = Tracer()
    limit = spec["limit"]
    with tracer.span("layers"):
        for _ in range(SETUP_REPS):
            machine, alphabet, grammar = set_up(spec, text, tracer)
        with tracer.span("nested.tokenize"):
            tokens = read_tokens(spec, spec["document"], alphabet)
        with tracer.span("engine.preprocess"):
            result = engine.preprocess(machine, tokens)
        enum = iter(Enumerator(result.arena, result.root))
        with tracer.span("enumtree.first_word"):
            first = next(enum)
        with tracer.span("enumtree.rest"):
            rest = list(itertools.islice(enum, None if limit is None else limit - 1))
        words = [first] + rest
        if grammar is None:
            with tracer.span("cli.render_word"):
                rendered = [cli.render_word(w) for w in words]
        else:
            with tracer.span("spanner.decode_mapping"):
                mappings = [spanner.decode_mapping(w, grammar.variables) for w in words]
            with tracer.span("spanner.render"):
                rendered = [m.render() for m in mappings]
        with tracer.span("enumtree.instrumented"):
            counts = enum_counts(result, limit)
    problem = problem or workloads.check(spec["expected"], rendered)

    def median_ms(name: str) -> float:
        runs = tracer.durations(name)
        return statistics.median(runs) * 1e3 if runs else 0.0

    n = len(tokens)
    items = sum(workloads.items_on(line) for line in rendered)
    symbols_rest = sum(max(1, len(w)) for w in rest) or 1
    layers = {
        "formats.parse_vpt_ms": median_ms("formats.parse_vpt"),
        "spanner.parse_vpeg_ms": median_ms("spanner.parse_vpeg"),
        "spanner.compile_vpeg_ms": median_ms("spanner.compile_vpeg"),
        "vpt.io_determinize_ms": median_ms("vpt.io_determinize"),
        "vpt.det_states": len(machine.states),
        "nested.tokenize_us_per_token": tracer.total("nested.tokenize") * 1e6 / n,
        "engine.preprocess_us_per_token": tracer.total("engine.preprocess") * 1e6 / n,
        "enumtree.first_word_us": tracer.total("enumtree.first_word") * 1e6,
        "enumtree.us_per_symbol": tracer.total("enumtree.rest") * 1e6 / symbols_rest,
        "spanner.decode_us_per_mapping": (
            tracer.total("spanner.decode_mapping") * 1e6 / len(words) if grammar else 0.0
        ),
        "cli.render_us_per_item": (
            tracer.total("spanner.render" if grammar else "cli.render_word") * 1e6 / items
        ),
    }
    return {
        "problem": problem,
        "traced_total_s": traced_total,
        "layers": layers,
        "counts": counts,
        "spans": {"cli.main": cli_tracer.spans, "layers": tracer.spans},
    }


def mode_counts(spec: dict, text: str) -> dict:
    machine, alphabet, _ = set_up(spec, text)
    result = engine.preprocess(machine, read_tokens(spec, spec["document"], alphabet))
    return {"problem": None, "counts": enum_counts(result, spec["limit"])}


def mode_series(spec: dict, text: str) -> dict:
    """Counts against nesting depth, or pass time against length."""
    machine, alphabet, _ = set_up(spec, text)
    series = {}
    if spec["workload"] == "spanner-tree":
        for cap in DEPTH_CAPS:
            rng = random.Random(f"spanner-tree:{spec['seed']}:depth-{cap}")
            words, _ = workloads.tree_tokens(workloads.TREE_TOKENS, cap, rng)
            tokens = list(tokenize(" ".join(words), alphabet))
            tokens.append(Token(TokenKind.NEUTRAL, spanner.END_MARKER))
            counts = enum_counts(engine.preprocess(machine, tokens), None)
            for key in ("steps_per_symbol", "tree_nodes_per_symbol"):
                series[f"enumtree.{key}.p50.depth-{cap}"] = counts[f"enumtree.{key}.p50"]
    elif spec["workload"] == "scan":
        for length, label, reps in LENGTHS:
            rng = random.Random(f"scan:{spec['seed']}:{label}")
            words, _ = workloads.choice_tokens(length, workloads.SCAN_CHOICES, rng)
            tokens = list(tokenize(" ".join(words), alphabet))
            times = []
            for _ in range(reps):
                t0 = clock()
                engine.preprocess(machine, tokens)
                times.append(clock() - t0)
            series[f"engine.preprocess_us_per_token.{label}"] = statistics.median(times) * 1e6 / length
    return {"problem": None, "series": series}


def mode_retained(spec: dict, text: str) -> dict:
    """Bytes still allocated after the pass, per token, on a streamed document."""
    machine, alphabet, _ = set_up(spec, text)
    with open(spec["document"], "r", encoding="utf-8") as fh:
        stream = tokenize(fh, alphabet)
        if spec["command"] == "spanner":
            stream = itertools.chain(stream, [Token(TokenKind.NEUTRAL, spanner.END_MARKER)])
        tracemalloc.start()
        try:
            result = engine.preprocess(machine, stream)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return {"problem": None, "retained_bytes_per_token": kept / result.length}


MODES = {
    "time": mode_time,
    "memory": mode_memory,
    "oracle": mode_oracle,
    "trace": mode_trace,
    "counts": mode_counts,
    "series": mode_series,
    "retained": mode_retained,
}


def main(request: dict) -> dict:
    spec = json.loads(Path(request["spec"]).read_text(encoding="utf-8"))
    text = Path(spec["program"]).read_text(encoding="utf-8")
    out = MODES[request["mode"]](spec, text)
    spans = out.pop("spans", None)
    if spans is not None and request.get("spans_out"):
        Path(request["spans_out"]).write_text(json.dumps(spans), encoding="utf-8")
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
