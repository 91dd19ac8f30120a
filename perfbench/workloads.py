"""Seeded inputs for the benchmark workloads and the checks on their outputs.

Standard library only: the driver imports this module before it knows
whether the package under test can be imported at all, and the child
processes import it to check what the program printed.

Every input is a pure function of (workload, seed). A workload's files
go into its own directory together with ``spec.json``, which names the
files and holds what the generator knows about the right answer.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Same machine as demos/data/choice.vpt, kept here so that the benchmark
# generates all of its inputs itself.
CHOICE_VPT = """\
states: q0 q1 qf
initial: q0
final: qf
stack: X
outputs: u v
open r q0 -> q1 push X out -
close r q1 pop X -> qf out -
neutral b q1 -> q1 out u
neutral b q1 -> q1 out v
neutral c q1 -> q1 out -
"""

# Capture any <a ...> element at any depth: one mapping per element.
# The compilation is not deterministic in (letter, output), so set-up
# runs determinization.
TREE_VPEG = """\
var x
start N
N -> c N | <a N a> D | <a D a> N | (x E
E -> <a D a> F
F -> x) D
D -> c D | <a D a> D | eps
"""

WORKLOADS = ("scan", "enum", "spanner-tree")

SCAN_TOKENS = 100_000
SCAN_CHOICES = 10
ENUM_TOKENS = 2_000
ENUM_CHOICES = 40
ENUM_LIMIT = 4_000
TREE_TOKENS = 20_000
TREE_DEPTH_CAP = 1024
TREE_SLOPE = 0.064  # the depth path reaches the cap after 16 000 tokens
TREE_P_C, TREE_P_TOWARD = 0.35, 0.45  # the rest steps away from the path
SMALL_TOKENS = 40  # oracle cross-check document
SMALL_CHOICES = 5
TOKENS_PER_LINE = 20


def choice_tokens(length: int, choices: int, rng: random.Random) -> tuple[list[str], list[int]]:
    """`<r`, padding `c` with `b` at seed-chosen positions, `r>`.

    Returns the tokens and the 1-based positions of the `b` tokens.
    """
    positions = sorted(rng.sample(range(2, length), choices))
    tokens = ["<r"] + ["c"] * (length - 2) + ["r>"]
    for p in positions:
        tokens[p - 1] = "b"
    return tokens, positions


def tree_tokens(length: int, depth_cap: int, rng: random.Random) -> tuple[list[str], list[list[int]]]:
    """Random `<a` / `a>` / `c` document, closed at the end.

    The depth follows a fixed path: it rises by TREE_SLOPE per token up
    to the cap, then stays there. Each token is `c` with probability
    TREE_P_C; otherwise it steps toward the path with probability
    TREE_P_TOWARD and away from it with the rest; a step that would
    leave the range [0, cap] emits `c`. Seeds change the shape of the tree but not how many
    elements sit at each depth, which is what enumeration cost per
    mapping follows. Returns the tokens and, per element, [k, m + 1]
    where the element opens at position k and closes at position m.
    """
    tokens: list[str] = []
    open_at: list[int] = []
    spans: list[list[int]] = []
    for t in range(length):
        r = rng.random()
        if r < TREE_P_C:
            tokens.append("c")
            continue
        below = len(open_at) < min(depth_cap, TREE_SLOPE * t)
        opening = (r < TREE_P_C + TREE_P_TOWARD) == below
        if opening and len(open_at) < depth_cap:
            tokens.append("<a")
            open_at.append(len(tokens))
        elif not opening and open_at:
            tokens.append("a>")
            spans.append([open_at.pop(), len(tokens) + 1])
        else:
            tokens.append("c")
    while open_at:
        tokens.append("a>")
        spans.append([open_at.pop(), len(tokens) + 1])
    return tokens, spans


def write_document(path: Path, tokens: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(0, len(tokens), TOKENS_PER_LINE):
            fh.write(" ".join(tokens[i : i + TOKENS_PER_LINE]))
            fh.write("\n")


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs into directory and return its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    # one stream per workload, so that the same seed never gives two
    # workloads correlated documents
    rng = random.Random(f"{workload}:{seed}")
    spec: dict = {"workload": workload, "seed": seed}
    if workload == "spanner-tree":
        program = directory / "tree.vpeg"
        program.write_text(TREE_VPEG, encoding="utf-8")
        tokens, spans = tree_tokens(TREE_TOKENS, TREE_DEPTH_CAP, rng)
        small, small_spans = tree_tokens(SMALL_TOKENS, TREE_DEPTH_CAP, rng)
        spec.update(command="spanner", program_flag="-g", limit=None)
        spec["expected"] = {"spans": spans}
        spec["small_expected"] = {"spans": small_spans}
    else:
        program = directory / "choice.vpt"
        program.write_text(CHOICE_VPT, encoding="utf-8")
        if workload == "scan":
            tokens, positions = choice_tokens(SCAN_TOKENS, SCAN_CHOICES, rng)
            limit = None
        else:
            tokens, positions = choice_tokens(ENUM_TOKENS, ENUM_CHOICES, rng)
            limit = ENUM_LIMIT
        small, small_positions = choice_tokens(SMALL_TOKENS, SMALL_CHOICES, rng)
        spec.update(command="run", program_flag="-t", limit=limit)
        spec["expected"] = {"positions": positions, "limit": limit}
        spec["small_expected"] = {"positions": small_positions, "limit": None}
    document = directory / "doc.txt"
    small_document = directory / "small.txt"
    write_document(document, tokens)
    write_document(small_document, small)
    spec.update(
        program=str(program),
        document=str(document),
        small_document=str(small_document),
        tokens=len(tokens),
        small_tokens=len(small),
    )
    (directory / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


def cli_argv(spec: dict, document: str) -> list[str]:
    """The `vptenum` arguments that evaluate the workload on a document."""
    argv = [spec["command"], spec["program_flag"], spec["program"], "-d", document]
    if spec["limit"] is not None and document == spec["document"]:
        argv += ["--limit", str(spec["limit"])]
    return argv


def result_lines(lines: list[str], command: str) -> tuple[list[str], str | None]:
    """Strip `run`'s `#` framing; returns (results, problem or None)."""
    if command != "run":
        return lines, None
    if len(lines) < 2 or lines[0] != "#" or lines[-1] != "#":
        return lines, "missing # framing"
    return lines[1:-1], None


def expected_set(expected: dict) -> set[str] | None:
    """The exact output set, when it is small enough to spell out."""
    if "spans" in expected:
        return {f"x=[{k},{end})" for k, end in expected["spans"]}
    positions = expected["positions"]
    if expected["limit"] is not None:
        return None
    return {
        " ".join(f"{sym}@{p}" for sym, p in zip(syms, positions))
        for syms in itertools.product("uv", repeat=len(positions))
    }


def expected_count(expected: dict) -> int:
    if "spans" in expected:
        return len(expected["spans"])
    if expected["limit"] is not None:
        return expected["limit"]
    return 2 ** len(expected["positions"])


def check(expected: dict, results: list[str]) -> str | None:
    """None when results are exactly right, else what is wrong."""
    if len(set(results)) != len(results):
        return "duplicate results"
    want = expected_set(expected)
    if want is not None:
        if set(results) != want:
            missing = len(want - set(results))
            extra = len(set(results) - want)
            return f"result set differs: {missing} missing, {extra} unexpected"
        return None
    # a --limit run: every word prints u or v at exactly the choice positions
    if len(results) != expected["limit"]:
        return f"{len(results)} results, wanted {expected['limit']}"
    skeleton = " ".join(str(p) for p in expected["positions"])
    n = len(expected["positions"])
    for line in results:
        if line.count("@") != n or line.replace("u@", "").replace("v@", "") != skeleton:
            return f"malformed result {line[:80]!r}"
    return None


def items_on(line: str) -> int:
    """Items on a result line: one `sym@pos` or `var=[i,j)` each; ε is 1."""
    return line.count(" ") + 1
