"""Command-line surface: subcommands, exit codes, output framing."""

import contextlib
import csv
import io
import itertools
import json
import os
import random
import select
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import vptenum
from vptenum import engine, spanner
from vptenum.cli import (
    COMMANDS,
    EXIT_CAP,
    EXIT_DIFF,
    EXIT_INPUT,
    EXIT_MODE,
    EXIT_OK,
    EXIT_USAGE,
    _checkpoint_lines,
    _parse_plain,
    build_parser,
    main,
    render_word,
)
from vptenum.ecs import EMPTY
from vptenum.enumtree import Enumerator
from vptenum.formats import parse_vpt, serialize_vpt
from vptenum.nested import BLOCK_CHARS, tokenize
from vptenum.spanner import evaluate_spanner, parse_vpeg
from vptenum.vpt import is_io_deterministic

from oracle_helpers import random_det_vpt, random_machines, random_well_nested, serialize

# one bracket pair, two outputs per b, silent c padding
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

# two transitions under the same (state, letter, output) key
AMBIGUOUS_VPT = """\
states: q0 q1
initial: q0
final: q1
outputs: o
neutral c q0 -> q0 out o
neutral c q0 -> q1 out o
neutral c q1 -> q1 out o
"""

GRAMMAR = """\
var x
start S
S -> <a A a> T | <a P a> S
A -> (x B
B -> c B | x) C
C -> eps
P -> c P | eps
T -> <a P a> T | eps
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run_main(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out.splitlines(), err.splitlines()


class TestRun:
    def test_framing_and_words(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b r>")
        code, out, err = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_OK
        assert out[0] == "#" and out[-1] == "#"
        assert sorted(out[1:-1]) == ["u@2 u@3", "u@2 v@3", "v@2 u@3", "v@2 v@3"]
        assert err == []

    def test_empty_word_prints_epsilon(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r c c r>")
        code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_OK
        assert out == ["#", "ε", "#"]

    def test_rejected_document_double_hash(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "c")
        code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_OK
        assert out == ["#", "#"]

    def test_limit(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b b r>")
        code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d, "--limit", "3"])
        assert code == EXIT_OK
        assert len(out) == 5  # framing + 3 words

    def test_limit_zero_prints_only_the_framing(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b b r>")
        code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d, "--limit", "0"])
        assert code == EXIT_OK
        assert out == ["#", "#"]
        # the document is still read and checked in full
        bad = files("bad.txt", "<r b b b")
        code, out, err = run_main(capsys, ["run", "-t", t, "-d", bad, "--limit", "0"])
        assert code == EXIT_INPUT
        assert out == []
        assert err[0].startswith("vptenum: error: unbalanced open")

    def test_document_from_stdin(self, capsys, files, monkeypatch):
        t = files("m.vpt", CHOICE_VPT)
        monkeypatch.setattr(sys, "stdin", io.StringIO("<r b r>"))
        code, out, _ = run_main(capsys, ["run", "-t", t, "-d", "-"])
        assert code == EXIT_OK
        assert sorted(out[1:-1]) == ["u@2", "v@2"]

    def test_document_comments(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "# header note\n<r b\n# middle\nr>\n")
        code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_OK
        assert sorted(out[1:-1]) == ["u@2", "v@2"]

    def test_checkpoint_lines(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r c r>")
        code, out, err = run_main(capsys, ["run", "-t", t, "-d", d, "--checkpoint"])
        assert code == EXIT_OK
        assert err == [
            "checkpoint k=1 depth=1 accepting=no",
            "checkpoint k=2 depth=1 accepting=no",
            "checkpoint k=3 depth=0 accepting=yes",
        ]

    def test_checkpoint_accepting_prefixes(self, capsys, files):
        # the machine accepts exactly one element, so acceptance turns
        # on after the first close and off again once a second element
        # strands every run
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b r> <r r>")
        code, _, err = run_main(capsys, ["run", "-t", t, "-d", d, "--checkpoint"])
        assert code == EXIT_OK
        flags = [line.rsplit("=", 1)[1] for line in err]
        assert flags == ["no", "no", "yes", "no", "no"]

    def test_checkpoint_adds_no_arena_nodes(self, capsys):
        # acceptance is read off the table's keys: the lines are those a
        # fold of the accepting handles gives, but no node is added
        fold_grew = False
        for _, m, docs in random_machines():
            vpt = engine.resolve_mode(m, "determinize")
            for doc in docs:
                folded = []

                def fold(k, state, counts):
                    accepting = "yes" if state.accepting(vpt) != EMPTY and not state.stack else "no"
                    folded.append(f"checkpoint k={k} depth={len(state.stack)} accepting={accepting}")

                fold_size = len(engine.preprocess(vpt, doc, fold).arena)
                capsys.readouterr()
                checked = engine.preprocess(vpt, doc, _checkpoint_lines(vpt))
                assert capsys.readouterr().err.splitlines() == folded
                assert len(checked.arena) == len(engine.preprocess(vpt, doc).arena)
                fold_grew |= fold_size > len(checked.arena)
        assert fold_grew

    def test_stats_csv_schema(self, capsys, files, tmp_path):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b r>")
        stats = tmp_path / "stats.csv"
        code, _, _ = run_main(
            capsys, ["run", "-t", t, "-d", d, "--stats", "--stats-out", str(stats)]
        )
        assert code == EXIT_OK
        with stats.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "record",
            "index",
            "visits",
            "scans",
            "ecs_calls",
            "nodes_added",
            "delay_steps",
            "output_len",
        ]
        kinds = [row[0] for row in rows[1:]]
        assert kinds.count("symbol") == 4  # one per document symbol
        assert kinds.count("finalize") == 1
        assert kinds.count("output") == 4  # one per enumerated word
        for row in rows[1:]:
            if row[0] == "symbol":
                assert int(row[2]) >= 0 and int(row[5]) >= 0
            if row[0] == "output":
                assert int(row[6]) >= 1  # delay steps
                assert int(row[7]) in (0, 2)  # ε or two emissions

    def test_stats_out_alone_writes_the_csv(self, capsys, files, tmp_path):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b r>")
        argv = ["run", "-t", t, "-d", d, "--stats-out"]
        alone = run_main(capsys, [*argv, str(tmp_path / "alone.csv")])
        both = run_main(capsys, [*argv, str(tmp_path / "both.csv"), "--stats"])
        assert alone == both
        assert alone[2] == []  # nothing on stderr
        text = (tmp_path / "alone.csv").read_text(encoding="utf-8")
        assert text.startswith("record,index,")
        assert text == (tmp_path / "both.csv").read_text(encoding="utf-8")

    def test_stats_default_to_stderr(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b r>")
        code, _, err = run_main(capsys, ["run", "-t", t, "-d", d, "--stats"])
        assert code == EXIT_OK
        assert err[0].startswith("record,index,visits")

    def test_checkpoint_and_stats_share_stderr(self, capsys, files):
        # per token, the CSV row is written, then the checkpoint line;
        # each kind keeps the order and content it has on its own
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b c r>")
        argv = ["run", "-t", t, "-d", d]
        code, out, err = run_main(capsys, [*argv, "--checkpoint", "--stats"])
        assert code == EXIT_OK
        assert out == ["#", "u@2", "v@2", "#"]
        assert err[:9] == [
            "record,index,visits,scans,ecs_calls,nodes_added,delay_steps,output_len",
            "symbol,1,1,0,1,0,,",
            "checkpoint k=1 depth=1 accepting=no",
            "symbol,2,2,0,6,3,,",
            "checkpoint k=2 depth=1 accepting=no",
            "symbol,3,1,0,1,0,,",
            "checkpoint k=3 depth=1 accepting=no",
            "symbol,4,1,0,2,0,,",
            "checkpoint k=4 depth=0 accepting=yes",
        ]
        assert [line.split(",")[0] for line in err[9:]] == ["finalize", "output", "output"]
        _, _, stats = run_main(capsys, [*argv, "--stats"])
        _, _, checkpoints = run_main(capsys, [*argv, "--checkpoint"])
        assert [line for line in err if not line.startswith("checkpoint")] == stats
        assert [line for line in err if line.startswith("checkpoint")] == checkpoints

    @pytest.mark.parametrize("flags", [["--stats", "--stats-out", "stats.csv"], ["--checkpoint"]])
    def test_retained_memory_does_not_grow_with_length(self, tmp_path, flags):
        # rows and checkpoint lines are written as the pass reads each
        # token, so the peak stays flat as the document grows
        machine = tmp_path / "m.vpt"
        machine.write_text(CHOICE_VPT, encoding="utf-8")
        argv = ["run", "-t", str(machine), *(str(tmp_path / f) if f.endswith(".csv") else f for f in flags)]
        peaks = {}
        with open(os.devnull, "w", encoding="utf-8") as sink:
            for n in (10_000, 40_000):
                doc = tmp_path / f"d{n}.txt"
                doc.write_text("<r b " + "c " * (n - 3) + "r>\n", encoding="utf-8")
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        assert main([*argv, "-d", str(doc)]) == EXIT_OK
                    _, peaks[n] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert peaks[40_000] - peaks[10_000] < 128 * 1024, peaks

    def test_stats_memory_does_not_grow_with_results(self, tmp_path):
        # each output row is written as its word is emitted, so the
        # peak stays flat as more of the 2^14 results are enumerated
        machine = tmp_path / "m.vpt"
        machine.write_text(CHOICE_VPT, encoding="utf-8")
        doc = tmp_path / "d.txt"
        doc.write_text("<r " + "b " * 14 + "r>\n", encoding="utf-8")
        argv = ["run", "-t", str(machine), "-d", str(doc), "--stats", "--stats-out", str(tmp_path / "s.csv")]
        peaks = {}
        with open(os.devnull, "w", encoding="utf-8") as sink:
            for limit in (2_000, 8_000):
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(sink):
                        assert main([*argv, "--limit", str(limit)]) == EXIT_OK
                    _, peaks[limit] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert peaks[8_000] - peaks[2_000] < 128 * 1024, peaks

    def test_output_rows_are_the_instrumented_gaps(self, capsys, files, tmp_path):
        # the streamed rows give what Enumerator(instrument=True) records
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b c b b r>")
        stats = tmp_path / "stats.csv"
        argv = ["run", "-t", t, "-d", d, "--stats", "--stats-out", str(stats)]
        assert run_main(capsys, [*argv, "--limit", "5"])[0] == EXIT_OK
        with stats.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row[0] == "output"]
        vpt = parse_vpt(CHOICE_VPT)
        with open(d, encoding="utf-8") as fh:
            result = engine.preprocess(vpt, tokenize(fh, vpt.alphabet))
        enum = Enumerator(result.arena, result.root, instrument=True)
        assert len(list(itertools.islice(enum, 5))) == 5
        assert [(int(r[1]), int(r[6]), int(r[7])) for r in rows] == [
            (i, gap, length) for i, (gap, length) in enumerate(enum.gaps, start=1)
        ]

    def test_ambiguous_machine_refused_by_default(self, capsys, files):
        t = files("m.vpt", AMBIGUOUS_VPT)
        d = files("d.txt", "c c")
        for flags in ([], ["--check-deterministic"]):
            code, _, err = run_main(capsys, ["run", "-t", t, "-d", d, *flags])
            assert code == EXIT_MODE
            assert err and err[0].startswith("vptenum: mode violation:")

    def test_determinize_first_deduplicates(self, capsys, files):
        t = files("m.vpt", AMBIGUOUS_VPT)
        d = files("d.txt", "c c")
        # the abbreviation is read by argparse only
        for flag in ("--determinize-first", "--determ"):
            code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d, flag])
            assert code == EXIT_OK
            assert out == ["#", "o@1 o@2", "#"]

    def test_trust_mode_shows_the_lie(self, capsys, files):
        # vouching for a machine with two accepting runs per result
        # yields duplicates: the check exists for a reason
        t = files("m.vpt", AMBIGUOUS_VPT)
        d = files("d.txt", "c c")
        for flag in ("--trust-unambiguous", "--trust"):
            code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d, flag])
            assert code == EXIT_OK
            assert out == ["#", "o@1 o@2", "o@1 o@2", "#"]

    def test_unbalanced_document(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b")
        code, _, err = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_INPUT
        assert "unbalanced open at position 1" in err[0]

    def test_unbalanced_close(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b r> r>")
        code, _, err = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_INPUT
        assert "unbalanced close at position 4" in err[0]

    def test_unknown_document_symbol(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r z r>")
        code, _, err = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_INPUT

    def test_bad_token_position_on_stderr(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b\nc\n  c <b r>\n")
        code, out, err = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_INPUT
        assert out == []
        assert err == ["vptenum: error: unknown open symbol 'b' at token 5, line 3:5"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys,
            ["run", "-t", str(tmp_path / "none.vpt"), "-d", str(tmp_path / "none.txt")],
        )
        assert code == EXIT_INPUT
        assert err[0].startswith("vptenum: error:")

    def test_malformed_machine_file(self, capsys, files):
        t = files("m.vpt", "states q0\n")
        d = files("d.txt", "c")
        code, _, err = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_INPUT
        assert "vptenum: error:" in err[0]

    @pytest.mark.parametrize("command", ["run", "determinize"])
    def test_undeclared_initial_state(self, capsys, files, command):
        argv = [command, "-t", files("m.vpt", "states: q0\ninitial: q9\nfinal: q0\n")]
        if command == "run":
            argv += ["-d", files("d.txt", "c")]
        code, out, err = run_main(capsys, argv)
        assert code == EXIT_INPUT
        assert out == []
        assert err == ["vptenum: error: initial: header names undeclared state(s) q9"]


class TestScanDocument:
    """The shape of the benchmark's scan workload: 10^5 tokens, a few b
    among silent c, written 20 tokens per line. Nearly every token
    repeats the one before it in an identity run."""

    LENGTH, CHOICES, PER_LINE = 100_000, 10, 20

    def document(self, tmp_path):
        rng = random.Random(5)
        positions = sorted(rng.sample(range(2, self.LENGTH), self.CHOICES))
        tokens = ["<r"] + ["c"] * (self.LENGTH - 2) + ["r>"]
        for p in positions:
            tokens[p - 1] = "b"
        lines = (" ".join(tokens[i : i + self.PER_LINE]) for i in range(0, self.LENGTH, self.PER_LINE))
        path = tmp_path / "scan.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path), positions

    def test_every_result_exactly_once(self, capsys, files, tmp_path):
        t = files("m.vpt", CHOICE_VPT)
        d, positions = self.document(tmp_path)
        code, out, _ = run_main(capsys, ["run", "-t", t, "-d", d])
        assert code == EXIT_OK
        assert out[0] == out[-1] == "#"
        expected = {
            " ".join(f"{sym}@{p}" for sym, p in zip(choice, positions))
            for choice in itertools.product("uv", repeat=self.CHOICES)
        }
        assert len(out) - 2 == len(expected) == 2**self.CHOICES
        assert set(out[1:-1]) == expected

    def test_skipped_runs_count_what_each_step_counts(self, tmp_path):
        # an observer, even one that does nothing, makes every token take its step
        vpt = parse_vpt(CHOICE_VPT)
        d, _ = self.document(tmp_path)
        with open(d, encoding="utf-8") as fh:
            tokens = list(tokenize(fh, vpt.alphabet))
        skipped = engine.preprocess(vpt, tokens)
        stepped = engine.preprocess(vpt, tokens, lambda k, state, counts: None)
        assert skipped.stats == stepped.stats
        assert skipped.stats.pulls == self.LENGTH + 1
        assert skipped.stats.totals().visits == self.LENGTH + self.CHOICES + 1
        arenas = [(r.arena.kinds, r.arena.lefts, r.arena.rights) for r in (skipped, stepped)]
        assert arenas[0] == arenas[1]
        assert skipped.root == stepped.root


class TestOracle:
    def test_sorted_reference_output(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b r>")
        code, out, _ = run_main(capsys, ["oracle", "-t", t, "-d", d])
        assert code == EXIT_OK
        assert out == ["u@2 u@3", "u@2 v@3", "v@2 u@3", "v@2 v@3"]

    def test_diff_agrees(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b c b r>")
        code, _, err = run_main(capsys, ["oracle", "-t", t, "-d", d, "--diff"])
        assert code == EXIT_OK
        assert err == []

    def test_empty_reference_set_prints_nothing(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "c")  # no transition from q0 on c: rejected
        code, out, err = run_main(capsys, ["oracle", "-t", t, "-d", d])
        assert code == EXIT_OK
        assert out == []
        assert err == []

    def test_diff_mismatch_exit_code(self, capsys, files, monkeypatch):
        # force a disagreement to exercise the reporting path
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b r>")
        monkeypatch.setattr(engine, "evaluate", lambda *a, **k: [(("u", 2),)])
        code, _, err = run_main(capsys, ["oracle", "-t", t, "-d", d, "--diff"])
        assert code == EXIT_DIFF
        assert err[0] == "mismatch: engine lacks 1 word(s), adds 0 word(s)"
        assert err[1] == "  missing: v@2"


class TestSpanner:
    def test_mappings(self, capsys, files):
        g = files("g.vpeg", GRAMMAR)
        d = files("d.txt", "<a c c a> <a c a>")
        code, out, _ = run_main(capsys, ["spanner", "-g", g, "-d", d])
        assert code == EXIT_OK
        assert sorted(out) == ["x=[2,4)", "x=[6,7)"]

    def test_limit(self, capsys, files):
        g = files("g.vpeg", GRAMMAR)
        d = files("d.txt", "<a c a> <a c a> <a c a>")
        code, out, _ = run_main(capsys, ["spanner", "-g", g, "-d", d, "--limit", "2"])
        assert code == EXIT_OK
        assert len(out) == 2

    def test_limit_zero_prints_nothing(self, capsys, files):
        g = files("g.vpeg", GRAMMAR)
        d = files("d.txt", "<a c a> <a c a> <a c a>")
        code, out, _ = run_main(capsys, ["spanner", "-g", g, "-d", d, "--limit", "0"])
        assert code == EXIT_OK
        assert out == []
        # the document is still read and checked in full
        bad = files("bad.txt", "<a c a> <a c")
        code, out, err = run_main(capsys, ["spanner", "-g", g, "-d", bad, "--limit", "0"])
        assert code == EXIT_INPUT
        assert out == []
        assert err[0].startswith("vptenum: error: unbalanced open")

    @pytest.mark.parametrize("limit, decoded", [(0, 0), (1, 1), (3, 3), (5, 5)])
    def test_limit_decodes_only_what_it_prints(self, capsys, files, monkeypatch, limit, decoded):
        calls = []
        real_decode = spanner.SpanLayout.decode

        def decode(layout, word):
            calls.append(word)
            return real_decode(layout, word)

        monkeypatch.setattr(spanner.SpanLayout, "decode", decode)
        g = files("g.vpeg", GRAMMAR)
        d = files("d.txt", "<a c a> " * 5)
        code, out, _ = run_main(capsys, ["spanner", "-g", g, "-d", d, "--limit", str(limit)])
        assert code == EXIT_OK
        assert len(out) == limit
        assert len(calls) == decoded

    def test_rejected_document_prints_nothing(self, capsys, files):
        g = files("g.vpeg", GRAMMAR)
        d = files("d.txt", "c")
        code, out, _ = run_main(capsys, ["spanner", "-g", g, "-d", d])
        assert code == EXIT_OK
        assert out == []

    def test_bad_grammar(self, capsys, files):
        g = files("g.vpeg", "start S\nS -> A B\nA -> eps\nB -> eps")
        d = files("d.txt", "c")
        code, _, err = run_main(capsys, ["spanner", "-g", g, "-d", d])
        assert code == EXIT_INPUT
        assert "not a grammar shape" in err[0]

    def test_not_functional_grammar(self, capsys, files):
        g = files("g.vpeg", "var x\nstart S\nS -> eps")
        d = files("d.txt", "")
        code, _, err = run_main(capsys, ["spanner", "-g", g, "-d", d])
        assert code == EXIT_INPUT
        assert "not functional" in err[0]

    def test_foreign_document_symbol(self, capsys, files):
        g = files("g.vpeg", GRAMMAR)
        d = files("d.txt", "<a z a>")
        code, _, err = run_main(capsys, ["spanner", "-g", g, "-d", d])
        assert code == EXIT_INPUT


class TestDeterminize:
    def test_stdout_output(self, capsys, files):
        t = files("m.vpt", AMBIGUOUS_VPT)
        code, out, _ = run_main(capsys, ["determinize", "-t", t])
        assert code == EXIT_OK
        det = parse_vpt("\n".join(out) + "\n")
        assert is_io_deterministic(det)

    def test_file_output(self, capsys, files, tmp_path):
        t = files("m.vpt", AMBIGUOUS_VPT)
        dest = tmp_path / "det.vpt"
        code, out, _ = run_main(capsys, ["determinize", "-t", t, "-o", str(dest)])
        assert code == EXIT_OK
        assert out == []
        assert is_io_deterministic(parse_vpt(dest.read_text()))

    def test_state_cap(self, capsys, files):
        t = files("m.vpt", AMBIGUOUS_VPT)
        code, _, err = run_main(capsys, ["determinize", "-t", t, "--max-states", "1"])
        assert code == EXIT_CAP
        assert err[0].startswith("vptenum: resource cap:")


class TestBench:
    def test_csv_schema(self, capsys, files, tmp_path):
        dest = tmp_path / "bench.csv"
        code, out, _ = run_main(
            capsys,
            ["bench", "--lengths", "20,40", "--choices", "3", "--limit", "10", "-o", str(dest)],
        )
        assert code == EXIT_OK
        assert out == []
        with dest.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "record",
            "length",
            "index",
            "visits",
            "scans",
            "ecs_calls",
            "nodes_added",
            "delay_steps",
            "output_len",
        ]
        symbol_rows = [r for r in rows[1:] if r[0] == "symbol"]
        output_rows = [r for r in rows[1:] if r[0] == "output"]
        assert len(symbol_rows) == 20 + 40
        assert {r[1] for r in symbol_rows} == {"20", "40"}
        # 2^3 words per document, both documents fully enumerated
        assert len(output_rows) == 16
        for r in output_rows:
            assert int(r[7]) >= 1

    def test_stdout_default(self, capsys):
        code, out, _ = run_main(
            capsys, ["bench", "--lengths", "10", "--choices", "2", "--limit", "4"]
        )
        assert code == EXIT_OK
        assert out[0].startswith("record,length,index")

    def test_limit_zero_enumerates_nothing(self, capsys):
        code, out, _ = run_main(
            capsys, ["bench", "--lengths", "10", "--choices", "2", "--limit", "0"]
        )
        assert code == EXIT_OK
        records = [line.split(",")[0] for line in out[1:]]
        assert records == ["symbol"] * 10 + ["finalize"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lengths", "100,x"], "argument --lengths: not an integer: 'x'"),
            (["--lengths", "100,-5"], "argument --lengths: must not be negative: -5"),
            (["--lengths", "5"], "length 5 is shorter than --choices + 2 = 42"),
            (["--lengths", "100,7", "--choices", "6"], "length 7 is shorter than --choices + 2 = 8"),
            (["--choices", "-1"], "argument --choices"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""  # not even the CSV header
        assert message in err


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_smoothing_flag_is_gone(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b r>")
        with pytest.raises(SystemExit) as exc:
            main(["run", "-t", t, "-d", d, "--smoothing", "4"])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "--smoothing" in err

    def test_conflicting_mode_flags(self, files):
        t = files("m.vpt", CHOICE_VPT)
        with pytest.raises(SystemExit) as exc:
            main(["run", "-t", t, "-d", "-", "--trust-unambiguous", "--determinize-first"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, option, value",
        [
            *(
                pytest.param(command, "--limit", value, id=f"{value}-{command}")
                for value in ("-3", "x")
                for command in ("bench", "run", "spanner")
            ),
            # the other count options
            pytest.param("oracle", "--max-configs", "-1", id="max-configs-oracle"),
            pytest.param("determinize", "--max-states", "-1", id="max-states-determinize"),
            # int() reads it as 0, but a count is written in digits only
            pytest.param("run", "--limit", "-0", id="minus-zero-run"),
        ],
    )
    def test_limit_must_be_a_count(self, capsys, files, command, option, value):
        program = {
            "run": ["-t", files("m.vpt", CHOICE_VPT)],
            "oracle": ["-t", files("m.vpt", CHOICE_VPT)],
            "determinize": ["-t", files("m.vpt", CHOICE_VPT)],
            "spanner": ["-g", files("g.vpeg", GRAMMAR)],
            "bench": [],
        }[command]
        document = [] if command in ("bench", "determinize") else ["-d", files("d.txt", "<r b r>")]
        with pytest.raises(SystemExit) as exc:
            main([command, *program, *document, option, value])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}" in err

    @pytest.mark.parametrize(
        "value", [" 7", "+5", "1_000", "\u0663"], ids=["space", "plus", "underscore", "arabic-indic"]
    )
    @pytest.mark.parametrize(
        "command, option", [("run", "--limit"), ("oracle", "--max-configs"), ("bench", "--choices")]
    )
    def test_count_is_ascii_digits(self, capsys, files, command, option, value):
        # int() reads each of these as a number; a count is ASCII digits only
        program = []
        if command != "bench":
            program = ["-t", files("m.vpt", CHOICE_VPT), "-d", files("d.txt", "<r b r>")]
        with pytest.raises(SystemExit) as exc:
            main([command, *program, option, value])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: not an integer: {value!r}" in err


class TestRenderWord:
    def test_empty(self):
        assert render_word(()) == "ε"

    def test_positions(self):
        assert render_word((("o", 1), ("p", 12))) == "o@1 p@12"


def run_cases():
    """(machine text, document text) pairs: the random machines of the
    engine tests, denser machines with more results, and the choice
    machine over random runs of choices."""
    for _, m, docs in random_machines():
        for doc in docs:
            yield serialize_vpt(m), serialize(doc)
    rng = random.Random(47)
    for _ in range(24):
        m = random_det_vpt(rng, n_states=3, n_trans=40)
        yield serialize_vpt(m), serialize(random_well_nested(rng, m.alphabet, rng.randint(4, 14)))
    for _ in range(12):
        yield CHOICE_VPT, " ".join(["<r", *rng.choices("bbc", k=rng.randint(0, 9)), "r>"])


@pytest.mark.parametrize(
    "options",
    [[], ["--limit", "5"], ["--stats"], ["--checkpoint"], ["--stats", "--stats-out", "stats.csv"]],
)
def test_run_prints_what_render_word_renders(capsys, tmp_path, options):
    # run prints each word from the texts it kept of the previous one;
    # the reference renders every word whole
    machine, document = tmp_path / "m.vpt", tmp_path / "d.txt"
    options = [str(tmp_path / opt) if opt.endswith(".csv") else opt for opt in options]
    limit = int(options[1]) if options[:1] == ["--limit"] else None
    printed = epsilon_first = 0
    for machine_text, document_text in run_cases():
        vpt = parse_vpt(machine_text)
        try:
            result = engine.preprocess(vpt, tokenize(document_text, vpt.alphabet))
        except ValueError:  # NestingError, or an arena operand check
            continue
        words = list(itertools.islice(Enumerator(result.arena, result.root), limit))
        machine.write_text(machine_text, encoding="utf-8")
        document.write_text(document_text, encoding="utf-8")
        code = main(["run", "-t", str(machine), "-d", str(document), "--trust-unambiguous", *options])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert out == "".join(f"{line}\n" for line in ["#", *map(render_word, words), "#"])
        printed += len(words)
        epsilon_first += len(words) > 1 and words[0] == ()
    assert printed > 200
    assert epsilon_first


def module_env(**env_vars) -> dict:
    """The environment with env_vars added and this checkout importable."""
    src = str(Path(vptenum.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(*args, text=True, **env_vars):
    """``python -m vptenum ...`` against this checkout, installed or not."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, timeout=60, env=module_env(**env_vars)
    )


def test_console_script_entry_point(tmp_path):
    # the [project.scripts] entry and `python -m vptenum` both call
    # cli.main; a text check, since tomllib needs Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]", 1)[1]
    assert 'vptenum = "vptenum.cli:main"' in scripts.split("\n[", 1)[0]
    t = tmp_path / "m.vpt"
    t.write_text(CHOICE_VPT, encoding="utf-8")
    d = tmp_path / "d.txt"
    d.write_text("<r b r>", encoding="utf-8")
    proc = run_module("-m", "vptenum", "run", "-t", str(t), "-d", str(d))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "#" and lines[-1] == "#"
    assert sorted(lines[1:-1]) == ["u@2", "v@2"]


@pytest.mark.parametrize("command", ["run", "oracle", "spanner"])
def test_document_file_closed(files, command):
    if command == "spanner":
        # --limit stops the enumeration before the results run out
        doc = files("d.txt", "<a c a> <a c a>")
        argv = ["-g", files("g.vpeg", GRAMMAR), "-d", doc, "--limit", "1"]
    else:
        argv = ["-t", files("m.vpt", CHOICE_VPT), "-d", files("d.txt", "<r b b r>")]
        if command == "run":
            argv += ["--limit", "1"]
    proc = run_module("-X", "dev", "-m", "vptenum", command, *argv)
    assert proc.returncode == 0
    assert "ResourceWarning" not in proc.stderr


def test_stdin_read_as_it_arrives(files):
    # the writer keeps the pipe open: what it has sent is read, and the
    # checkpoint lines of its tokens printed, before any more arrives
    argv = ["run", "-t", files("m.vpt", CHOICE_VPT), "-d", "-", "--checkpoint"]
    with subprocess.Popen(
        [sys.executable, "-m", "vptenum", *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(),
    ) as proc:
        proc.stdin.write(b"<r b c\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stderr], [], [], 20)
        assert ready, "no checkpoint line while the pipe is open"
        assert proc.stderr.readline() == b"checkpoint k=1 depth=1 accepting=no\n"
        proc.stdin.write(b"b r>\n")
        proc.stdin.close()
        assert proc.wait(timeout=60) == EXIT_OK
        assert proc.stderr.read().splitlines()[-1] == b"checkpoint k=5 depth=0 accepting=yes"
        results = sorted(proc.stdout.read().splitlines()[1:-1])
        assert results == [b"u@2 u@4", b"u@2 v@4", b"v@2 u@4", b"v@2 v@4"]


def test_broken_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "vptenum.cli", "bench", "--lengths", "100000", "--limit", "4096"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    for _ in range(2):
        proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_OK
    assert err == b""


DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def demo_argv(command, files, document):
    """Arguments that run a demos/data machine or grammar on a document."""
    doc = files("d.txt", document)
    if command == "run":
        return ["run", "-t", str(DEMO_DATA / "choice.vpt"), "-d", doc]
    return ["spanner", "-g", str(DEMO_DATA / "element.vpeg"), "-d", doc]


@pytest.mark.parametrize(
    "command, document, results",
    [("run", "<r b c b b r>", 8), ("spanner", "<a c c a> <a c a> <a a> <a c c c a>", 4)],
)
def test_output_order_independent_of_hash_seed(files, command, document, results):
    # no setarch and no fixed seed: the order of the printed results
    # must not depend on set iteration or on hash(None)
    argv = demo_argv(command, files, document)
    outputs = set()
    for seed in range(5):
        proc = run_module("-m", "vptenum", *argv, PYTHONHASHSEED=str(seed))
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    (out,) = outputs
    assert len(out.splitlines()) == results + (2 if command == "run" else 0)



@pytest.mark.parametrize(
    "grammar, message",
    [
        # two bad book vectors reach acceptance: a poisoned one (x
        # closed first) and one that leaves x and y unassigned
        (
            "var x y\nstart S\nS -> x) A | c B\nA -> eps\nB -> (x C\nC -> eps\n",
            "grammar not functional: some accepted ref-word repeats or misorders a capture",
        ),
        # no accepted ref-word, so only the marker cycle S→A→B→C→A fails
        (
            "var x y\nstart S\nS -> (x A\nA -> (y B\nB -> x) C\nC -> y) A\n",
            "capture transitions form a cycle through state 'A'",
        ),
    ],
    ids=["not-functional", "marker-cycle"],
)
def test_grammar_error_independent_of_hash_seed(files, grammar, message):
    argv = ["spanner", "-g", files("g.vpeg", grammar), "-d", files("d.txt", "c")]
    errors = set()
    for seed in range(5):
        proc = run_module("-m", "vptenum", *argv, PYTHONHASHSEED=str(seed))
        assert proc.returncode == EXIT_INPUT
        errors.add(proc.stderr)
    (err,) = errors
    assert err == f"vptenum: error: {message}\n"

def printed(lines) -> bytes:
    """What print() writes for the lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for line in lines:
            print(line)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("limit", [None, 3])
def test_run_prints_the_bytes_of_print(files, limit):
    # the result order is the same in every process, so the library's
    # results here, printed with print(), are the subprocess's bytes
    argv = demo_argv("run", files, "<r b c b b r>")
    vpt = parse_vpt((DEMO_DATA / "choice.vpt").read_text(encoding="utf-8"))
    words = engine.evaluate(vpt, tokenize("<r b c b b r>", vpt.alphabet))
    want = printed(["#", *map(render_word, itertools.islice(words, limit)), "#"])
    if limit is not None:
        argv += ["--limit", str(limit)]
    assert run_module("-m", "vptenum", *argv, text=False).stdout == want


@pytest.mark.parametrize("limit", [None, 3])
def test_spanner_prints_the_bytes_of_print(files, limit):
    document = "<a c c a> <a c a> <a a> <a c c c a>"
    argv = demo_argv("spanner", files, document)
    vpeg = parse_vpeg((DEMO_DATA / "element.vpeg").read_text(encoding="utf-8"))
    mappings = evaluate_spanner(vpeg, tokenize(document, vpeg.alphabet))
    want = printed(m.render() for m in itertools.islice(mappings, limit))
    if limit is not None:
        argv += ["--limit", str(limit)]
    assert run_module("-m", "vptenum", *argv, text=False).stdout == want


@pytest.mark.parametrize(
    "command, document",
    [("run", "<r " + "b " * 12 + "r>"), ("spanner", "<a c a> " * 12_000)],
)
def test_broken_pipe_on_result_lines(files, command, document):
    # far more output than a pipe holds; the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "vptenum", *demo_argv(command, files, document)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(),
    )
    proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_OK
    assert err == b""


class TestNotUtf8:
    """A file that does not decode as UTF-8 is bad input: one error line
    that names the file, nothing on stdout, exit 2."""

    @pytest.mark.parametrize(
        "command, flag, content",
        [
            pytest.param("run", "-d", b"<r b \xff c r>\n", id="run-document"),
            # past the first blocks, where the decoder's position is not
            # the file's
            pytest.param("run", "-d", b"<r " + b"c " * 3 * BLOCK_CHARS + b"\xff r>\n", id="run-late-byte"),
            pytest.param("run", "-t", CHOICE_VPT.encode() + b"# \xff\n", id="run-machine"),
            pytest.param("spanner", "-g", GRAMMAR.encode() + b"# \xff\n", id="spanner-grammar"),
            pytest.param("spanner", "-d", b"<a c \xff a>\n", id="spanner-document"),
            pytest.param("oracle", "-d", b"<r b \xff c r>\n", id="oracle-document"),
            pytest.param("determinize", "-t", CHOICE_VPT.encode() + b"# \xff\n", id="determinize-machine"),
        ],
    )
    def test_exit_2_naming_the_file(self, capsys, files, tmp_path, command, flag, content):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        argv = {
            "run": ["-t", files("m.vpt", CHOICE_VPT), "-d", files("d.txt", "<r b r>")],
            "oracle": ["-t", files("m.vpt", CHOICE_VPT), "-d", files("d.txt", "<r b r>")],
            "spanner": ["-g", files("g.vpeg", GRAMMAR), "-d", files("d.txt", "<a c a>")],
            "determinize": ["-t", files("m.vpt", CHOICE_VPT)],
        }[command]
        argv[argv.index(flag) + 1] = str(bad)
        code, out, err = run_main(capsys, [command, *argv])
        assert code == EXIT_INPUT
        assert out == []
        assert err == [f"vptenum: error: {bad}: not UTF-8 text (invalid start byte: 0xff)"]


def _arguments(argv):
    """argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


# values that each read differently: the stdin mark, counts, and
# strings that argparse reads as a value, an option or an error
VALUES = ["-", "5", "05", "-3", "+5", "1_000", " 7", "²", "x", "", "100,5", "1000,,10", "m.vpt", "-x", "--stats"]
# spellings that argparse accepts or refuses and the small parser leaves to it
STRAYS = ["-h", "--help", "--", "--lim", "--trans", "--determ", "-tm.vpt", "--limit=5", "-dd.txt", "--out=x"]
FLAGS = sorted({flag for _, _, options in COMMANDS.values() for flags, _ in options for flag in flags})


@st.composite
def command_lines(draw):
    """A subcommand and options of its own, each with a value when it
    takes one, mixed with other flags, odd spellings and stray values."""
    name = draw(st.sampled_from([*COMMANDS, *COMMANDS, "frob", "-h"]))
    options = COMMANDS.get(name, ("", None, ()))[2]
    # half the values are ones the option takes, so that many lines parse
    own = [
        st.sampled_from(flags).map(lambda flag: [flag])
        if "action" in keywords
        else st.tuples(
            st.sampled_from(flags), st.just("5" if "type" in keywords else "m.vpt") | st.sampled_from(VALUES)
        ).map(list)
        for flags, keywords in options
    ]
    parts = draw(st.lists(st.one_of(*own), max_size=5)) if own else []
    parts += draw(st.lists(st.sampled_from([*FLAGS, *STRAYS, *VALUES]).map(lambda token: [token]), max_size=1))
    if draw(st.integers(0, 3)):
        parts += [[flags[-1], "m.vpt"] for flags, keywords in options if keywords.get("required")]
    return [name, *itertools.chain.from_iterable(draw(st.permutations(parts)))]


class TestParser:
    """The small parser reads what argparse would; argparse reads the rest."""

    @settings(max_examples=400)
    @given(command_lines())
    def test_agrees_with_argparse(self, argv):
        plain = _parse_plain(argv)
        expected = _arguments(argv)
        if expected is None:
            assert plain is None
        elif plain is not None:
            assert vars(plain) == vars(expected)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "-t", "m.vpt", "-d", "d.txt"],
            ["run", "--document", "-", "--transducer", "m.vpt", "--limit", "05", "--determinize-first"],
            ["run", "-t", "m", "-d", "d", "--checkpoint", "--stats", "--stats-out", "s.csv", "--limit", "0"],
            ["oracle", "-t", "m.vpt", "-d", "d.txt", "--diff", "--max-configs", "10"],
            ["spanner", "-g", "g.vpeg", "-d", "d.txt", "--limit", "4000"],
            ["determinize", "-t", "m.vpt", "-o", "out.vpt", "--max-states", "7"],
            ["bench"],
            ["bench", "--lengths", "100,5", "--choices", "2", "--limit", "3", "-o", "b.csv"],
        ],
    )
    def test_reads_the_usual_lines_without_argparse(self, argv):
        plain = _parse_plain(argv)
        assert plain is not None
        assert vars(plain) == vars(_arguments(argv))

    @pytest.mark.parametrize(
        "options",
        [
            ["-h"],
            ["--frobnicate"],
            ["--lim", "3"],
            ["--limit=3"],
            ["-tm.vpt"],
            ["--", "x"],
            ["--limit", "3", "--limit", "4"],
            ["--stats", "--stats"],
            ["--limit"],
            ["--trust-unambiguous", "--determinize-first"],
            ["--stats-out", "-x"],
            ["--limit", "-3"],
            *(["--limit", count] for count in ("+5", "1_000", " 7", "²", "", "x")),
        ],
    )
    def test_leaves_other_lines_to_argparse(self, options):
        assert _parse_plain(["run", "-t", "m.vpt", "-d", "d.txt", *options]) is None

    def test_string_default_goes_through_its_type(self):
        assert _parse_plain(["bench"]).lengths == [1000, 10000, 100000]

    def test_abbreviations_still_work(self, capsys, files):
        t = files("m.vpt", CHOICE_VPT)
        d = files("d.txt", "<r b b b r>")
        code, out, _ = run_main(capsys, ["run", "--trans", t, "-d", d, "--lim", "3"])
        assert code == EXIT_OK
        assert len(out) == 5  # framing + 3 words

    def test_cold_start_imports_neither_argparse_nor_csv(self, files):
        # argparse is built only for help and errors, csv only for --stats
        # and bench
        script = (
            "import sys\n"
            "import vptenum.cli\n"
            "seen = [m for m in ('argparse', 'csv') if m in sys.modules]\n"
            "code = vptenum.cli.main(sys.argv[1:])\n"
            "seen += [m for m in ('argparse', 'csv') if m in sys.modules]\n"
            "print(code, *seen, file=sys.stderr)\n"
        )
        proc = run_module("-c", script, *demo_argv("run", files, "<r b c b r>"))
        assert proc.stderr == "0\n"


GOLDEN = json.loads((Path(__file__).parent / "cli_golden_py311.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help and error texts differ between versions")
@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(case["argv"]) or "no-arguments" for case in GOLDEN])
def test_help_and_usage_errors_unchanged(capsys, monkeypatch, case):
    # recorded from the argparse-only parser under Python 3.11; argparse
    # wraps help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
