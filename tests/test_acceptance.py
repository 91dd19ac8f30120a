"""Acceptance gate: eight criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is a single test so the pytest verdicts double as the gate.
"""

import dataclasses
import functools
import random
import statistics
import time

from oracle_helpers import (
    EcsOpSuite,
    PullCounter,
    SymbolRecords,
    check_state_invariants,
    contract_word,
    expand_document,
    expand_neutrals,
    grammar_mappings,
    random_det_vpt,
    random_doc_for_vpeg,
    random_functional_vpeg,
    random_nondet_vpt,
    random_vpa,
    random_vpeg,
    random_well_nested,
    union_of_unions,
    well_nested_words,
)
from vptenum import engine
from vptenum.cli import _bench_doc, _bench_vpt
from vptenum.engine import accepts
from vptenum.enumtree import Enumerator
from vptenum.nested import StructuredAlphabet
from vptenum.spanner import evaluate_spanner, to_evpa
from vptenum.vpt import io_determinize, oracle_enumerate

DET_ALPH = StructuredAlphabet(
    opens=frozenset({"a", "b"}),
    closes=frozenset({"a", "b"}),
    neutrals=frozenset({"c", "d"}),
)
PAIR_ALPH = StructuredAlphabet(
    opens=frozenset({"a"}), closes=frozenset({"a"}), neutrals=frozenset({"c"})
)


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                detail = fn()
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"criterion {num} ({name}): PASS — {detail} [{elapsed:.1f}s]")

        return wrapper

    return deco


def _transition_count(vpt) -> int:
    return len(vpt.opens) + len(vpt.closes) + len(vpt.neutrals)


def _with_twin_neutrals(rng, vpt):
    """Add neutral transitions that fork on the printed symbol only.

    The result stays deterministic in (letter, output) but words gain
    several output variants, exercising union and deduplication paths.
    """
    outs = sorted(vpt.output_symbols) + [None]
    neutrals = set(vpt.neutrals)
    pool = sorted(vpt.neutrals, key=repr)
    for q, a, _, _ in rng.sample(pool, min(3, len(pool))):
        used = {o for p, b, o, _ in neutrals if (p, b) == (q, a)}
        free = [o for o in outs if o not in used]
        if free:
            neutrals.add((q, a, rng.choice(free), rng.choice(sorted(vpt.states))))
    return dataclasses.replace(vpt, neutrals=frozenset(neutrals))


def _interesting_word(rng, vpt, alph):
    """Prefer a word with >= 2 outputs, then >= 1, then any word."""
    best, best_rank = None, -1
    for _ in range(8):
        word = random_well_nested(rng, alph, rng.randint(0, 12))
        size = len(oracle_enumerate(vpt, word))
        rank = 2 if size >= 2 else (1 if size == 1 else 0)
        if rank > best_rank:
            best, best_rank = word, rank
        if rank == 2:
            break
    return best


@criterion(1, "oracle equivalence")
def test_criterion_1_oracle_equivalence():
    rng = random.Random(101)
    deadline = 120.0
    start = time.monotonic()
    machines = 0
    words_checked = accepting = multi_output = 0
    while machines < 1000:
        if machines % 4 == 3:
            # machines out of the subset construction, capped back
            # to |Q| <= 5 and |Δ| <= 15
            while True:
                vpt = io_determinize(random_nondet_vpt(rng, n_states=3, n_trans=6))
                if len(vpt.states) <= 5 and _transition_count(vpt) <= 15:
                    break
            alph = PAIR_ALPH
        elif machines % 4 == 1:
            # output-forking machines: many words have several outputs
            while True:
                vpt = _with_twin_neutrals(
                    rng,
                    random_det_vpt(
                        rng, n_states=rng.randint(2, 5), n_trans=rng.randint(4, 12)
                    ),
                )
                if len(vpt.states) <= 5 and _transition_count(vpt) <= 15:
                    break
            alph = DET_ALPH
        else:
            vpt = random_det_vpt(
                rng, n_states=rng.randint(2, 5), n_trans=rng.randint(4, 15)
            )
            alph = DET_ALPH
        words = [
            _interesting_word(rng, vpt, alph),
            random_well_nested(rng, alph, rng.randint(0, 12)),
        ]
        for word in words:
            expected = oracle_enumerate(vpt, word)
            got = list(engine.evaluate(vpt, word, mode="check"))
            assert len(got) == len(set(got)), "duplicate output word"
            assert frozenset(got) == expected
            words_checked += 1
            accepting += bool(expected)
            multi_output += len(expected) > 1
        machines += 1
    elapsed = time.monotonic() - start
    assert elapsed < deadline, f"took {elapsed:.1f}s, budget {deadline}s"
    assert accepting >= 400, f"only {accepting} accepting words sampled"
    assert multi_output >= 60, f"only {multi_output} multi-output words sampled"
    return (
        f"{machines} machines, {words_checked} words ({accepting} accepting, "
        f"{multi_output} with several outputs), zero duplicates"
    )


@criterion(2, "prefix state invariants")
def test_criterion_2_state_invariants():
    rng = random.Random(202)
    for _ in range(200):
        vpt = random_det_vpt(rng)
        word = random_well_nested(rng, DET_ALPH, rng.randint(0, 10))
        check_state_invariants(vpt, word)
    return "200 instances, every prefix position, exact table and frame match"


@criterion(3, "output-linear delay")
def test_criterion_3_output_linear_delay():
    vpt = _bench_vpt()
    worst: dict[int, float] = {}
    for length in (1_000, 10_000, 100_000):
        result = engine.preprocess(vpt, _bench_doc(length, 40))
        enum = Enumerator(result.arena, result.root, instrument=True)
        taken = 0
        for _ in enum:
            taken += 1
            if taken >= 10_000:
                break
        assert taken == 10_000
        worst[length] = max(gap / max(1, out_len) for gap, out_len in enum.gaps)
    spread = max(worst.values()) / min(worst.values())
    assert spread < 2.0, f"delay constant varies {spread:.2f}x across lengths"
    per_len = ", ".join(f"10^{len(str(n)) - 1}: {r:.1f}" for n, r in worst.items())
    # second axis: arena history, through the union-of-unions gadget
    worst_uu: dict[int, float] = {}
    for n in (16, 256, 2048):
        arena, root = union_of_unions(n)
        enum = Enumerator(arena, root, instrument=True)
        assert sum(1 for _ in enum) == 2 * n
        worst_uu[n] = max(gap / max(1, out_len) for gap, out_len in enum.gaps)
    spread_uu = max(worst_uu.values()) / min(worst_uu.values())
    assert spread_uu < 2.0, f"delay constant varies {spread_uu:.2f}x across arena histories"
    per_n = ", ".join(f"n={n}: {r:.1f}" for n, r in worst_uu.items())
    return (
        f"max steps per emitted symbol {{{per_len}}}, spread {spread:.2f}x; "
        f"union-of-unions {{{per_n}}}, spread {spread_uu:.2f}x"
    )


@criterion(4, "one pass and update time")
def test_criterion_4_one_pass_update_time():
    rng = random.Random(404)
    for _ in range(100):
        vpt = random_det_vpt(rng)
        word = random_well_nested(rng, DET_ALPH, rng.randint(0, 12))
        records = SymbolRecords()
        pulled = PullCounter(word)
        result = engine.preprocess(engine.resolve_mode(vpt, "check"), pulled, records)
        list(Enumerator(result.arena, result.root))
        assert pulled.pulls == len(word) + 1
        assert result.stats.pulls == len(word) + 1
        assert len(records) == len(word)
        size = len(vpt.opens) + len(vpt.closes) + len(vpt.neutrals)
        bound = len(vpt.states) ** 2 * size
        for sym in records:
            assert sym.visits <= bound
            assert sym.ecs_calls <= 4 * bound

    vpt = _bench_vpt()
    lengths = list(range(1_000, 10_001, 1_000))
    steps = []
    for n in lengths:
        pulled = PullCounter(_bench_doc(n, 40))
        result = engine.preprocess(vpt, pulled)
        assert pulled.pulls == n + 1
        assert result.stats.pulls == n + 1
        t = result.stats.totals()
        steps.append(t.visits + t.scans + t.ecs_calls)
    slope, intercept = statistics.linear_regression(lengths, steps)
    residual = max(abs(slope * n + intercept - s) / s for n, s in zip(lengths, steps))
    assert residual < 0.05, f"linear fit residual {residual:.2%}"
    return (
        "pulls == |w|+1 on 100 instances and 10 bench lengths; per-symbol "
        f"visits within |Q|^2|Δ|; fit residual {residual:.2%}"
    )


@criterion(5, "ECS contracts")
def test_criterion_5_ecs_contracts():
    suite = EcsOpSuite(random.Random(505))
    counts = suite.run(100_000)
    for kind in ("add", "union", "prod"):
        assert counts[kind] > 5_000, f"op mix too thin: {counts}"
    return (
        f"100000 ops ({counts['add']} add, {counts['union']} union, "
        f"{counts['prod']} prod), zero violations"
    )


@criterion(6, "determinization equivalence")
def test_criterion_6_determinization():
    words = well_nested_words(PAIR_ALPH, 8)
    assert len(words) == 539
    rng = random.Random(606)
    for _ in range(100):
        vpa = random_vpa(rng)
        det = io_determinize(vpa)
        for word in words:
            assert accepts(vpa, word) == accepts(det, word)
    for _ in range(100):
        vpt = random_nondet_vpt(rng, n_states=3, n_trans=8)
        det = io_determinize(vpt)
        for word in words:
            assert oracle_enumerate(vpt, word) == oracle_enumerate(det, word)
    return "100 acceptors + 100 transducers, all 539 words up to length 8, exact"


@criterion(7, "spanner end to end")
def test_criterion_7_spanner():
    rng = random.Random(707)
    grammars = [random_functional_vpeg(rng, i % 2) for i in range(50)]
    grammars += [random_vpeg(rng, 1 + i % 2) for i in range(50)]
    docs_checked = 0
    mappings_seen = 0
    for vpeg in grammars:
        ops: list[int] = []
        to_evpa(vpeg, ops=ops)
        assert ops[0] <= (3 + len(vpeg.nonterminals)) * len(vpeg.productions)
        docs = []
        for _ in range(4):
            doc = random_doc_for_vpeg(rng, vpeg, 10)
            if doc is not None:
                docs.append(doc)
        for _ in range(3):
            docs.append(random_well_nested(rng, vpeg.alphabet, rng.randint(0, 10)))
        for doc in docs:
            got = list(evaluate_spanner(vpeg, doc))
            got_set = frozenset(
                tuple((x, (s.start, s.end)) for x, s in m.spans) for m in got
            )
            assert len(got) == len(got_set), "duplicate mapping"
            assert got_set == grammar_mappings(vpeg, doc)
            for m in got:
                for _, s in m.spans:
                    assert 1 <= s.start <= s.end <= len(doc) + 1
            docs_checked += 1
            mappings_seen += len(got)
    return (
        f"100 grammars (50 with |V|<=4, 50 with |X|<=2), {docs_checked} documents, "
        f"{mappings_seen} mappings, compilation ops within (3+|V|)·|P|"
    )


@criterion(8, "neutral-step equivalence")
def test_criterion_8_neutral_expansion():
    rng = random.Random(808)
    for _ in range(200):
        vpt = random_det_vpt(rng)
        word = random_well_nested(rng, DET_ALPH, rng.randint(0, 10))
        direct = frozenset(engine.evaluate(vpt, list(word), mode="check"))
        expanded_vpt = expand_neutrals(vpt)
        expanded_doc, posmap = expand_document(word)
        back = {v: k for k, v in posmap.items()}
        via_expansion = frozenset(
            contract_word(w, back)
            for w in engine.evaluate(expanded_vpt, expanded_doc, mode="check")
        )
        assert direct == via_expansion
    return "200 instances, direct neutral steps == bracket-expansion reduction"
