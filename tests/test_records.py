"""The library's records: equality, hashing, repr and frozenness.

Each case builds two equal records of one class, fresh each time, and
one that differs in a field; the reprs are the text these records have
always printed, ``Name(field=value, ...)`` unless the class says
otherwise.
"""

import pytest

from vptenum.engine import EngineState, EngineStats, PreprocessResult, SymbolStats
from vptenum.nested import Span, StructuredAlphabet, Token, TokenKind
from vptenum.spanner import ChainProduction, EpsProduction, NestProduction, Vpeg
from vptenum.vpt import Vpt


def alphabet(neutral="c"):
    return StructuredAlphabet(opens={"a"}, closes={"a"}, neutrals={neutral})


def machine(final="q"):
    return Vpt(
        states=frozenset({"q", final}),
        alphabet=alphabet(),
        stack_symbols=frozenset({"X"}),
        output_symbols=frozenset({"o"}),
        opens=frozenset({("q", "a", "o", "q", "X")}),
        closes=frozenset({("q", "a", None, "X", "q")}),
        neutrals=frozenset({("q", "c", "o", "q")}),
        initial=frozenset({"q"}),
        final=frozenset({final}),
    )


ALPHABET_REPR = "StructuredAlphabet(opens=frozenset({'a'}), closes=frozenset({'a'}), neutrals=frozenset({'c'}))"
SYMBOL_STATS_REPR = "SymbolStats(visits=0, scans=0, ecs_calls=0, nodes_added=0)"

# (make, make_other, repr of make()) per class; make_other differs in one field
FROZEN = {
    "StructuredAlphabet": (alphabet, lambda: alphabet("d"), ALPHABET_REPR),
    "Token": (lambda: Token(TokenKind.OPEN, "a"), lambda: Token(TokenKind.CLOSE, "a"), "Token(open:a)"),
    "Span": (lambda: Span(1, 3), lambda: Span(1, 2), "<1,3>"),
    "Vpt": (
        machine,
        lambda: machine("r"),
        f"Vpt(states=frozenset({{'q'}}), alphabet={ALPHABET_REPR}, stack_symbols=frozenset({{'X'}}), "
        "output_symbols=frozenset({'o'}), opens=frozenset({('q', 'a', 'o', 'q', 'X')}), "
        "closes=frozenset({('q', 'a', None, 'X', 'q')}), neutrals=frozenset({('q', 'c', 'o', 'q')}), "
        "initial=frozenset({'q'}), final=frozenset({'q'}))",
    ),
    "EpsProduction": (lambda: EpsProduction("S"), lambda: EpsProduction("T"), "EpsProduction(head='S')"),
    "ChainProduction": (
        lambda: ChainProduction("S", "c", False, "T"),
        lambda: ChainProduction("S", "c", True, "T"),
        "ChainProduction(head='S', sym='c', is_marker=False, tail='T')",
    ),
    "NestProduction": (
        lambda: NestProduction("S", "a", "A", "T"),
        lambda: NestProduction("S", "a", "A", "S"),
        "NestProduction(head='S', letter='a', inner='A', tail='T')",
    ),
    "Vpeg": (
        lambda: Vpeg(frozenset({"x"}), frozenset({"S"}), alphabet(), "S", (EpsProduction("S"),)),
        lambda: Vpeg(frozenset(), frozenset({"S"}), alphabet(), "S", (EpsProduction("S"),)),
        f"Vpeg(variables=frozenset({{'x'}}), nonterminals=frozenset({{'S'}}), alphabet={ALPHABET_REPR}, "
        "start='S', productions=(EpsProduction(head='S'),))",
    ),
}

MUTABLE = {
    "SymbolStats": (SymbolStats, lambda: SymbolStats(scans=1), SYMBOL_STATS_REPR),
    "EngineStats": (
        lambda: EngineStats(pulls=2),
        lambda: EngineStats(pulls=2, finalize=SymbolStats(1)),
        "EngineStats(visits=0, scans=0, ecs_calls=0, nodes_added=0, pulls=2, plans=0, "
        f"finalize={SYMBOL_STATS_REPR})",
    ),
    "EngineState": (
        lambda: EngineState("arena", "shapes", 0, [1, 2], [], 1),
        lambda: EngineState("arena", "shapes", 0, [1, 2], [(0, [1], 1)], 1),
        "EngineState(arena='arena', shapes='shapes', shape=0, handles=[1, 2], stack=[], epsilon=1)",
    ),
    "PreprocessResult": (
        lambda: PreprocessResult(arena="arena", root=3, stats=SymbolStats(), length=2),
        lambda: PreprocessResult(arena="arena", root=3, stats=SymbolStats(), length=1),
        f"PreprocessResult(arena='arena', root=3, stats={SYMBOL_STATS_REPR}, length=2)",
    ),
}


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_equal_by_fields_within_the_class(name):
    make, make_other, expected_repr = {**FROZEN, **MUTABLE}[name]
    record = make()
    assert type(record).__name__ == name
    assert record == make() and not record != make()
    assert record != make_other() and not record == make_other()
    assert record != tuple(getattr(record, field) for field in record._fields)
    assert repr(record) == expected_repr


def test_equal_counters_of_two_classes_differ():
    assert SymbolStats(1, 2, 3, 4) != EngineStats(1, 2, 3, 4)
    assert EngineStats(1, 2, 3, 4) != SymbolStats(1, 2, 3, 4)
    assert EngineStats(1, 2, 3, 4).totals() == SymbolStats(1, 2, 3, 4)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_and_refuse_changes(name):
    make, make_other, _ = FROZEN[name]
    record = make()
    assert hash(record) == hash(make())
    assert len({record, make(), make_other()}) == 2
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(make_other(), field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == make()


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_change_and_do_not_hash(name):
    make, make_other, _ = MUTABLE[name]
    record, other = make(), make_other()
    with pytest.raises(TypeError):
        hash(record)
    for field in record._fields:
        setattr(record, field, getattr(other, field))
    assert record == other


def test_vpt_indexes_stay_out_of_equality_hash_and_repr():
    vpt, fresh = machine(), machine()
    before = hash(vpt)
    assert vpt.open_index["a"]["q"] == [("o", "q", "X")]
    assert vpt.neutral_index["c"]["q"] == [("o", "q")]
    assert vpt == fresh and hash(vpt) == before == hash(fresh)
    assert repr(vpt) == repr(fresh)


def test_alphabet_stores_frozensets_and_its_longest_word():
    alph = StructuredAlphabet(opens=["a"], closes=("a",), neutrals={"ccc"})
    assert alph == alphabet("ccc") and hash(alph) == hash(alphabet("ccc"))
    assert all(type(part) is frozenset for part in (alph.opens, alph.closes, alph.neutrals))
    assert alph.longest_word == 4  # "ccc" and nothing longer than a bracket plus a name
    assert alph == alphabet("ccc") and repr(alph) == repr(alphabet("ccc"))
