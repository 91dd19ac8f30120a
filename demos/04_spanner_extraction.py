"""Extract spans from a document with a capture grammar.

The grammar in data/element.vpeg picks one bracketed element and marks
its body as the span x; every element yields one mapping.  Under the
hood the grammar is compiled to an acceptor (a transducer without
outputs) that reads capture markers as letters, the markers are fused
onto ordinary transitions as outputs, and the streaming engine
enumerates the annotated runs; span endpoints are then decoded from the
marker positions.
"""

from pathlib import Path

from vptenum.nested import tokenize
from vptenum.spanner import compile_vpeg, evaluate_spanner, parse_vpeg

DATA = Path(__file__).parent / "data"


def main() -> None:
    vpeg = parse_vpeg((DATA / "element.vpeg").read_text(encoding="utf-8"))
    print(f"variables: {sorted(vpeg.variables)}")
    print(f"productions: {len(vpeg.productions)}")
    print()

    vpt = compile_vpeg(vpeg)
    print(
        f"compiled transducer: {len(vpt.states)} states, "
        f"{len(vpt.opens) + len(vpt.closes) + len(vpt.neutrals)} transitions"
    )
    print()

    for doc in ("<a c c a> <a c a>", "<a a> <a a>", "c"):
        tokens = list(tokenize(doc, vpeg.alphabet))
        mappings = evaluate_spanner(vpeg, tokens)
        shown = [m.render() or "(empty mapping)" for m in mappings]
        print(f"{doc!r:24} -> {shown if shown else 'no match'}")


if __name__ == "__main__":
    main()
