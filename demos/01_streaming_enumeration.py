"""Evaluate a transducer over a document in one streaming pass, then
enumerate every output word.

The machine in data/choice.vpt reads one bracketed element and may print
u or v for each b it sees.  Preprocessing consumes the document exactly
once (one pull per symbol plus one to finish) and builds a persistent
compact set of all output words; enumeration then walks that set without
touching the document again.
"""

from pathlib import Path

from vptenum import engine
from vptenum.cli import render_word
from vptenum.enumtree import Enumerator
from vptenum.formats import parse_vpt
from vptenum.nested import tokenize

DATA = Path(__file__).parent / "data"


def main() -> None:
    vpt = parse_vpt((DATA / "choice.vpt").read_text(encoding="utf-8"))
    doc = "<r b c b r>"
    tokens = list(tokenize(doc, vpt.alphabet))

    print(f"document: {doc}")
    print(f"symbols:  {len(tokens)}")
    print()

    result = engine.preprocess(engine.resolve_mode(vpt, "check"), tokens)
    words = list(Enumerator(result.arena, result.root))

    print(f"{len(words)} output words (symbol@position):")
    for word in sorted(words, key=lambda w: (len(w), w)):
        print(f"  {render_word(word)}")
    print()

    print(f"pulls over the document: {result.stats.pulls} (= |w| + 1 = {len(tokens) + 1})")
    totals = result.stats.totals()
    print(
        f"work per run: {totals.visits} pair visits, {totals.scans} frame scans, "
        f"{totals.ecs_calls} set-arena calls, {totals.nodes_added} nodes added"
    )


if __name__ == "__main__":
    main()
