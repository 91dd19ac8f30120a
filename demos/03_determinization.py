"""Turn a nondeterministic transducer into one the streaming engine can
check on the fly, and confirm both produce the same outputs.

Two transitions under the same (state, letter, output) key make a
machine unusable in the default safety mode: the engine cannot tell two
runs producing the same word apart, so it refuses rather than risk
duplicates.  Determinization over (letter, output) pairs repairs this
while preserving the set of outputs for every document.
"""

from vptenum import engine
from vptenum.engine import AmbiguityError
from vptenum.formats import parse_vpt, serialize_vpt
from vptenum.nested import tokenize
from vptenum.vpt import io_determinize, is_io_deterministic, oracle_enumerate

MACHINE = """\
states: q0 q1
initial: q0
final: q1
outputs: o
neutral c q0 -> q0 out o
neutral c q0 -> q1 out o
neutral c q1 -> q1 out o
"""


def main() -> None:
    vpt = parse_vpt(MACHINE)
    tokens = list(tokenize("c c", vpt.alphabet))

    print(f"deterministic in (letter, output)? {is_io_deterministic(vpt)}")
    try:
        list(engine.evaluate(vpt, tokens, mode="check"))
    except AmbiguityError as exc:
        print(f"engine refuses: {exc}")
    print()

    det = io_determinize(vpt)
    print("determinized machine:")
    print(serialize_vpt(det))
    print(f"deterministic in (letter, output)? {is_io_deterministic(det)}")
    print()

    # the alphabet is the one neutral c, so these are all its documents up to length 6
    words = [list(tokenize("c " * n, vpt.alphabet)) for n in range(7)]
    agree = all(oracle_enumerate(vpt, w) == oracle_enumerate(det, w) for w in words)
    print(f"same outputs on all {len(words)} documents up to length 6: {agree}")


if __name__ == "__main__":
    main()
