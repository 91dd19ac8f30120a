"""Show that the gap between consecutive outputs does not grow with the
document or with the history of the arena.

First table: we preprocess documents of length 1000, 10000, and 100000
on the benchmark machine, enumerate the first 10000 output words of
each, and record the number of enumeration steps spent per emitted
output symbol. The worst-case steps-per-symbol figure stays flat as the
document grows a hundredfold: delay depends on the output being printed,
not on the input read so far.

Second table: we build an arena by repeating
acc = union(acc, union(add(x_i), add(y_i))) n times, which stacks the
arena's union-of-unions gadget n deep, and enumerate every word. The
worst steps per symbol stays flat as n grows 128-fold: delay does not
depend on how many unions the arena went through either.
"""

from vptenum import engine
from vptenum.cli import _bench_doc, _bench_vpt
from vptenum.ecs import EMPTY, EcsArena
from vptenum.enumtree import Enumerator

TAKE = 10_000


def worst_steps_per_symbol(enum: Enumerator) -> float:
    return max(gap / max(1, out_len) for gap, out_len in enum.gaps)


def main() -> None:
    vpt = _bench_vpt()
    print(f"{'doc length':>10}  {'outputs':>8}  {'worst steps/symbol':>18}")
    for length in (1_000, 10_000, 100_000):
        result = engine.preprocess(vpt, _bench_doc(length, 40))
        enum = Enumerator(result.arena, result.root, instrument=True)
        taken = 0
        for _ in enum:
            taken += 1
            if taken >= TAKE:
                break
        print(f"{length:>10}  {taken:>8}  {worst_steps_per_symbol(enum):>18.2f}")

    print()
    print(f"{'unions n':>10}  {'outputs':>8}  {'worst steps/symbol':>18}")
    for n in (16, 256, 2048):
        arena = EcsArena()
        acc = EMPTY
        for i in range(n):
            acc = arena.union(acc, arena.union(arena.add(("x", i)), arena.add(("y", i))))
        enum = Enumerator(arena, acc, instrument=True)
        taken = sum(1 for _ in enum)
        print(f"{n:>10}  {taken:>8}  {worst_steps_per_symbol(enum):>18.2f}")


if __name__ == "__main__":
    main()
