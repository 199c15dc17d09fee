#!/usr/bin/env python3
"""Fixed reference CPU task, timed next to every CLI invocation.

On a shared host, CPU speed can drift by tens of percent over minutes. The
benchmark divides its invocations' and setup probes' total time by this
task's total time over the same loop iterations, which cancels most of that
drift. The task is pure
Python of the kind traceprof's hot paths run (list comprehensions, fsum,
bisect, dict builds), takes about half a second, and does not depend on
traceprof.

Usage: python3 perfbench/refload.py   (prints one checksum line)
"""

from bisect import bisect_left
from math import fsum

ROUNDS = 1200


def main() -> None:
    xs = [i * 0.5 for i in range(4000)]
    acc = 0.0
    for r in range(ROUNDS):
        ys = [x * 1.0001 + r for x in xs]
        acc += fsum(ys[i] * 2.0 for i in range(0, len(ys), 2))
        acc += bisect_left(ys, 100.0)
        acc += sum({i: y for i, y in enumerate(ys[:1000])}.values())
    print(repr(acc))


if __name__ == "__main__":
    main()
