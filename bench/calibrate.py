"""Fixed pure-Python work that measures how fast this machine runs right now.

    python3 bench/calibrate.py     prints the seconds its work took

On a shared machine the speed of a core drifts by tens of percent over
minutes, so two medians of the same program taken minutes apart disagree
by more than any useful bound.  run.py runs this next to every workload
run and scales its times by the reference time below over the median
calibration time of the same run.  The work mimics memload's own (split
and convert lines, build frozen records, tokenize brackets with a regular
expression, nest tuples, count) but never imports it, so no change to the
program can move the calibration.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass

# Median calibration seconds on the machine the bounds were set on: a
# 2-vCPU x86-64 VM, Python 3.11.  Scaled times read as seconds there.
REFERENCE_S = 0.16

_TOKEN = re.compile(r"[()]|[^()\s]+")


@dataclass(frozen=True)
class _Unit:
    index: int
    surface: str
    head: int


def work() -> float:
    lines = "\n".join(f"{i % 40 + 1}\tw{i}\t{i * 7 % 41}" for i in range(60_000))
    bracketed = "(S (NP-SBJ (DT the) (N boy)) (VP (V ran) (PP (P to) (NP (N school)))) (. .))\n" * 2_000
    start = time.perf_counter()
    units = []
    for line in lines.splitlines():
        index, surface, head = line.split("\t")
        units.append(_Unit(int(index), surface, int(head)))
    heads = Counter(unit.head for unit in units)
    stack: list[list] = [[]]
    for token in _TOKEN.findall(bracketed):
        if token == "(":
            stack.append([])
        elif token == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            stack[-1].append(token)
    depths = Counter(len(tree) for tree in stack[0])
    elapsed = time.perf_counter() - start
    if len(heads) != 41 or sum(depths.values()) != 2_000:
        raise RuntimeError("calibration work went wrong")
    return elapsed


if __name__ == "__main__":
    print(work())
