#!/usr/bin/env python3
"""Count the autodiff graph nodes of one training step, per op.

Runs one pretrain step and one fine-tune step at the sizes of the perfbench
workloads (those of acceptance criterion 6: batch 4, ``perfbench/workloads.py``
model and audio settings) and walks ``_parents`` from the loss that each
step calls ``backward`` on. Prints one row per op with its node count in
each step, then the totals. Leaves (parameters and inputs) are not nodes.

A step is bound by per-node overhead at these sizes, so the node count is a
measure of its work that does not depend on the machine.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/graph_census.py
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from pptts import tensor  # noqa: E402

# One step per operation; a 16-utterance corpus is enough for a batch of 4.
SCALE = workloads.Scale(pretrain_utts=16, steps_per_pretrain_op=1, steps_per_finetune_op=1)


def graph_ops(loss: tensor.Tensor) -> Counter:
    """Node count per op of the graph that ends in ``loss``."""
    counts: Counter = Counter()
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._op:
            counts[node._op] += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return counts


def step_census(name: str, root: Path) -> Counter:
    """Graph of the one ``backward`` call of one step of a workload."""
    census: list[Counter] = []
    backward = tensor.Tensor.backward

    def counting(self, grad=None):
        census.append(graph_ops(self))
        return backward(self, grad)

    work = workloads.WORKLOADS[name](seed=1, scale=SCALE, workdir=root / name)
    tensor.Tensor.backward = counting
    try:
        result = work.run_op()
    finally:
        tensor.Tensor.backward = backward
    if result.errors:
        raise SystemExit(f"{name}: {result.errors[0]}")
    if len(census) != 1:
        raise SystemExit(f"{name}: {len(census)} backward calls in one step, expected 1")
    return census[0]


def main() -> None:
    names = ("pretrain", "finetune")
    with tempfile.TemporaryDirectory() as tmp:
        steps = [step_census(name, Path(tmp)) for name in names]
    ops = sorted(set().union(*steps))
    header = f"{'op':<18}" + "".join(f"{name:>10}" for name in names)
    print(header)
    print("-" * len(header))
    for op in ops:
        print(f"{op:<18}" + "".join(f"{step[op]:>10}" for step in steps))
    print(f"{'total':<18}" + "".join(f"{sum(step.values()):>10}" for step in steps))


if __name__ == "__main__":
    main()
