"""Assigns telemetry samples to operations and step windows by timestamp.

Intervals are half-open [start, end): a sample sitting exactly on an op
boundary belongs to the later op only, which prevents double counting at
exact boundaries. A sample covered by several concurrent ops is attributed
to every one of them (full multi-attribution); no proportional splitting
and no watt apportionment is attempted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .model import Device, Run, StepWindow


@dataclass(frozen=True)
class Attribution:
    """Ops and step window covering one sample's timestamp."""

    sample_index: int
    op_indices: tuple[int, ...]
    step_id: int | None


def attribute_samples(run: Run, steps: Sequence[StepWindow] = ()) -> tuple[Attribution, ...]:
    """Attribute every sample to all ops whose [start, end) contains its t.

    Op indices refer to positions in ``run.ops`` (validated order). Samples
    covered by no op get an empty index tuple; ``step_id`` is set when the
    sample falls inside one of ``steps``.
    """
    ops = run.ops
    n = len(ops)
    active: set[int] = set()
    ends: list[tuple[int, int]] = []  # (end, op index) min-heap
    next_op = 0
    win_i = 0
    out: list[Attribution] = []
    for si, sample in enumerate(run.samples):
        t = sample.t
        while next_op < n and ops[next_op].start <= t:
            heapq.heappush(ends, (ops[next_op].end, next_op))
            active.add(next_op)
            next_op += 1
        while ends and ends[0][0] <= t:
            _, idx = heapq.heappop(ends)
            active.discard(idx)
        step_id = None
        while win_i < len(steps) and steps[win_i].end_us <= t:
            win_i += 1
        if win_i < len(steps) and steps[win_i].start_us <= t < steps[win_i].end_us:
            step_id = steps[win_i].step_id
        out.append(Attribution(si, tuple(sorted(active)), step_id))
    return tuple(out)


def busy_time(run: Run, device: Device) -> int:
    """Total length in microseconds of the union of op intervals on a device.

    Overlapping intervals are counted once.
    """
    total = 0
    cur_start: int | None = None
    cur_end = 0
    for op in run.ops:  # sorted by start
        if op.device is not device:
            continue
        if cur_start is None:
            cur_start, cur_end = op.start, op.end
        elif op.start <= cur_end:
            cur_end = max(cur_end, op.end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = op.start, op.end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def concurrent_ops_exist(run: Run) -> bool:
    """True when any two op intervals overlap (on any device)."""
    max_end = None
    for op in run.ops:
        if max_end is not None and op.start < max_end:
            return True
        max_end = op.end if max_end is None else max(max_end, op.end)
    return False
