"""Assigns telemetry samples to operations and step windows by timestamp.

Intervals are half-open [start, end): a sample sitting exactly on an op
boundary belongs to the later op only, which prevents double counting at
exact boundaries. A sample covered by several concurrent ops is attributed
to every one of them (full multi-attribution); no proportional splitting
and no watt apportionment is attempted.

Every function reads the run's columns (``run.ops.start``, ``end`` and
``device``, sorted by start, and ``run.samples.t``), never one object per
op or sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DEVICES, Device, Run, StepWindow


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
    times = run.samples.t
    # Op i covers the counts[i] samples from first[i] on (samples are sorted by t).
    first = np.searchsorted(times, run.ops.start)
    counts = np.searchsorted(times, run.ops.end) - first
    # One (sample, op) pair per attribution; a stable sort by sample keeps
    # each sample's ops in index order.
    op_of_pair = np.repeat(np.arange(len(counts)), counts)
    offset = np.repeat(first - (np.cumsum(counts) - counts), counts)
    sample_of_pair = np.arange(counts.sum()) + offset
    order = np.argsort(sample_of_pair, kind="stable")
    op_ids = op_of_pair[order].tolist()
    bounds = np.searchsorted(sample_of_pair[order], np.arange(len(times) + 1)).tolist()
    win_i = 0
    out: list[Attribution] = []
    for si, t in enumerate(times.tolist()):
        step_id = None
        while win_i < len(steps) and steps[win_i].end_us <= t:
            win_i += 1
        if win_i < len(steps) and steps[win_i].start_us <= t < steps[win_i].end_us:
            step_id = steps[win_i].step_id
        out.append(Attribution(si, tuple(op_ids[bounds[si]:bounds[si + 1]]), step_id))
    return tuple(out)


def busy_time(run: Run, device: Device) -> int:
    """Total length in microseconds of the union of op intervals on a device.

    Overlapping intervals are counted once.
    """
    on_device = run.ops.device == DEVICES.index(device)
    starts, ends = run.ops.start[on_device], run.ops.end[on_device]  # sorted by start
    if not starts.size:
        return 0
    reach = np.maximum.accumulate(ends)
    # An interval that starts after everything before it has ended opens a new run.
    heads = np.flatnonzero(np.r_[True, starts[1:] > reach[:-1]])
    tails = np.r_[heads[1:] - 1, starts.size - 1]
    return int((reach[tails] - starts[heads]).sum())


def concurrent_ops_exist(run: Run) -> bool:
    """True when any two op intervals overlap (on any device)."""
    ops = run.ops  # sorted by start
    return bool((ops.start[1:] < np.maximum.accumulate(ops.end)[:-1]).any())
