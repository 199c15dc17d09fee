"""Trace-correlation profiler for training telemetry.

Aligns periodic hardware-telemetry samples with fine-grained training-op
timelines and computes utilization, energy, throughput, idle-ratio and
peak-memory metrics, plus step-periodicity, batch-sweep and feasibility
analyses.

The package exports nothing: import from its modules (``traceprof.ingest``,
``traceprof.metrics``, ...). So ``import traceprof`` alone imports neither numpy
nor a submodule, and ``traceprof.cli`` can set numpy's thread defaults before
numpy loads.
"""
