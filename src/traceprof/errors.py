"""Exception types shared across the profiler."""

from __future__ import annotations


class TraceProfError(Exception):
    """Base class for every error this package raises on purpose."""


class TraceValidationError(TraceProfError):
    """A run failed validation. Carries *every* issue found, not just the first."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        parts = [i.message for i in self.issues[:5]]
        if len(self.issues) > 5:
            parts.append(f"(+{len(self.issues) - 5} more)")
        super().__init__("; ".join(parts) if parts else "validation failed")


class ManifestError(TraceProfError):
    """A run or sweep manifest or a synth spec is missing, unreadable, or structurally wrong."""


class NoSamplesInWindow(TraceProfError):
    """The requested analysis window contains no telemetry samples."""


class NoCompleteSteps(TraceProfError):
    """Fewer complete non-warmup step windows than the metric requires."""


class OverlappingSteps(TraceProfError, ValueError):
    """Labelled ops put two step windows over the same time, or give step ids that run
    backwards in time."""


class NoSteps(TraceProfError):
    """No explicit step labels and no periodic structure confident enough to tile."""


class SignalTooShort(TraceProfError):
    """The signal has too few samples for the requested analysis."""


class InvalidSpec(TraceProfError):
    """Synthetic-trace spec violates its validity rules."""


class DuplicateBatchSize(TraceProfError, ValueError):
    """Two runs of a sweep declare the same batch size."""


class MissingEnergy(TraceProfError):
    """A sweep point lacks per-step energy values."""
