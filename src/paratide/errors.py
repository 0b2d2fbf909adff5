"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-level failures."""


class GridMismatchError(EngineError):
    """Two states with incompatible grids were combined."""


class NonFiniteError(EngineError):
    """An operation received a state that violates the finiteness invariant."""


class BlowUpError(EngineError):
    """Integration or propagation diverged.

    Carries the offending report plus, when known, the step/slice/iteration
    context so drivers can log where a run fell over.
    """

    def __init__(self, message, report=None, *, step=None, slice_index=None,
                 iteration=None, log_path=None):
        super().__init__(message)
        self.report = report
        self.step = step
        self.slice_index = slice_index
        self.iteration = iteration
        self.log_path = log_path


class StepMismatchError(EngineError):
    """Requested time window is incompatible with the step size."""


class CheckpointError(EngineError):
    """Base class for checkpoint I/O failures."""


class CorruptCheckpointError(CheckpointError):
    """Checkpoint failed its integrity checks (magic, length, checksum)."""


class VersionMismatchError(CheckpointError):
    """Checkpoint was written by an unsupported format version."""


class SpawnFailureError(EngineError):
    """An external command could not be launched at all."""


class ExternalTimeoutError(EngineError):
    """An external run exceeded its wall-clock limit and was killed."""


class ZeroReferenceError(EngineError):
    """Relative error norm is undefined because the reference norm is zero."""


class ParseError(EngineError):
    """Config file is syntactically malformed; names the line."""


class ValidationError(EngineError):
    """Config file parsed but violates a constraint; names the key."""


class IOFailureError(EngineError):
    """Report or artifact emission failed."""
