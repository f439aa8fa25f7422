"""Exception hierarchy shared by all uws modules: one class per exit code.

The command-line front end maps each class onto its exit code without
inspecting messages: a bad argument or a damaged file is exit 2, a
numerical failure exit 3.  The message names the rest.
"""

from __future__ import annotations


class UwsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(UwsError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(UwsError):
    """A numerical routine failed, or its input leaves it nothing to
    compute: LAPACK did not converge, a spectrum or stack has no variance,
    normal equations are singular, or a checked bound does not hold.

    The refusal of singular normal equations carries ``suggested_ridge``,
    a ridge term that makes them solvable; every other leaves it None.
    """

    def __init__(self, message: str, *, suggested_ridge: float | None = None):
        super().__init__(message)
        self.suggested_ridge = suggested_ridge


class ContainerError(UwsError):
    """A weight container cannot be read or is not what its reader reads.

    Every container error names the byte offset at which the problem was
    detected, so corrupt files can be diagnosed from the message alone.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = int(offset)
