"""Exception types shared across the toolbox."""

from __future__ import annotations


class LipkitError(Exception):
    """Base class for all toolbox errors."""


class InputError(LipkitError):
    """Malformed file, table, or argument, including a value that is no
    sample id wherever it is found (see _pairs.sample_ids)."""


class DomainError(LipkitError):
    """A field or transport was evaluated outside its domain."""


class PreconditionError(LipkitError):
    """An operation's precondition failed on the given sample data: its
    distances, values, constants or witnesses, not the ids naming them.

    Carries the offending witness (a pair of point ids, an entry index,
    or similar) so callers can report what broke, not just that it broke.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CoverError(LipkitError):
    """A family of sets fails to cover the samples, or is too marginal
    for the partition pipeline to materialize."""


class GridError(LipkitError):
    """No admissible grid level exists within the allowed refinement depth.

    Carries the sample id whose window defeated the grid, when one did.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
