"""Shared exception types.

Every user-facing failure falls into one of four buckets: the input is
outside an operation's documented domain, the input is too large for the
desk-scale implementation, the requested combination is not supported,
or a computed answer failed the check that certifies it.  The CLI maps
these onto distinct exit codes.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Input violates a documented precondition (bad weights, wrong space, ...)."""


class CapacityError(RuntimeError):
    """Input exceeds a documented size limit for the dense algorithms."""


class UnsupportedError(RuntimeError):
    """Operation is not defined for this combination of arguments."""


class CertificateError(RuntimeError):
    """A computed answer failed its own certificate check, so no verdict is given."""
