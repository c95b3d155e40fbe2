"""Exceptions shared across the package."""


class DecodeFailure(Exception):
    """No codeword within the decoding radius could be identified."""


class InconsistentErasures(DecodeFailure):
    """Erasure-decoding verification found points off the interpolated polynomial."""


class BudgetExceeded(RuntimeError):
    """A brute-force enumeration would exceed the configured budget."""
