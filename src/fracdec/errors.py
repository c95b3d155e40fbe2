"""Exceptions shared across the package."""


class DecodeFailure(Exception):
    """No codeword within the decoding radius could be identified."""


class BudgetExceeded(RuntimeError):
    """A brute-force enumeration would exceed the configured budget."""
