"""The package's one exception type."""


class BILabError(Exception):
    """Invalid input: a parameter outside its domain, a vanishing
    denominator, a non-closing or non-unitary representation, or a
    malformed rational.  It is the one invalid-input channel; the message
    names the guard that fired, and the CLI prints it and exits 2."""
