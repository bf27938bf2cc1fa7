"""Exception types shared across the library.

The CLI maps these onto its exit-code contract: bad input is 2, a broken
internal invariant is 3, a refused oversized computation is 4.
"""

import sys


class InputError(ValueError):
    """Malformed input or a violated call precondition."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed.  This signals a bug, never bad input."""


class BoundExceededError(RuntimeError):
    """A configured resource bound was exceeded."""


def digit_limit_error() -> BoundExceededError:
    """The refusal of a result past ``sys.get_int_max_str_digits()`` digits."""
    return BoundExceededError(f"a result has over {sys.get_int_max_str_digits()} digits")


def refuse_unprintable(value: int) -> None:
    """Raise :func:`digit_limit_error` if Python cannot write ``value`` >= 0 in decimal."""
    limit = sys.get_int_max_str_digits()
    # 10^L > 2^(3L), so a value of at most 3L bits skips the big power.
    if limit and value.bit_length() > 3 * limit and value >= 10**limit:
        raise digit_limit_error()
