"""Exception types shared across the package, and ``naming_group``, which
names the group in the errors raised while it is built or classified.

Exit-code mapping used by the CLI: InputError -> 2, ResourceLimitError -> 3.
InvariantError signals an internal inconsistency (a bug, never expected input)
and is allowed to propagate.
"""

from __future__ import annotations

from contextlib import contextmanager


class InputError(Exception):
    """Malformed user input: bad cycle notation, bad group file, bad parameters.

    ``position`` is a character offset (cycle text) or a line number (group
    files) when one is known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ResourceLimitError(Exception):
    """A configured resource bound was exceeded; the message names the bound."""

    def __init__(self, message: str, bound: int):
        super().__init__(f"{message} (bound: {bound})")
        self.raw_message = message
        self.bound = bound


class InvariantError(Exception):
    """An internal invariant failed; indicates a bug in this package."""


@contextmanager
def naming_group(name: str):
    """Re-raise a ResourceLimitError or InvariantError from the block as
    ``group NAME: message``, keeping a resource error's bound."""
    try:
        yield
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"group {name}: {exc.raw_message}", exc.bound) from exc
    except InvariantError as exc:
        raise InvariantError(f"group {name}: {exc}") from exc
