"""The package's one exception type.

Every user-facing input problem raises :class:`InputError`; its message
says what is wrong, and the CLI turns it into exit code 2.
"""


class InputError(ValueError):
    """User-supplied data or options violate a precondition."""
