"""Exception types shared across the package.

Every user-facing input problem raises a subclass of :class:`InputError`,
each carrying a stable ``code`` string so callers (and the CLI) can
distinguish failure modes without parsing messages.
"""


class InputError(ValueError):
    """User-supplied data or options violate a precondition."""

    code = "invalid-input"


class MissingFileError(InputError):
    code = "missing-file"


class NonNumericCellError(InputError):
    code = "non-numeric-cell"


class InsufficientRowsError(InputError):
    code = "insufficient-rows"


class NoCovariateColumnsError(InputError):
    code = "no-covariate-columns"


class NonFiniteInputError(InputError):
    code = "non-finite-input"


class DimensionMismatchError(InputError):
    code = "dimension-mismatch"


class BasisSizeError(InputError):
    code = "basis-size-cap"


class ConstantResponseError(InputError):
    code = "constant-response"


class FactorizationError(RuntimeError):
    """The shifted Gram matrix could not be inverted.

    A Gram matrix that overflows is rejected before this point, and the
    ridge shift makes a finite one positive definite, so this signals a
    corrupted design matrix.
    """
