"""Exception types shared across the package.

Every user-facing input problem raises a subclass of :class:`InputError`;
the class tells the failure modes apart, and the CLI turns any of them
into exit code 2.
"""


class InputError(ValueError):
    """User-supplied data or options violate a precondition."""


class MissingFileError(InputError):
    pass


class NonNumericCellError(InputError):
    pass


class InsufficientRowsError(InputError):
    pass


class NoCovariateColumnsError(InputError):
    pass


class NonFiniteInputError(InputError):
    pass


class DimensionMismatchError(InputError):
    pass


class BasisSizeError(InputError):
    pass


class ConstantResponseError(InputError):
    pass


class FactorizationError(InputError):
    """The shifted Gram matrix could not be inverted.

    A Gram matrix that overflows is rejected before this point, but a
    finite one can still be numerically singular when the covariates are
    so large that the ridge shift vanishes beside its entries (unscaled
    columns near 1e20, say). Rescaling x or lowering the degree avoids it.
    """
