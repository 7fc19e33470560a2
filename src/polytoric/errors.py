"""Exception types shared across the package."""


class PolytoricError(Exception):
    """Base class for all package-specific errors.  ``exit_code`` is the
    CLI's exit status when one ends a command."""
    exit_code = 1


class ConfigInvalid(PolytoricError):
    """The rectangle-difference configuration violates a < a' < b' < b."""
    exit_code = 2


class EmptyCollection(PolytoricError):
    """An operation that needs at least one cell received none."""


class DegenerateInterval(PolytoricError):
    """An interval whose corners do not satisfy the required ordering."""


class VertexOutsidePolyomino(PolytoricError):
    """A lattice point outside the vertex set was used where a vertex is required."""
    exit_code = 2


class NotInKernel(PolytoricError):
    """A binomial whose two monomials have different images under the monomial map."""


class ResourceBudgetExceeded(PolytoricError):
    """A Groebner computation exceeded its S-pair reduction budget or the
    engine's degree cap."""
    exit_code = 3


class ParseError(PolytoricError):
    """Malformed textual input (instance files, monomials, binomials)."""
    exit_code = 2
