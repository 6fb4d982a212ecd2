"""Exception hierarchy for the nestpoly package."""


class NestpolyError(Exception):
    """Base class for all nestpoly errors."""


class InputError(NestpolyError):
    """Invalid input data (bad polygon, bad document)."""


class TooFewVertices(InputError):
    pass


class DuplicateConsecutiveVertex(InputError):
    pass


class DegenerateAllCollinear(InputError):
    pass


class ParseError(InputError):
    """Malformed document text (not valid JSON)."""


class SemanticError(InputError):
    """Well-formed JSON that violates the instance schema."""


class OutOfDomain(NestpolyError):
    """A query position lies outside the domain of the queried object."""


class OverlapDetected(NestpolyError):
    """Two polygons were found to overlap in their interiors."""


class CoincidentSegments(OverlapDetected):
    """Segments of two polygons tie completely in the order at abscissa x."""

    def __init__(self, id_a: str, id_b: str, x):
        super().__init__(
            f"segments of polygons {id_a!r} and {id_b!r} coincide at x={x}"
        )
        self.polygon_ids = (id_a, id_b)
        self.x = x


class ParityInconsistency(NestpolyError):
    """Parities cannot be read from the boundary's orientation.

    The boundary passes its topmost vertex more than once, or does not turn
    there with the sign of its area: the polygon is not simple.
    """


class ContainmentCycle(NestpolyError):
    """Mutual containment reported by the brute-force reference."""


class DegeneratePolygon(NestpolyError):
    """No interior point could be produced for a polygon."""


class GenerationFailed(NestpolyError):
    """The instance generator could not satisfy its constraints."""
