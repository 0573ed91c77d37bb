"""Exception hierarchy shared by all modules."""


class CoringError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(CoringError):
    """Operands have incompatible shapes, or live over different fields,
    algebras or corings."""


class SizeLimit(CoringError):
    """A computation would exceed the configured size guard."""


class NonFiniteField(CoringError):
    """An exhaustive enumeration was requested over the rationals."""


class SchemaError(CoringError):
    """A workspace file violates the JSON schema.

    Carries the JSON path of the offending element.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class UnknownReference(CoringError):
    """A workspace object refers to a name that does not exist."""

    def __init__(self, path, name):
        super().__init__(f"{path}: unknown object {name!r}")
        self.path = path
        self.name = name


class AxiomViolation(CoringError):
    """A structure failed one of its defining axioms: the one exception
    for a mathematical rejection.

    ``kind`` names the violated axiom, ``witness`` the first basis tuple
    (in canonical order) at which it fails.
    """

    def __init__(self, kind, witness):
        super().__init__(f"{kind} at {witness}")
        self.kind = kind
        self.witness = witness
