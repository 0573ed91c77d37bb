"""Pass/fail results with first-witness diagnostics."""

from typing import Optional

from ._record import frozen
from .errors import AxiomViolation


@frozen
class Failure:
    """A violated axiom together with the first witness basis tuple."""

    kind: str
    witness: tuple = ()


@frozen
class Verdict:
    ok: bool
    failure: Optional[Failure] = None

    def __bool__(self):
        return self.ok

    @staticmethod
    def accept() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def reject(kind: str, witness: tuple = ()) -> "Verdict":
        return Verdict(False, Failure(kind, witness))

    def raise_if_failed(self):
        if not self.ok:
            raise AxiomViolation(self.failure.kind, self.failure.witness)
