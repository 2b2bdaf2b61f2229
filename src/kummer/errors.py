"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all contract violations raised by this package."""


class CapExceeded(EngineError):
    """Group closure grew past the enumeration cap."""


class DimensionMismatch(EngineError):
    """Vector-space dimension does not match the supplied action."""


class NotASublattice(EngineError):
    """Membership solving failed: the first lattice is not inside the second."""


class GroupMismatch(EngineError):
    """Two modules do not share the same acting group (or prime)."""


class MissingCharacter(EngineError):
    """A twisted-invariants computation needs a character and none was set."""


class DimTooLarge(EngineError):
    """Module dimension above the spin-up feasibility bound."""


class EvenDegree(EngineError):
    """Galois certification only supports odd-degree polynomials."""


class Inseparable(EngineError):
    """The polynomial has vanishing discriminant."""


class ZeroInput(EngineError):
    """Zero passed where a nonzero integer is required."""


class FactorBudgetExceeded(EngineError):
    """The squarefree-kernel factorisation ran out of budget."""


class InputMismatch(EngineError):
    """Certificates and discriminant classes do not line up."""


class ActionMismatch(EngineError):
    """The supplied group does not act on the lattice model as declared."""


class GTooLarge(EngineError):
    """Abelian-variety dimension beyond the desk-scale bound."""


class InputError(EngineError):
    """Malformed case input (CLI exit code 1)."""


class GroupCheckFailed(EngineError):
    """A group construction or enumeration failed a soundness check (CLI exit code 3)."""


class GaloisCheckFailed(EngineError):
    """Galois certification met contradictory evidence (a soundness check failed; CLI exit code 3)."""


class LatticeCheckFailed(EngineError):
    """A lattice construction or an index failed a soundness check (CLI exit code 3)."""
