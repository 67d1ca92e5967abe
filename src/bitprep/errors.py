"""Exception types shared across the package."""


class BitprepError(Exception):
    """Base class for package-specific failures."""


class CapacityError(BitprepError):
    """The register is wider than one numpy array can hold."""


class EntanglementError(BitprepError):
    """A subsystem read-out found residual entanglement with the rest."""


class PrecisionError(BitprepError):
    """Quantizing the target at the requested precision lost every amplitude."""


class TargetFileError(BitprepError):
    """A target-state file failed to parse or validate."""


class CircuitFormatError(BitprepError):
    """A circuit text file failed to parse or validate."""
