"""Exception types shared across the package, and the one physical-memory check."""

import os

PHYS_MEM_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class VmkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(VmkError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class RiccatiBlowUpError(VmkError):
    """A Riccati solution exceeded the finite cap before the horizon.

    ``time`` is the first grid time at which the cap was crossed.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class ModelAssumptionError(VmkError):
    """Model coefficients violate a structural assumption."""


class GammaUnderflowError(ModelAssumptionError):
    """Gamma = exp(log Gamma) underflows double precision to zero."""


class DegenerateMarketError(VmkError):
    """The mean-variance problem degenerates (no risk premium to trade on)."""


class InternalConsistencyError(VmkError):
    """A quantity violated a bound that holds for exact solutions."""


class MemoryCapError(VmkError):
    """A requested problem would not fit in physical memory."""

    def __init__(self, message, limit=None):
        super().__init__(message)
        self.limit = limit


class ConfigError(VmkError):
    """A run configuration file is malformed or inconsistent."""


def check_memory(what: str, need: int, advice: str) -> None:
    """Raise MemoryCapError when ``what``, needing about ``need`` bytes, exceeds physical memory."""
    if need > PHYS_MEM_BYTES:
        raise MemoryCapError(
            f"{what} needs about {need} bytes, more than the {PHYS_MEM_BYTES} "
            f"bytes of physical memory; {advice}",
            limit=PHYS_MEM_BYTES,
        )
