"""Exception taxonomy shared across the package.

Every error carries a machine-readable ``code`` (stable string) so the CLI
can surface failures in JSON without string-matching messages.
"""
from __future__ import annotations

from dataclasses import dataclass


class ReplabError(Exception):
    """Base class for all package errors."""

    code: str = "Error"


@dataclass(frozen=True)
class Violation:
    """One validation failure: a stable code plus a human-readable message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(ReplabError):
    """An input fails its checks: a model outside the maintained
    assumptions, an automaton or a simulation config that is malformed.

    Carries the full structured list of violations, not just the first one.
    """

    code = "ValidationError"

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


# --- full-effort-incentive checks ---------------------------------------

class FeiHoldsNoHorizon(ReplabError):
    code = "FeiHoldsNoHorizon"


class FeiHoldsNoBound(ReplabError):
    code = "FeiHoldsNoBound"


class ResolutionTooCoarse(ReplabError):
    code = "ResolutionTooCoarse"


# --- equilibrium construction --------------------------------------------

class FeiFails(ReplabError):
    code = "FeiFails"


class ReplacementCostTooLargeForConstruction(ReplabError):
    code = "ReplacementCostTooLargeForConstruction"


class NoFeasibleA0(ReplabError):
    code = "NoFeasibleA0"


class IndifferenceOutOfRange(ReplabError):
    code = "IndifferenceOutOfRange"


# --- value computation / verification / simulation ------------------------

class NonContractive(ReplabError):
    code = "NonContractive"


class DepthInsufficient(ReplabError):
    code = "DepthInsufficient"


# --- CLI -------------------------------------------------------------------

class ConfigParse(ReplabError):
    code = "ConfigParse"
