"""Run-time bounds for brute-force loops, kept in one place."""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class Limits:
    #: largest group order for which exhaustive element scans are allowed
    max_form_order: int = 10**4
    #: largest level N for which SL2(Z/N) is enumerated
    max_level: int = 60
    #: largest cyclotomic field order: of every Cyclo built, and lcm(2, N),
    #: checked by dim, inv and the coset oracle on each query, N the level
    max_cyclo_order: int = 10**6


LIMITS = Limits()


def apply_env_overrides() -> None:
    """Read WEILINV_MAX_ORDER / WEILINV_MAX_LEVEL / WEILINV_MAX_CYCLO_ORDER."""
    for var, attr in (
        ("WEILINV_MAX_ORDER", "max_form_order"),
        ("WEILINV_MAX_LEVEL", "max_level"),
        ("WEILINV_MAX_CYCLO_ORDER", "max_cyclo_order"),
    ):
        if var in os.environ:
            try:
                setattr(LIMITS, attr, int(os.environ[var]))
            except ValueError:
                raise ValueError(f"{var} must be an integer, not {os.environ[var]!r}") from None
