"""Computation budgets and iteration policies.

Every potentially unbounded loop in the engine is governed by a field of
:class:`EngineConfig`.  Exceeding a budget raises
:class:`~fclosure.errors.BudgetExceededError`; it is never silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # Groebner engine
    max_basis_size: int = 2000
    max_pairs: int = 200_000
    max_poly_degree: int = 60_000

    # polynomial exponents (parser and arithmetic)
    exponent_cap: int = 2**31 - 1

    # Frobenius exponent e in q = p**e
    frobenius_e_cap: int = 8

    # ascending-chain iteration caps
    limit_chain_cap: int = 12
    saturation_cap: int = 64

    # bounded unconditioned-strong-d-sequence verification
    usd_length_cap: int = 5

    # sampler retry budget, attempts per requested sample
    sample_retry_factor: int = 200


DEFAULT_CONFIG = EngineConfig()
