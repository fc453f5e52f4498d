"""Computation budgets and iteration policies.

Every potentially unbounded loop in the engine is governed by a field of
:class:`EngineConfig`.  Exceeding a cap raises
:class:`~fclosure.errors.BudgetExceededError` whose ``kind`` names the cap
(given beside each field below), except ``limit_chain_cap``, which raises
:class:`~fclosure.errors.UnstabilizedError` with the partial chain; it is
never silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # Groebner engine: kinds "basis", "pairs" and "degree"; the degree
    # budget also bounds every power f**n and g**(p**e) before it is built
    max_basis_size: int = 2000
    max_pairs: int = 200_000
    max_poly_degree: int = 60_000

    # Frobenius exponent e in q = p**e: kind "exponent"
    frobenius_e_cap: int = 8

    # ascending-chain iteration caps: the limit-ideal chain raises
    # UnstabilizedError, saturation kind "saturation"
    limit_chain_cap: int = 12
    saturation_cap: int = 64

    # bounded unconditioned-strong-d-sequence verification: kind "usd"
    usd_length_cap: int = 5

    # sampler retry budget, attempts per requested sample: kind "sampling"
    sample_retry_factor: int = 200


DEFAULT_CONFIG = EngineConfig()
