"""Computation budgets and iteration policies.

Every potentially unbounded loop in the engine is governed by a field of
:class:`EngineConfig`.  Exceeding a cap raises
:class:`~fclosure.errors.BudgetExceededError` whose ``kind`` names the cap
(given beside each field below), except ``limit_chain_cap``, which raises
:class:`~fclosure.errors.UnstabilizedError` with the partial chain; it is
never silently ignored.
"""

from __future__ import annotations

from collections import namedtuple

# each field with its default
_FIELDS = {
    # Groebner engine: kinds "basis", "pairs" and "degree"; the degree
    # budget also bounds every power f**n and g**(p**e) before it is built
    "max_basis_size": 2000,
    "max_pairs": 200_000,
    "max_poly_degree": 60_000,
    # Frobenius exponent e in q = p**e: kind "exponent"
    "frobenius_e_cap": 8,
    # ascending-chain iteration caps: the limit-ideal chain raises
    # UnstabilizedError, saturation kind "saturation"
    "limit_chain_cap": 12,
    "saturation_cap": 64,
    # bounded unconditioned-strong-d-sequence verification: kind "usd"
    "usd_length_cap": 5,
    # sampler retry budget, attempts per requested sample: kind "sampling"
    "sample_retry_factor": 200,
}


EngineConfig = namedtuple("EngineConfig", _FIELDS, defaults=_FIELDS.values())


DEFAULT_CONFIG = EngineConfig()
