"""Exact computer algebra for prime-characteristic commutative algebra:
Groebner bases over F_p, Frobenius closures and test exponents, d-sequence
calculus, and an empirical workbench over built-in example rings."""

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import (
    BudgetExceededError,
    CertificateError,
    ColonByZeroWarning,
    FClosureError,
    InternalError,
    ParseError,
    QExponentNotFoundError,
    RingMismatchError,
    UnstabilizedError,
)
from .polyring import (
    MonomialOrder,
    Polynomial,
    PolyRing,
    frobenius_decompose,
    monomial_compare,
    parse_polynomial,
)
from .ideals import (
    Ideal,
    colon,
    groebner_basis,
    ideal_contains,
    ideal_equal,
    ideal_from_text,
    ideal_member,
    ideal_sum,
    intersect,
    krull_dimension,
    normal_form,
    radical_member,
    saturate,
    scale_ideal,
    unit_ideal,
)
from .frobenius import (
    ClosureResult,
    FrobeniusExponent,
    QuotientRing,
    frobenius_closure,
    frobenius_power,
    frobenius_preimage,
    frobenius_root,
    hsl_number,
    q_exponent,
)
from .sequences import (
    SequenceSpec,
    SuiteReport,
    is_d_sequence,
    is_filter_regular,
    is_subsystem_of_parameters,
    is_system_of_parameters,
    is_usd_bounded,
    limit_ideal,
    limit_ideal_closed_form,
    limit_ideal_subset_decomposition,
    unmixed_part,
    verify_identity_suite,
)
from .genfrac import GenFracElem, hsl_exponent, is_zero_in_cohomology, make_elem, t_action
from .workbench import (
    QReport,
    SurveyConfig,
    builtin_ring,
    load_ring,
    run_suite,
    sample_parameter_ideals,
    survey_uniform_q,
)

__version__ = "0.1.0"
