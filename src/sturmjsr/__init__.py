"""Exact joint spectral radius structure of one-parameter 2x2 matrix
families {A0, alpha*A1} whose extremal products follow mechanical words.

The ratio function alpha -> (limiting density of the scaled generator in
extremal products) is a devil's staircase: constant on one closed interval
per rational, strictly increasing across them, with every irrational value
attained at a single point.  This package computes the rational steps in
closed form (exactly, in quadratic fields, for integer families), the
unique parameter of any irrational ratio via a rapidly convergent infinite
product with optional rigorous error certificates, and brute-force
enumeration bounds that cross-validate everything at desk scale.
"""

from .contfrac import (
    CertificationError,
    CFError,
    CFExpansion,
    cf_complement,
    cf_of_quadratic,
    cf_of_rational,
    cf_of_real,
    convergents,
)
from .family import (
    HypothesisReport,
    MatrixFamily,
    builtin_bousch_mairesse,
    builtin_hmst,
    builtin_kozyakin,
    check_technical_hypotheses,
    dual_family,
    resolve_family,
)
from .irrational_preimage import (
    AlphaResult,
    RhoTauSequence,
    RigorCertificate,
    alpha_by_traces,
    alpha_for_irrational,
    rho_sequence,
    rigor_certificate,
    tau_recurrence_golden,
)
from .linalg2 import (
    Mat2,
    QuadExt,
    RepeatedEigenvalueError,
    perron_projection,
    product_of_word,
    quad_compare,
    rank_one_spectral_radius,
    sigma_norm,
    spectral_radius,
)
from .oracle import (
    ConditionVReport,
    OracleBound,
    check_condition_v,
    jsr_bounds,
    spot_check_condition_v,
)
from .precision import Ball, fraction_from_mpf, mpf_from_fraction
from .rational_preimage import (
    Endpoint,
    PreimageInterval,
    SternBrocotNode,
    SValue,
    general_one_over_n_interval,
    preimage_interval,
    preimage_one,
    preimage_zero,
    s_value,
    varrho_on_interval,
)
from .staircase import (
    RatioBracket,
    Staircase,
    build_staircase,
    gap_diagnostics,
    gap_residuals,
    ratio_at,
)
from .words import (
    StandardPair,
    WordError,
    delta_step,
    gamma_step,
    is_balanced,
    is_cyclically_balanced,
    mechanical_prefix,
    necklaces,
    ones_count,
    s_sequence,
    slope,
    standard_pair_for,
)

__version__ = "0.1.0"
