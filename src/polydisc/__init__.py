"""Computational geometry of the symmetrized polydisc G_n and its extension:
membership with explainable margins, Schwarz-lemma feasibility, constructive
two-point interpolation, and invariant distances from the origin, every
closed form cross-checked against brute-force oracles in the test suite.
"""

from .clinalg import HermEig2, herm_eig, herm_sqrt, mat2, matricial_mobius, op_norm, takagi
from .distances import (
    DistanceResult,
    carath_lower,
    dist_formula,
    distance_report,
    lempert_upper,
    mobius_dist,
)
from .errors import (
    ConstructionError,
    DegenerateProblemError,
    DomainError,
    InfeasibleError,
    MarginalProblemError,
    PoleError,
    PolydiscError,
    SingularityError,
)
from .geometry import (
    SeparatingPoly,
    noncircular_witness,
    nonconvex_witness,
    separating_polynomial,
)
from .interpolation import (
    WORKED_FAMILY_LAMBDA0,
    WORKED_FAMILY_TARGET,
    DiscFunction,
    ScalarSchur,
    identity_regressions,
    build_interpolant,
    default_q,
    extremal_disc,
    worked_family,
    np2,
    nu_window,
    slice_interpolant,
)
from .membership import (
    BOUNDARY_BAND,
    ConditionMargin,
    MembershipReport,
    costara_f,
    costara_sup,
    in_b_gamma,
    in_g,
    in_gamma,
    in_tilde_g,
    in_tilde_gamma,
    nonvanishing_falsifier,
    symmetrize,
)
from .mobius import CPoint, binom, d_norm, phi, sup_on_torus
from .schwarz import (
    SchurCertificate,
    SchwarzProblem,
    check_condition,
    gn_schwarz_bound,
    in_J_n,
    k_rho,
    lift,
    schur_certificates,
)

__version__ = "0.1.0"
