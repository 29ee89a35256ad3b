"""Discrete connections on principal circle bundles, with a verification harness."""

__version__ = "0.1.6"

from .algebra import (  # noqa: F401
    CIRCLE_IDENTITY,
    CircleElement,
    Q_I,
    Q_ONE,
    Quaternion,
    UnitQuaternion,
    canonical_angle,
    circle_distance,
)
from .bundle import (  # noqa: F401
    HopfBundle,
    PrincipalBundle,
    TrivialBundle,
    TrivialPoint,
)
from .connection import (  # noqa: F401
    C_FAMILIES,
    Decomposition,
    DiscreteConnectionForm,
    DiscreteHorizontalLift,
    ReducedPair,
    SliceProbeReport,
    decompose_pair,
    form_from_lift,
    lift_from_form,
    make_c_function,
    reconstruct_pair,
    reduce_pair,
    slice_probe,
    slice_probes,
    tangent_split_check,
    trivial_form_from_C,
    trivial_lift_from_C,
)
from .errors import (  # noqa: F401
    AntipodalPoints,
    DisconnError,
    EmptyDomainIntersection,
    InvalidC,
    InvalidConfig,
    NotSameFiber,
    OutOfDomain,
    OutOfRange,
    ProbeFailed,
    SectionUndefined,
    SolveFailed,
)
from .riemannian import (  # noqa: F401
    GeodesicSegment,
    LiftResult,
    base_geodesic,
    beta_formula,
    hopf_closed_form,
    horizontal_lift_path,
    lmw_form,
    riemannian_form,
)
from .verify import (  # noqa: F401
    AXIOM_IDS,
    AxiomRecord,
    FormComparison,
    SampleConfig,
    SweepResult,
    SweepRow,
    VerificationReport,
    check_axioms,
    compare_forms,
    counterexample_sweep,
    violation_from_record,
)
