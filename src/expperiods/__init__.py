"""Exact connections and certified numerics for exponential period integrals.

The package derives the differential system satisfied by integrals of a
pencil of exponentials e^{g(u, t)} on an affine or punctured affine line,
exactly over Q(t); isolates the singular parameter values into certified
balls; builds rapid-decay integration cycles; evaluates the resulting period
integrals with adaptive contour quadrature; and numerically verifies the
structural identities (solution property, coboundary vanishing, perfect
duality, monodromy consistency).
"""

from .cohomology import (
    CONNECTION_CONVENTION,
    CohomologyBasis,
    ConnectionMatrix,
    FiberType,
    ProblemSpec,
    ScalarODE,
    connection_matrix,
    cyclic_ode,
    fiber_basis,
    reduce_form,
)
from .cycles import (
    CycleBasis,
    EndTag,
    RapidDecayCycle,
    ValleyConfig,
    cycle_basis,
    track_cycles,
    valley_config,
)
from .errors import (
    AtSingularT,
    DegenerateFamily,
    EngineError,
    NonDecayingTail,
    PrecisionExhausted,
    RankZero,
    SingularProximity,
    SpecFormatError,
    ToleranceNotMet,
)
from .quadrature import (
    PeriodMatrix,
    PeriodValue,
    adaptive_polyline,
    integrate_absolute,
    integrate_period,
    period_matrix,
)
from .singular import (
    RootBall,
    SingularSet,
    resultant_u,
    root_isolate,
    singular_set,
    squarefree_decomposition,
)
from .symbolic import (
    LaurentPoly,
    RatFun,
    TPoly,
    parse_laurent,
)
from .verify import (
    STOKES_SEED,
    CheckRecord,
    MonodromyResult,
    VerificationReport,
    check_duality,
    check_ode,
    check_stokes,
    monodromy,
    random_gauge,
    run_all,
)

__version__ = "0.1.0"
