"""opsample: sampling and reconstruction of operators with bandlimited spreading functions.

The package models time-varying channels H whose delay-Doppler spreading
function eta(t, nu) lives on a prescribed region S, probes them with weighted
delta trains g = sum_n c_n delta_{nT}, and reconstructs eta (equivalently the
time-varying impulse response h) from the Zak transform of the single response
Hg.  Everything is carried out on an exact finite grid: nu is sampled at step
Omega/P, which makes Hg periodic and turns every identity into finite, exact
arithmetic.

Modules
-------
gabor        finite Gabor system matrices G(c), spark certification, window draws
support      cell supports, identifiability conditions, (T, L)-rectification
channel      discrete spreading functions, delta-train responses, Zak transform
reconstruct  left inverses, known-support recovery, smooth and chirped variants
sparse       unknown-support recovery by rank-aware joint-sparse decoding
rates        sampling-rate diagnostics and bunched-window planning
presets      the worked support instances used throughout tests and demos
formats      JSON/CSV file formats shared with the command line
cli          scriptable front end (`opsample <subcommand>`)
"""

from .errors import (
    GenerationFailed,
    GridMismatch,
    IndexOutOfRange,
    InvalidOverlap,
    InvalidParameters,
    MalformedFile,
    NoConvergence,
    NonIntegerChirpPeriod,
    NoPrimeInRange,
    NotIdentifiable,
    OpSampleError,
    RankDeficient,
    SearchBudgetExceeded,
    ShearNotRectifiable,
)
from .gabor import (
    GaborMatrix,
    Window,
    build_gabor_matrix,
    generate_window,
    modulate,
    spark,
    translate,
)
from .support import (
    CellSupport,
    PartitionClass,
    RectificationReport,
    bandwidth,
    check_identifiable,
    periodization_count,
    rectify,
)
from .channel import (
    ChannelResponse,
    DiscreteSpreadingFunction,
    IdentifierTrain,
    SystemSample,
    apply_channel,
    assemble_system,
    impulse_response,
    inverse_zak,
    quasiperiodize,
    random_spreading,
    relative_l2_error,
    zak_transform,
)
from .reconstruct import (
    LeftInverse,
    ReconstructionReport,
    SmoothWindows,
    left_inverse,
    reconstruct_h_sharp,
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
    smooth_windows,
)
from .sparse import (
    SupportEstimate,
    mmv_omp,
    recover_unknown_support,
)
from .rates import (
    RateReport,
    bunched_window_plan,
    rate_report,
    refine_support,
)

__version__ = "0.1.0"
