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

The package namespace is each module's __all__ from gabor to rates, plus errors.
"""

from .errors import *
from .gabor import *
from .support import *
from .channel import *
from .reconstruct import *
from .sparse import *
from .rates import *

__version__ = "0.1.0"
