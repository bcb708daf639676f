"""bmx: Monte Carlo and numerical tools for planar Brownian exit times.

Subsystems:

* :mod:`bmx.geometry`, :mod:`bmx.combs` -- plane domains, predicates,
  boundary labels, and the iterated half-strip construction;
* :mod:`bmx.maps` -- the linear and Koebe-parabola maps and Hardy
  norms;
* :mod:`bmx.rng`, :mod:`bmx.disk_time`, :mod:`bmx.sim` -- reproducible
  streams and the exit-sampling kernels (exact, walk-on-spheres,
  Euler-Maruyama);
* :mod:`bmx.hyperbolic`, :mod:`bmx.stats` -- quasi-hyperbolic distance,
  estimators, and the identity/inequality verifiers;
* :mod:`bmx.cli` -- the ``bmx`` scenario runner.
"""

from .combs import CombDomain, build_comb
from .disk_time import get_sampler, sample_unit_disk_time
from .geometry import (Annulus, BoundaryLabel, Disk, Domain, HalfPlane,
                       HalfStripComplement, KoebeSlit, ParabolaComplement,
                       Rectangle, SpiralPair, StarlikeVerdict, Strip, Wedge,
                       check_delta_starlike)
from .hyperbolic import (CircleTarget, QhConfig, quasi_hyperbolic_distance,
                         quasi_hyperbolic_profile)
from .maps import (AnalyticMap, HardyNormProfile, KoebeParabola, Linear,
                   default_r_grid, hardy_norm_profile)
from .rng import RngStream
from .sim import (EmConfig, ExitBatch, WosConfig, em_exit_batch,
                  sample_disk_exit_batch, sample_halfplane_exit_batch,
                  wos_exit_batch)
from .stats import (Estimate, HardyEstimate, IdentityCheck, IncreasingReport,
                    KarafylliaReport, MomentEstimate, ProportionEstimate,
                    estimate_hardy_number, estimate_moment, exit_proportion,
                    run_exits, verify_cauchy_identities,
                    verify_increasing_domains, verify_karafyllia)

__version__ = "0.1.0"
