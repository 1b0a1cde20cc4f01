"""Generalized Hurwitz zeta series: evaluation, structural form decisions,
prime-ideal density experiments, phase constructions, and zero location."""

from .arith import Factorization, FactorCache, PeriodicFunction, factorize, is_prime
from .characters import DirichletCharacter, characters_mod
from .construction import (
    ConstructionProfile,
    PhiAssignment,
    SigmaCertificate,
    StageState,
    ThinClass,
    Unreachable,
    bohr_solve,
    run_construction,
    select_sigma,
    stage_advance,
)
from .density import DensityReport, WindowSpec, density_sweep, private_prime_scan
from .ideals import (
    AlgebraicAlpha,
    IdealFactorizationRecord,
    PrimeIdealKey,
    ideal_factorize,
    norm_value,
)
from .structure import (
    DecompositionResult,
    PLCertificate,
    detect_pl_form,
    decompose,
    nonvanishing_verdict,
)
from .zeros import Rectangle, WindingResult, winding_number, zero_search
from .zeta import (
    EvalResult,
    PoleAtOne,
    PrecisionProfile,
    f_eval,
    hurwitz_zeta,
)

__version__ = "0.1.0"
