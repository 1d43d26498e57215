"""meanscope: operator means on positive definite matrices, and a harness
that numerically verifies the Loewner-order inequality chains they satisfy."""

__version__ = "0.1.0"

from .linalg import (  # noqa: F401
    HermitianMatrix,
    PDMatrix,
    SpectralDecomposition,
    LoewnerVerdict,
    eig_hermitian,
    apply_function,
    power,
    congruence,
    kron,
    hadamard,
    loewner_leq,
)
from .means import (  # noqa: F401
    MeanDescriptor,
    arithmetic,
    harmonic,
    geometric,
    weighted_geometric,
    power_mean,
    power_path,
    geometric_path,
    dual,
    representing_fn,
    mean,
    geomean,
    path_point,
    parse_descriptor,
    format_descriptor,
)
from .ensembles import EnsembleSpec, random_pd, random_ordered_pair, sample_region  # noqa: F401
from .laws import CheckResult, check_law, sample_instance, sweep_law, law_names  # noqa: F401
