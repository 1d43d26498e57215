"""meanscope: operator means on positive definite matrices, and a harness
that numerically verifies the Loewner-order inequality chains they satisfy."""

__version__ = "0.1.0"

# every module, so that importing the package loads all of it
from . import linalg, means, ensembles, laws  # noqa: F401
