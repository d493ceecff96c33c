"""Gaussian approximation of Haar-orthogonal matrix corners: exact moment
formulas, log-space density evaluation, Monte Carlo distance estimators, the
Gram-Schmidt coupling, and the associated limit-theorem experiments.

Each module's ``__all__`` is the one list of its public names."""

from .density import *  # noqa: F403
from .distances import *  # noqa: F403
from .limits import *  # noqa: F403
from .moments import *  # noqa: F403
from .numerics import *  # noqa: F403
from .parallel import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"
