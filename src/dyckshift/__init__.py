"""Bracket-matching subshifts: exact measures, entropy, coding, samplers.

The package re-exports the names its README's library section uses; the
rest of the API lives in the submodules ``words``, ``measures``,
``coding``, ``analysis`` and ``verification``.
"""

__version__ = "0.1.0"

from .analysis import empirical_cylinders, match_index_coincidences  # noqa: F401
from .coding import sample_tilde  # noqa: F401
from .measures import cylinder_mass, entropy_report  # noqa: F401
from .words import Word, residue, residue_text  # noqa: F401
