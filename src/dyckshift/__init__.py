"""Bracket-matching subshifts: exact measures, entropy, coding, samplers."""

__version__ = "0.1.0"

from .words import (  # noqa: F401
    AlphabetParams,
    BudgetExceeded,
    DyckError,
    MatchAnnotation,
    NormalForm,
    NotBalanced,
    NotInLanguage,
    ParseError,
    Symbol,
    Word,
    are_equivalent,
    count_balanced,
    count_language,
    enumerate_balanced,
    enumerate_language,
    height_profile,
    is_balanced,
    is_in_language,
    match_annotate,
    minimal_balanced_extensions,
    reduce_word,
)

from .measures import (  # noqa: F401
    EntropyReport,
    ExtensionMassRow,
    LogPair,
    MeasureValue,
    balanced_cylinder_value,
    block_entropy,
    catalan_convolution,
    entropy_report,
    entropy_table,
    extension_additivity,
    mass_length_for_residual,
    minimal_extension_mass,
    tilde_cylinder_value,
)

from .coding import (  # noqa: F401
    BinaryWindow,
    CollapsedWindow,
    IndexCoverageGap,
    IndexWindow,
    NeedMoreLeft,
    NeedMoreRight,
    PointWindow,
    Provenance,
    apply_coding,
    bit_height_cocycle,
    collapse_minus,
    collapse_plus,
    height_cocycle,
    invert_collapse_minus,
    invert_collapse_plus,
    match_left,
    project_bits,
    sample_minus,
    sample_plus,
    sample_tilde,
    slot_index,
)

from .analysis import (  # noqa: F401
    DomainMismatch,
    EmpiricalEstimate,
    Holonomy,
    InsufficientData,
    MatchingTimes,
    WindowDiagnostics,
    classify_window,
    empirical_cylinder,
    empirical_cylinders,
    holonomy_apply,
    match_index_coincidence,
    match_index_coincidences,
    matching_times,
)

from .verification import CheckResult, run_check, run_suite  # noqa: F401
