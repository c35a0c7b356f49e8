"""Gabor-jet coding of facial expression images, with rank-correlation and
non-metric MDS tools for comparing the code against human rating data."""

from .gabor import (
    DEFAULT_ORIENTATIONS,
    DEFAULT_SIGMA,
    DEFAULT_WAVENUMBERS,
    FilterBank,
    FilterSpec,
    compute_jet,
    compute_jets,
    read_pgm,
)
from .grid import (
    GridPlacement,
    geometry_vector,
    load_grid,
    rescale_placement,
)
from .nmds import (
    Configuration,
    Disparities,
    classical_init,
    embed,
    isotonic_fit,
    procrustes_align,
    stress1,
)
from .rank_stats import (
    CorrelationResult,
    average_ranks,
    correlate_model_with_ratings,
    significance,
    spearman_rho,
)
from .ratings import RatingTable, load_ratings, semantic_matrix
from .similarity import PairMatrix, pairwise_matrix

__version__ = "0.1.0"
