"""Curvature of embedded pseudo-Riemannian surfaces from Poisson brackets."""

from .classical import (
    EmbeddingEval,
    InducedMetric,
    NormalFrame,
    classical_gauss,
    classical_mean,
    classical_normal_frame,
    evaluate_embedding,
    induced_metric,
    second_fundamental,
)
from .errors import PbcurvError
from .exprlang import Exprs, parse_expression
from .jets import Jet1, Jet2
from .poisson import (
    BracketTable,
    DensityChoice,
    ZData,
    build_bracket_table,
    build_z,
    gauss_full,
    gauss_via_frame,
    mean_full,
    mean_via_frame,
    normal_frame_from_z,
    poisson_bracket,
    weingarten_frame,
    zmap_invariants,
)
from .surfaces import CATALOG, SurfaceSpec, load_spec
from .tensor import AmbientSignature

__version__ = "0.1.0"

__all__ = [
    "AmbientSignature",
    "BracketTable",
    "CATALOG",
    "DensityChoice",
    "EmbeddingEval",
    "Exprs",
    "InducedMetric",
    "Jet1",
    "Jet2",
    "NormalFrame",
    "PbcurvError",
    "SurfaceSpec",
    "ZData",
    "build_bracket_table",
    "build_z",
    "classical_gauss",
    "classical_mean",
    "classical_normal_frame",
    "evaluate_embedding",
    "gauss_full",
    "gauss_via_frame",
    "induced_metric",
    "load_spec",
    "mean_full",
    "mean_via_frame",
    "normal_frame_from_z",
    "parse_expression",
    "poisson_bracket",
    "second_fundamental",
    "weingarten_frame",
    "zmap_invariants",
    "__version__",
]
