"""Exact GF(2) workbench for truncated spectral-sequence pages of the
mod 2 Moore spectrum and its endomorphism ring."""

__version__ = "0.1.0"

from .gf2poly import (
    Alphabet,
    Generator,
    GF2PolyError,
    InvalidWindowError,
    Multidegree,
    ParseError,
    Polynomial,
    Quotient,
    TruncationWindow,
    UnknownGeneratorError,
    default_window,
    enumerate_window,
)
from .dga import (
    ComputedPage,
    D2Report,
    DimensionTable,
    PagePresentation,
    PresentationPage,
    UntrustedDegreeError,
    d_squared_on_generators,
    homology_page,
    page_dimension_table,
)
from .cobar import (
    CobarCochain,
    CobarComplex,
    Comodule,
    class_identity_check,
    cobar_differential,
    endomorphism_comodule,
    ext_dimensions,
    moore_comodule,
    trivial_comodule,
)
from .mahowald import ZBHTables, mahowald_presentation, zbh_bases
from .specseq import CheckRow, Report, Workbench
from .chart import ChartDoc, decomposition_chart, page_chart, render

__all__ = [
    "Alphabet",
    "ChartDoc",
    "CheckRow",
    "CobarCochain",
    "CobarComplex",
    "Comodule",
    "ComputedPage",
    "D2Report",
    "DimensionTable",
    "Generator",
    "GF2PolyError",
    "InvalidWindowError",
    "Multidegree",
    "PagePresentation",
    "ParseError",
    "Polynomial",
    "PresentationPage",
    "Quotient",
    "Report",
    "TruncationWindow",
    "UnknownGeneratorError",
    "UntrustedDegreeError",
    "Workbench",
    "ZBHTables",
    "class_identity_check",
    "cobar_differential",
    "decomposition_chart",
    "default_window",
    "endomorphism_comodule",
    "d_squared_on_generators",
    "enumerate_window",
    "ext_dimensions",
    "homology_page",
    "mahowald_presentation",
    "moore_comodule",
    "page_chart",
    "page_dimension_table",
    "render",
    "trivial_comodule",
    "zbh_bases",
    "__version__",
]
