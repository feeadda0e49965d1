"""Generalized repetitions in strings over integer alphabets.

Enumerates and counts k-mismatch squares organized as (uniform) k-runs,
maximal gapped repeats, generalised runs, parameterized squares, and
squares under arbitrary substring-consistent equivalence relations, with
brute-force oracles validating every efficient path.
"""

from .counting import (
    SquaresTable,
    count_distinct,
    count_nonequivalent,
    right_nonextendible,
    right_nonshiftable,
    squares_table,
)
from .encodings import (
    RELATIONS,
    Encoder,
    make_encoder,
    maximal_palindromes,
    scer_match,
)
from .index import ScerIndex
from .psquares import (
    PSquareReport,
    report_distinct,
    report_nonequivalent,
)
from .repeats import (
    GeneralisedRun,
    KRun,
    Mgr,
    UniformKRun,
    generalised_runs,
    induces,
    is_k_mismatch_square,
    k_runs,
    mgrs,
    mismatch_positions,
    uniform_k_runs,
)
from .text import Text, parse_text, text_from_symbols

__version__ = "0.1.0"

__all__ = [
    "Encoder",
    "GeneralisedRun",
    "KRun",
    "Mgr",
    "PSquareReport",
    "RELATIONS",
    "ScerIndex",
    "SquaresTable",
    "Text",
    "UniformKRun",
    "count_distinct",
    "count_nonequivalent",
    "generalised_runs",
    "induces",
    "is_k_mismatch_square",
    "k_runs",
    "make_encoder",
    "maximal_palindromes",
    "mgrs",
    "mismatch_positions",
    "parse_text",
    "report_distinct",
    "report_nonequivalent",
    "right_nonextendible",
    "right_nonshiftable",
    "scer_match",
    "squares_table",
    "text_from_symbols",
    "uniform_k_runs",
]
