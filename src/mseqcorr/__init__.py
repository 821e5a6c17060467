"""Exact crosscorrelation and Walsh spectra of p-ary m-sequence decimations.

Everything is integer/cyclotomic-exact: sequences and fields in `gf` and
`lfsr`, the value ring Z[w] in `cyclo`, spectra (each one integer record,
`class_record`) and power moments in `spectra`, the family catalog with
predicted distributions in `families`, Niho unit-circle machinery in
`niho`, auxiliary exponential sums in `expsums`, two-nonzero cyclic code
weights in `codes`, and exhaustive classification plus conjecture evidence
in `search`.
"""

__version__ = "0.1.0"

from .cyclo import CycInt, NotRational
from .gf import FieldCtx, FieldSpec, field_ctx, find_primitive_polynomial, is_primitive
from .lfsr import MSeq, check_golomb, decimate, generate_recursion, generate_trace
from .spectra import WalshTable, class_record, crosscorr_naive, walsh_fast

__all__ = [
    "CycInt", "NotRational", "FieldCtx", "FieldSpec", "field_ctx",
    "find_primitive_polynomial", "is_primitive", "MSeq", "check_golomb",
    "decimate", "generate_recursion", "generate_trace", "WalshTable",
    "class_record", "crosscorr_naive", "walsh_fast", "__version__",
]
