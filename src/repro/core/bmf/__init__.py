"""Boolean matrix factorization: ASSO, weighted QoR, refinement, exact.

The heavy kernels (ASSO gain scoring, column-subset selection, decompressor
fits, flip refinement) run on the packed-bitset primitives of
:mod:`repro.core.bmf.packed`; the ``*_ladder`` entry points amortize one
greedy descent over every factorization degree (prefix stability — see
DESIGN.md "BMF kernel").
"""

from .boolean import (
    ALGEBRAS,
    bool_product,
    check_weights,
    factorization_error,
    hamming_distance,
    numeric_weights,
    uniform_weights,
    weighted_error,
)
from .asso import (
    AssoResult,
    DEFAULT_TAUS,
    asso,
    asso_ladder,
    asso_sweep,
    association_candidates,
)
from .colsel import ColumnSelectResult, column_select_bmf, column_select_ladder
from .packed import (
    MAX_MASK_BITS,
    PackedColumns,
    packed_bool_product,
    packed_weighted_error,
    row_masks,
    weight_table,
)
from .refine import refine, smooth_B_ties, update_B_exact, update_C_greedy
from .exhaustive import exhaustive_bmf
from .factorizer import (
    BMFResult,
    METHODS,
    factorize,
    factorize_ladder,
    identity_result,
)

__all__ = [
    "ALGEBRAS",
    "AssoResult",
    "BMFResult",
    "ColumnSelectResult",
    "DEFAULT_TAUS",
    "MAX_MASK_BITS",
    "PackedColumns",
    "column_select_bmf",
    "column_select_ladder",
    "METHODS",
    "asso",
    "asso_ladder",
    "asso_sweep",
    "association_candidates",
    "bool_product",
    "check_weights",
    "exhaustive_bmf",
    "factorization_error",
    "factorize",
    "factorize_ladder",
    "hamming_distance",
    "identity_result",
    "numeric_weights",
    "packed_bool_product",
    "packed_weighted_error",
    "refine",
    "row_masks",
    "smooth_B_ties",
    "uniform_weights",
    "update_B_exact",
    "update_C_greedy",
    "weight_table",
    "weighted_error",
]
