"""Exact-arithmetic combinatorics of non-crossing partitions and the
cumulants of truncated noncommutative distributions.

The public names and their layer modules load on first use (PEP 562).  Each
lookup reads the home module's current binding; nothing is copied here.
"""

import sys as _sys
from importlib import import_module as _import

_LAYERS = {
    "errors": """DegreeMismatch DegreeTooLow DimMismatch EmptySubset InvalidFamily
        InvalidPartition IsBlockMax LimitExceeded NcprobError NotComparable NotInner NotLLOne
        NotOuter NotTracial PositionOutOfRange ShapeMismatch SizeMismatch""",
    "nc": """BlockRole NcPartition attach block_roles catalan cut enumerate_ll_below
        enumerate_nc f_nm f_nm_inverse interval_partitions is_interval is_noncrossing kreweras
        leq ll ll_one moebius_oracle moebius_to_one one_partition outer_blocks parent_block
        sqsubseteq zero_partition""",
    "typeb": """Flavor SignedNcPartition abs_partition enumerate_signed from_pair signed_count
        to_pair zero_blocks""",
    "families": """DeltaTensor MultilinearFamily all_words build_family diagonal_delta
        is_tracial random_delta random_family random_tracial relabel restrict truncate
        words_of_length zero_family""",
    "cumulants": """boolean_cumulants cc_cumulants cfree_cumulants cfree_explicit
        eq_bopp_counterexample eq_typeb_counterexample free_cumulants infinitesimal_cumulants
        infinitesimal_moments moments_from_boolean moments_from_cc moments_from_cfree
        moments_from_free""",
    "deltastar": """cumulant_transform_counterexample cyclic_cumulant_counterexample delta_star
        eval_eta eval_gamma gamma_eta_counterexample psi_delta psi_k""",
    "products": """boxplus boxplus_b boxplus_c cfree_product convolution_intertwine_counterexample
        free_product infinitesimal_product product_intertwine_counterexample""",
}
# public name -> the module that defines it
_HOME = {name: f"{__name__}.{mod}" for mod, names in _LAYERS.items() for name in names.split()}

__all__ = [*_HOME, *_LAYERS]
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:  # about 1 us: sys.modules first, then the import
        return getattr(_sys.modules.get(home) or _import(home), name)
    if name in _LAYERS:  # a layer not imported yet
        return _import(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
