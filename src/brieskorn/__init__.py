"""Certificate-producing rigidity classifier for Pham-Brieskorn exponent tuples.

The engine decides, by exact integer and rational arithmetic alone,
whether the ring k[X_1,...,X_n]/(X_1^a_1 + ... + X_n^a_n) attached to an
exponent tuple is non-rigid, rigid, or stably rigid, or reports UNKNOWN
when no implemented criterion applies.  Every decision comes with a
certificate tree whose side conditions can be re-verified independently.

Importing the package loads the core modules only (``certificates``,
``engine``, ``errors`` and ``tuples``), which is all that classifying a
tuple runs.  The ``census`` and ``proj`` submodules and the names
exported from them load on first access, through the module
``__getattr__`` below (PEP 562).
"""

from importlib import import_module as _import_module

from .certificates import (
    Certificate,
    RuleId,
    Status,
    Witness,
    certificate_from_dict,
    certificate_from_json,
    certificate_id,
    certificate_to_json,
    replay,
    verify_certificate,
)
from .engine import (
    RULE_PRIORITY,
    Budget,
    Classification,
    KernelBound,
    KnowledgeBase,
    classify,
    kernel_degree_bound,
    rule_collection,
    rule_cotype_high,
    rule_descend,
    rule_equal_exponents,
    rule_i_sum,
    rule_low_sum,
    rule_n3,
    rule_not_in_tn,
    rule_recursive_subtuples,
)
from .errors import BrieskornError, CertificateError, InputError, SoundnessError
from . import tuples
from .tuples import (
    Exponents,
    InvariantReport,
    active_backend,
    as_exponents,
    coordinate_gcd,
    coordinate_gcds,
    cotype,
    cotype_sets,
    degrees,
    divisors,
    gcd_critical_indices,
    in_tn,
    invariant_report,
    lcm_critical_indices,
    lcm_drop,
    lcm_gcd,
    lcm_stable_indices,
    leq_at,
    lt_at,
    normalization,
    omit,
    omitted_gcds,
    omitted_lcms,
    reciprocal_sum,
    subtuple,
    type_set,
    type_size,
)

__version__ = "0.1.0"

# The benchmark's tracer wraps ``brieskorn.backend.invariant_core``.  The
# alias is the tuples module itself, so the wrap replaces the function that
# Facts and the helpers call.  ROADMAP item 1 deletes it.
backend = tuples

#: The submodule each lazily loaded name lives in; a submodule's own name
#: maps to itself.
_LAZY = {
    **dict.fromkeys(
        (
            "census",
            "CensusResult",
            "CensusRow",
            "CensusSpec",
            "CensusSummary",
            "enumerate_universe",
            "run_census",
            "universe_size",
            "write_census_files",
        ),
        "census",
    ),
    **dict.fromkeys(("proj", "ProjClass", "ProjEdge", "proj_classes", "proj_edges"), "proj"),
}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module_name}", __name__)
    if name != module_name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
