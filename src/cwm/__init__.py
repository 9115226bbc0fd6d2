"""Circulant weighing matrices: group-ring arithmetic, orbit-table
search, nonexistence certificates, constructions, and a result catalog."""

from .groupring import (
    GroupRingElement,
    canonical_form,
    conjugate,
    element,
    fold,
    from_support,
    multiply,
    power_map,
    proper_decomposition,
    shift,
    verify,
    weight,
    witness_format,
    witness_parse,
)
from .numbertheory import (
    OrbitPartition,
    coprime_factor_pairs,
    coprime_part,
    is_self_conjugate,
    mcfarland_multiplier,
    multiplicative_order,
    orbits,
    prime_power_multiplier,
)
from .orbittable import OrbitTable, build
from .margins import MarginSolution, fold_consistency_filter, margin_pairs
from .exhaust import (
    CensusRow,
    MethodInapplicable,
    SearchConfig,
    SearchOutcome,
    exhaust_pair,
    icw_census,
    search,
)
from .constructions import (
    CW7_4,
    cw14m_family,
    kronecker,
    multiple,
    rds_proper_parameters,
    type_ii,
)
from .catalog import Catalog, CatalogRecord, CatalogIntegrityError, seed_known_results

__version__ = "0.1.0"
