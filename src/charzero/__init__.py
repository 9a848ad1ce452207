"""charzero: exact character-table zero-pattern toolkit.

Builds and ingests finite-group character tables with exact cyclotomic
values, extracts their zero patterns, solves the minimum class-cover
problem, and analyzes the common-zero graphs; `TableAnalysis` gathers every
fact the reports give about one table.
"""

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, root_of_unity
from .partitions import mn_value, partitions_of, remove_rim_hooks
from .chartable import (
    Character,
    CharacterTable,
    ConjClass,
    SchemaError,
    TableMetadata,
    build_abelian,
    build_cyclic,
    build_dihedral,
    build_symmetric,
    direct_product,
    load_table,
    save_table,
    validate,
)
from .vanishing import (
    DataIntegrityError,
    ZeroPattern,
    burnside_check,
    camina_classes,
    central_type_characters,
    nonvanishing_classes,
    prime_power_check,
    vanishing_classes,
    zero_pattern,
)
from .hcover import CoverResult, NoCoverError, check_cover, min_cover
from .zerographs import (
    BipartiteGraph,
    GraphTooLargeError,
    SimpleGraph,
    bound_checks,
    components,
    delta_v,
    gamma_v,
    independence_number,
    theta,
)
from .analysis import TableAnalysis

__version__ = "0.1.0"
