"""charzero: exact character-table zero-pattern toolkit.

Builds and ingests finite-group character tables with exact cyclotomic
values, extracts their zero patterns, solves the minimum class-cover
problem, and analyzes the common-zero graphs; `TableAnalysis` gathers every
fact the reports give about one table.

The package namespace is lazy: `import charzero` imports no submodule, and
each public name imports its module on first use, so a caller compiles only
the modules it uses.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("Cyclotomic", "cyclotomic_polynomial", "root_of_unity"), "cyclotomic"),
    **dict.fromkeys(("mn_value", "partitions_of", "remove_rim_hooks"), "partitions"),
    **dict.fromkeys(
        (
            "Character", "CharacterTable", "ConjClass", "SchemaError", "TableMetadata",
            "build_abelian", "build_cyclic", "build_dihedral", "build_symmetric",
            "direct_product", "load_table", "save_table", "validate",
        ),
        "chartable",
    ),
    **dict.fromkeys(
        (
            "DataIntegrityError", "ZeroPattern", "burnside_check", "camina_classes",
            "central_type_characters", "nonvanishing_classes", "prime_power_check",
            "vanishing_classes", "zero_pattern",
        ),
        "vanishing",
    ),
    **dict.fromkeys(("CoverResult", "NoCoverError", "check_cover", "min_cover"), "hcover"),
    **dict.fromkeys(
        (
            "BipartiteGraph", "GraphTooLargeError", "SimpleGraph", "bound_checks",
            "components", "delta_v", "gamma_v", "independence_number", "theta",
        ),
        "zerographs",
    ),
    "TableAnalysis": "analysis",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the module behind a public name and cache the value here.

    The value is read from the module when the name is first used, so a
    caller that rebinds the module's attribute before then gets its binding."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_EXPORTS[name], globals(), level=1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
