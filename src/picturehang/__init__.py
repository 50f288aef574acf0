"""Picture-hanging words: compile fall specifications, verify, and solve.

Each public name lives in one submodule, which is imported the first time
the name is looked up here (PEP 562), so importing the package, or one of
its submodules, loads no other module.
"""

from importlib import import_module

_NAMES = {
    "circuits": "MonotoneCircuit PuzzleSpec UnrealizableSpecError circuit_table eval_circuit "
    "spec_from_json spec_to_json subsets_to_circuit validate_spec",
    "compiler": "CompileReport compile_circuit",
    "constructions": "build_disjoint build_e build_s e_word_length s_word_length",
    "formula": "FormulaSyntaxError format_formula parse_formula",
    "gadgets": "estimate_length gadget_and gadget_or",
    "puzzles": "PuzzleFixture fixture_by_id load_fixtures",
    "render": "to_diagram",
    "sortnet": "Comparator ComparatorNetwork batcher_network build_k_of_n "
    "network_to_circuit sorts_all_zero_one threshold_circuit",
    "spectator": "greedy_min_fell max_survive_exact min_fell_exact set_cover_to_hanging",
    "verifier": "verify_threshold",
    "words": "BudgetExceededError DEFAULT_EXHAUSTIVE_LIMIT DEFAULT_LETTER_BUDGET "
    "EMPTY_WORD ExhaustiveLimitError NailSubset Word WordFormatError commutator concat "
    "fall_table falls format_word inverse is_monotone_table nail_counts parse_word "
    "power reduce remove_nails word_from_json word_to_json",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _NAMES:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_NAMES))
