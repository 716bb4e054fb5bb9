"""Influential-node ranking for connected graphs by node contraction.

Contracting a node merges it and its whole neighborhood into a single node;
how much more "agglomerated" (compact) the network becomes measures the
node's importance.  Everything is computed in exact rational arithmetic, and
the generic engine is cross-validated against analytic closed forms for
paths, comets, double comets and lollipop networks.
"""

from importlib import import_module

# Each public name and the module that defines it.  A name is imported on
# first use (PEP 562), so a command loads only the modules it runs.
_MODULE_OF = {
    **dict.fromkeys(["ImcEntry", "RankReport", "Rational", "average_path_length", "imc",
                     "imc_all", "phi"], "agglomeration"),
    **dict.fromkeys(["ContractionResult", "contract"], "contraction"),
    **dict.fromkeys(["AggloRankError", "ConnectivityError", "DegenerateOrderError",
                     "EdgeListError", "FamilyParameterError", "FormulaDomainError"], "errors"),
    **dict.fromkeys(["CometSpec", "DoubleCometSpec", "FamilySpec", "LabeledGraph",
                     "LollipopSpec", "NodeClass", "PathSpec", "class_of", "generate",
                     "read_labeled", "write_labeled"], "families"),
    **dict.fromkeys(["Graph", "bfs_distances", "degree", "distance_sum", "from_edge_list",
                     "is_connected", "parse_edge_list", "scan_class_comments",
                     "to_edge_list"], "graph"),
    **dict.fromkeys(["DEFAULT_GRIDS", "VerifyReport", "VerifyRow", "verify_family"], "verify"),
    "closed_forms": "closed_forms",
}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    return value if name == module else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
