"""XML data model substrate: ordered labelled trees, parsing, serialization.

This package is S1 of DESIGN.md — the tree data model the whole TIMBER
reproduction stands on.
"""

from .diff import Difference, assert_collections_equal, diff_collections, first_difference
from .node import XMLNode, element
from .parse import parse_document, parse_file
from .serialize import serialize, serialize_collection, write_file
from .table import ResultTable
from .tree import Collection, DataTree

__all__ = [
    "Difference",
    "assert_collections_equal",
    "diff_collections",
    "first_difference",
    "XMLNode",
    "element",
    "parse_document",
    "parse_file",
    "serialize",
    "serialize_collection",
    "write_file",
    "Collection",
    "DataTree",
    "ResultTable",
]
