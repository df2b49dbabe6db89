"""XQuery front end, plans, rewrite, and execution engines (S10-S14)."""

from .ast import render
from .database import Database, QueryResult
from .interpreter import Interpreter
from .logical_exec import LogicalExecutor
from .parser import parse_query
from .physical import PhysicalExecutor
from .plan import PlanNode, StitchSpec
from .rewrite import detect, rewrite
from .template import OutputTemplate, TemplateLeaf
from .translate import GroupingQuery, naive_plan, recognize, translate

__all__ = [
    "render",
    "Database",
    "QueryResult",
    "Interpreter",
    "LogicalExecutor",
    "parse_query",
    "PhysicalExecutor",
    "OutputTemplate",
    "PlanNode",
    "StitchSpec",
    "TemplateLeaf",
    "detect",
    "rewrite",
    "GroupingQuery",
    "naive_plan",
    "recognize",
    "translate",
]
