"""Compiler: query text → AST → naive plan → rewritten plan."""

from repro.compiler.pipeline import CompiledQuery, PlanCache, compile_query

__all__ = ["CompiledQuery", "PlanCache", "compile_query"]
