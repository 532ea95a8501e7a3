"""taureau.lint.flow — whole-program (interprocedural) determinism lint.

Layer 3 of the static-analysis stack.  Where :mod:`taureau.lint`
checks one file at a time, this package builds a project index and a
call graph, propagates nondeterminism *taint* along it, and flags
scheduled callbacks / FaaS handlers that reach the host clock,
unseeded randomness, or the process environment through any call
chain (TAU101–TAU106).  An incremental blake2b-keyed cache makes the
warm path fast enough to run on every edit.

Public surface:

- :class:`FlowAnalysis` / :class:`FlowResult` — the driver
  (``python -m taureau.lint --flow`` uses it; tests call
  ``run_sources`` with in-memory modules);
- :class:`HandlerAuditor` — wiring-time audit of live handler
  callables (``Platform.with_audit()`` / ``Platform.audit()``);
- :func:`all_flow_rules` / :func:`flow_rule_index` — the TAU1xx
  catalogue for ``--list-rules`` / ``--explain``;
- :func:`summarize_source` / :class:`ModuleSummary` — the indexing
  primitive, for tools building on the project index.
"""

from taureau.lint.flow.audit import AuditError, AuditFinding, HandlerAuditor
from taureau.lint.flow.cache import CACHE_VERSION, FlowCache
from taureau.lint.flow.graph import ProjectGraph, emit_findings, propagate
from taureau.lint.flow.index import (
    CallSite,
    FunctionInfo,
    ModuleSummary,
    module_name_for,
    source_key,
    summarize_source,
)
from taureau.lint.flow.rules import FlowRuleInfo, all_flow_rules, flow_rule_index
from taureau.lint.flow.runner import FlowAnalysis, FlowResult

__all__ = [
    "AuditError",
    "AuditFinding",
    "CACHE_VERSION",
    "CallSite",
    "FlowAnalysis",
    "FlowCache",
    "FlowResult",
    "FlowRuleInfo",
    "FunctionInfo",
    "HandlerAuditor",
    "ModuleSummary",
    "ProjectGraph",
    "all_flow_rules",
    "emit_findings",
    "flow_rule_index",
    "module_name_for",
    "propagate",
    "source_key",
    "summarize_source",
]
