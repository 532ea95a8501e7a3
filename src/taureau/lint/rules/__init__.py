"""The taurlint rule catalogue.

Every rule encodes one clause of taureau's determinism contract (or a
Python hygiene trap that has bitten simulation code).  ``all_rules()``
returns one fresh instance of each, sorted by code — the order findings
are reported in is therefore stable.

=======  ==========================  ==================================
Code     Name                        Contract clause
=======  ==========================  ==================================
TAU001   wall-clock-read             virtual time only (sim.now)
TAU002   global-random               randomness via sim.rng streams
TAU003   unordered-scheduling        no set iteration into the heap
TAU004   handler-real-io             handlers charge simulated I/O
TAU005   trace-span-not-with         trace_span is a context manager
TAU006   metric-name-grammar         ns.metric / {label="v"} naming
TAU007   float-equality              no == on non-integral floats
TAU008   mutable-default-arg         shared-state trap
TAU009   bare-except                 never swallow sim errors blind
TAU010   unseeded-rng                every RNG takes an explicit seed
TAU011   real-sleep                  time.sleep blocks the real clock
TAU012   unordered-materialize       list(set(...)) leaks hash order
TAU013   env-dependence              behaviour must not read os.environ
TAU014   fs-order                    sort directory listings
TAU015   builtin-hash-order          hash() varies with PYTHONHASHSEED
TAU016   print-in-library            report via metrics/traces
TAU017   swallowed-fault             injected faults must propagate
TAU018   process-global-counter      ids come from sim.ids(kind)
=======  ==========================  ==================================
"""

from __future__ import annotations

import typing

from taureau.lint.engine import Rule
from taureau.lint.rules.chaos import SwallowedFaultRule
from taureau.lint.rules.clock import RealSleepRule, WallClockRule
from taureau.lint.rules.hygiene import (
    BareExceptRule,
    FloatEqualityRule,
    MutableDefaultRule,
)
from taureau.lint.rules.obs import MetricNameRule, TraceSpanRule
from taureau.lint.rules.ordering import (
    BuiltinHashRule,
    EnvDependenceRule,
    FsOrderRule,
    UnorderedMaterializeRule,
    UnorderedSchedulingRule,
)
from taureau.lint.rules.randomness import (
    GlobalRandomRule,
    PrintInLibraryRule,
    ProcessGlobalCounterRule,
    RealIoInHandlerRule,
    UnseededRngRule,
)

__all__ = ["all_rules", "rule_index"]

_RULE_CLASSES = (
    WallClockRule,
    GlobalRandomRule,
    UnorderedSchedulingRule,
    RealIoInHandlerRule,
    TraceSpanRule,
    MetricNameRule,
    FloatEqualityRule,
    MutableDefaultRule,
    BareExceptRule,
    UnseededRngRule,
    RealSleepRule,
    UnorderedMaterializeRule,
    EnvDependenceRule,
    FsOrderRule,
    BuiltinHashRule,
    PrintInLibraryRule,
    SwallowedFaultRule,
    ProcessGlobalCounterRule,
)


def all_rules() -> typing.List[Rule]:
    """One fresh instance of every registered rule, sorted by code."""
    return sorted((cls() for cls in _RULE_CLASSES), key=lambda rule: rule.code)


def rule_index() -> typing.Dict[str, Rule]:
    return {rule.code: rule for rule in all_rules()}
