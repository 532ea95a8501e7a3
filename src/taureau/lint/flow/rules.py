"""The TAU1xx whole-program rule catalogue.

Flow rules are *descriptors*, not :class:`~taureau.lint.engine.Rule`
subclasses: they cannot check one file at a time, so they carry no
``check()`` — the :mod:`taureau.lint.flow.graph` stage emits their
findings after propagating facts across the call graph.  The catalogue
feeds ``--list-rules``, ``--explain``, and the CLI's known-code
validation.

=======  =========================  =====================================
Code     Name                       What escapes per-file analysis
=======  =========================  =====================================
TAU101   flow-wall-clock            scheduled code transitively reads the
                                    host clock through helper calls or
                                    ``name = time.time`` aliases
TAU102   flow-unseeded-random       scheduled code transitively reaches
                                    process-global / unseeded randomness
TAU103   flow-env-read              scheduled code transitively reads the
                                    process environment
TAU104   flow-unordered-schedule    a loop over a set calls a helper that
                                    (transitively) schedules events
TAU105   flow-shared-capture        a handler mutates state captured from
                                    module scope or an enclosing closure
TAU106   flow-daemon-blocking       a ``sim.every`` tick stalls the clock
                                    or schedules foreground work
=======  =========================  =====================================
"""

from __future__ import annotations

import dataclasses
import typing

__all__ = [
    "FlowRuleInfo",
    "all_flow_rules",
    "flow_rule_index",
    "ENV_SOURCES",
    "RANDOM_SOURCES",
    "UNSEEDED_CONSTRUCTORS",
    "WALL_CLOCK_SOURCES",
    "SOURCE_SUPPRESSION_CODES",
    "TAINT_RULES",
]


@dataclasses.dataclass(frozen=True)
class FlowRuleInfo:
    """One whole-program rule: identity and documentation only."""

    code: str
    name: str
    summary: str
    explain: str
    #: path prefixes the rule never fires under (mirrors the per-file
    #: cousins' scoping: benchmarks measure the host on purpose).
    default_excludes: typing.Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        return not any(path.startswith(p) for p in self.default_excludes)


_FLOW_RULES = (
    FlowRuleInfo(
        code="TAU101",
        name="flow-wall-clock",
        summary="Scheduled code reaches the host clock through a call chain.",
        explain=(
            "Interprocedural companion to TAU001.  A callback handed to "
            "schedule_at/schedule_after/schedule_many (or a registered "
            "handler) that transitively calls time.time(), "
            "datetime.now(), etc. — including through module aliases "
            "like `_now = time.time` that per-file resolution cannot "
            "see — couples the trace to the host machine.  The finding "
            "prints the full call chain to the clock read."
        ),
        default_excludes=("benchmarks/",),
    ),
    FlowRuleInfo(
        code="TAU102",
        name="flow-unseeded-random",
        summary="Scheduled code reaches unseeded randomness through a call chain.",
        explain=(
            "Interprocedural companion to TAU002/TAU010.  Scheduled "
            "callbacks and handlers must draw randomness from "
            "sim.rng.stream(name); a helper chain ending in "
            "random.random(), uuid.uuid4(), secrets.*, or a no-seed "
            "random.Random()/numpy default_rng() makes every run "
            "different while each run still looks valid."
        ),
    ),
    FlowRuleInfo(
        code="TAU103",
        name="flow-env-read",
        summary="Scheduled code reaches os.environ through a call chain.",
        explain=(
            "Interprocedural companion to TAU013.  Configuration read "
            "from the process environment inside simulation-ordered "
            "code couples behaviour to the host; take configuration as "
            "explicit parameters at build time instead."
        ),
    ),
    FlowRuleInfo(
        code="TAU104",
        name="flow-unordered-schedule",
        summary="A set-iteration loop calls a helper that schedules events.",
        explain=(
            "Interprocedural companion to TAU003.  TAU003 flags a loop "
            "over a set that schedules directly; this rule follows the "
            "call graph, so a loop body that calls dispatch(item) — "
            "where dispatch() (transitively) reaches schedule_after or "
            "invoke — is flagged too, with the chain printed.  Iterate "
            "sorted(...) or an insertion-ordered dict."
        ),
    ),
    FlowRuleInfo(
        code="TAU105",
        name="flow-shared-capture",
        summary="A handler mutates state captured from module or closure scope.",
        explain=(
            "Static companion to the runtime race sanitizer's "
            "shared-state check.  A FaaS handler that appends to a "
            "module-global list, writes a captured dict, or rebinds a "
            "`global` shares hidden state across sandboxes — the "
            "dominant FaaS correctness hazard.  The sanitizer only "
            "catches it when two sandboxes race on the object at "
            "runtime; this flags the capture at lint/wiring time.  "
            "Keep state in the simulated stores (ctx.service)."
        ),
        # Capturing a list/dict to observe handler invocations is the
        # canonical *test* idiom — the capture is the assertion surface.
        default_excludes=("tests/",),
    ),
    FlowRuleInfo(
        code="TAU106",
        name="flow-daemon-blocking",
        summary="A sim.every tick stalls the clock or schedules foreground work.",
        explain=(
            "Housekeeping loops (Monitor, ControlLoop, RunRecorder) "
            "register their tick with sim.every, and the kernel calls "
            "it again only while foreground work remains, so an idle "
            "loop never keeps sim.run() alive.  A registered tick that "
            "contains an unbounded `while True` stalls the virtual "
            "clock, and one that calls schedule_at, schedule_after or "
            "schedule_many adds foreground work on every tick, so the "
            "kernel re-arms it forever."
        ),
    ),
)


def all_flow_rules() -> typing.Tuple[FlowRuleInfo, ...]:
    return _FLOW_RULES


def flow_rule_index() -> typing.Dict[str, FlowRuleInfo]:
    return {rule.code: rule for rule in _FLOW_RULES}


# ----------------------------------------------------------------------
# Taint sources (shared with the per-file cousins where they exist)
# ----------------------------------------------------------------------

from taureau.lint.rules.clock import _WALL_CLOCK_CALLS  # noqa: E402
from taureau.lint.rules.randomness import (  # noqa: E402
    _ENTROPY_CALLS,
    _RANDOM_GLOBALS,
)

WALL_CLOCK_SOURCES = frozenset(_WALL_CLOCK_CALLS)
RANDOM_SOURCES = frozenset(_RANDOM_GLOBALS) | frozenset(_ENTROPY_CALLS) | frozenset(
    {"random.SystemRandom"}
)
ENV_SOURCES = frozenset({"os.getenv", "os.environ", "os.environb", "os.getenvb"})
#: RNG constructors that are a source only when called with no arguments.
UNSEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
    }
)

#: kind → flow rule code for the propagated taints.
TAINT_RULES = {
    "wall-clock": "TAU101",
    "random": "TAU102",
    "env": "TAU103",
}

#: kind → rule codes whose suppression on the *source* line sanctions it.
#: (A justified `# taurlint: disable=TAU001` also clears the source for
#: the whole-program pass — the suppression expresses intent once.)
SOURCE_SUPPRESSION_CODES = {
    "wall-clock": ("TAU001", "TAU101"),
    "random": ("TAU002", "TAU010", "TAU102"),
    "env": ("TAU013", "TAU103"),
}
