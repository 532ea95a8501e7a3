"""Per-rule fixtures: every taurlint rule fires on its bad snippet and
stays silent on the corresponding good one.

The fixtures are the executable rule catalogue — if a rule's detection
logic regresses, the bad snippet stops failing and this file fails.
"""

import pytest

from taureau.lint import LintEngine, all_rules

SRC = "src/taureau/example.py"


def lint(source, path=SRC, rules=None):
    engine = LintEngine(rules if rules is not None else all_rules())
    report = engine.lint_source(source, path=path)
    assert not report.parse_errors, report.parse_errors
    return report.findings


def codes(source, path=SRC):
    return [finding.rule for finding in lint(source, path=path)]


def test_catalogue_has_at_least_fifteen_rules():
    rules = all_rules()
    assert len(rules) >= 15
    assert len({rule.code for rule in rules}) == len(rules)
    assert [rule.code for rule in rules] == sorted(rule.code for rule in rules)


# ----------------------------------------------------------------------
# TAU001 wall-clock-read / TAU011 real-sleep
# ----------------------------------------------------------------------

def test_tau001_flags_wall_clock_reads():
    assert "TAU001" in codes("import time\nstart = time.time()\n")
    assert "TAU001" in codes("import time\nstart = time.perf_counter()\n")
    assert "TAU001" in codes(
        "from datetime import datetime\nnow = datetime.now()\n"
    )


def test_tau001_resolves_aliases():
    assert "TAU001" in codes("import time as t\nstart = t.time()\n")
    assert "TAU001" in codes(
        "from time import perf_counter\nstart = perf_counter()\n"
    )


def test_tau001_allows_benchmarks_and_sim_now():
    source = "import time\nstart = time.time()\n"
    assert codes(source, path="benchmarks/bench_example.py") == []
    assert codes("now = sim.now\n") == []


def test_tau011_flags_real_sleep():
    assert "TAU011" in codes("import time\ntime.sleep(0.1)\n")
    assert codes("sim.timeout(0.1)\n") == []


# ----------------------------------------------------------------------
# TAU002 global-random / TAU010 unseeded-rng
# ----------------------------------------------------------------------

def test_tau002_flags_module_global_randomness():
    assert "TAU002" in codes("import random\nx = random.random()\n")
    assert "TAU002" in codes("import random\nrandom.shuffle(items)\n")
    assert "TAU002" in codes("import uuid\nrequest_id = str(uuid.uuid4())\n")
    assert "TAU002" in codes("import os\ntoken = os.urandom(8)\n")
    assert "TAU002" in codes("import secrets\nt = secrets.token_hex()\n")


def test_tau002_allows_seeded_streams_and_test_code():
    assert codes("rng = sim.rng.stream('edge')\nx = rng.random()\n") == []
    # The rule is scoped to src/ and scripts/; tests may use random freely.
    assert codes("import random\nrandom.random()\n", path="tests/test_x.py") == []


def test_tau010_flags_unseeded_constructors():
    assert "TAU010" in codes("import random\nrng = random.Random()\n")
    assert "TAU010" in codes(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )
    assert "TAU010" in codes("import random\nrng = random.SystemRandom(1)\n")


def test_tau010_allows_seeded_constructors():
    assert codes("import random\nrng = random.Random(7)\n") == []
    assert codes(
        "import numpy as np\nrng = np.random.default_rng(seed)\n"
    ) == []


# ----------------------------------------------------------------------
# TAU003 unordered-scheduling / TAU012 unordered-materialize
# ----------------------------------------------------------------------

def test_tau003_flags_set_iteration_into_the_heap():
    bad = (
        "def fan_out(sim, pending):\n"
        "    for item in set(pending):\n"
        "        sim.schedule_after(1.0, handle, item)\n"
    )
    assert "TAU003" in codes(bad)
    literal = (
        "for name in {'a', 'b'}:\n"
        "    platform.invoke(name)\n"
    )
    assert "TAU003" in codes(literal)
    get_default = (
        "def sweep(self, machine):\n"
        "    for sandbox in list(self._on.get(machine, set())):\n"
        "        self._dispatch(sandbox)\n"
    )
    assert "TAU003" in codes(get_default)


def test_tau003_allows_sorted_iteration_and_pure_loops():
    good = (
        "def fan_out(sim, pending):\n"
        "    for item in sorted(set(pending)):\n"
        "        sim.schedule_after(1.0, handle, item)\n"
    )
    assert codes(good) == []
    # Set iteration that never touches the event heap is fine.
    assert codes("total = 0\nfor x in {1, 2}:\n    total += x\n") == []


def test_tau012_flags_materialized_set_order():
    assert "TAU012" in codes("order = list({3, 1, 2})\n")
    assert "TAU012" in codes("order = list(set(items))\n")
    assert codes("order = sorted({3, 1, 2})\n") == []
    assert codes("order = sorted(list(set(items)))\n") == []


# ----------------------------------------------------------------------
# TAU004 handler-real-io
# ----------------------------------------------------------------------

def test_tau004_flags_real_io_in_handlers():
    bad_open = (
        "def handler(event, ctx):\n"
        "    with open('data.json') as f:\n"
        "        return f.read()\n"
    )
    assert "TAU004" in codes(bad_open)
    bad_http = (
        "import requests\n"
        "def handler(event, ctx):\n"
        "    return requests.get(event['url'])\n"
    )
    assert "TAU004" in codes(bad_http)


def test_tau004_only_applies_to_handlers():
    assert codes("def loader(path):\n    return open(path).read()\n") == []
    good = (
        "def handler(event, ctx):\n"
        "    ctx.charge_io(0.01, 'blob.get')\n"
        "    return ctx.service('blob').get(event)\n"
    )
    assert codes(good) == []


def test_tau004_detects_decorated_handlers():
    bad = (
        "@app.function('etl')\n"
        "def etl(event, context):\n"
        "    import subprocess\n"
        "    subprocess.run(['transform'])\n"
    )
    assert "TAU004" in codes(bad)


# ----------------------------------------------------------------------
# TAU005 trace-span-not-with
# ----------------------------------------------------------------------

def test_tau005_flags_bare_trace_span_calls():
    assert "TAU005" in codes(
        "def handler(event, ctx):\n    ctx.trace_span('phase')\n"
    )
    assert "TAU005" in codes(
        "def handler(event, ctx):\n    span = ctx.trace_span('phase')\n"
    )


def test_tau005_allows_context_manager_use():
    good = (
        "def handler(event, ctx):\n"
        "    with ctx.trace_span('phase'):\n"
        "        ctx.charge(0.01)\n"
    )
    assert codes(good) == []
    stack = (
        "def handler(event, ctx):\n"
        "    span = stack.enter_context(ctx.trace_span('phase'))\n"
    )
    assert codes(stack) == []


# ----------------------------------------------------------------------
# TAU006 metric-name-grammar
# ----------------------------------------------------------------------

def test_tau006_flags_bad_metric_names():
    assert "TAU006" in codes("registry.counter('Bad-Name').add()\n")
    assert "TAU006" in codes("registry.histogram('latency..s')\n")
    assert "TAU006" in codes(
        "registry.labeled_counter('ok_by', ('Function',))\n"
    )
    assert "TAU006" in codes("registry.find('faas.x{bad')\n")


def test_tau006_allows_grammar_conformant_names():
    good = (
        "registry.counter('faas.invocations').add()\n"
        "registry.labeled_counter('invocations_by', ('function', 'outcome'))\n"
        "registry.series('billing.gb_s')\n"
        "registry.find('faas.invocations_by{function=\"api\",outcome=\"ok\"}')\n"
    )
    assert codes(good) == []
    # Non-literal names cannot be checked statically.
    assert codes("registry.counter(f'billing.{name}')\n") == []


# ----------------------------------------------------------------------
# TAU007 float-equality / TAU008 mutable defaults / TAU009 bare except
# ----------------------------------------------------------------------

def test_tau007_flags_fragile_float_equality():
    assert "TAU007" in codes("if accrued == 0.3:\n    pass\n")
    assert "TAU007" in codes("ready = elapsed != 0.1\n")


def test_tau007_allows_integral_sentinels_and_test_code():
    assert codes("if used_mb == 0.0:\n    pass\n") == []
    assert codes("if q == 100.0:\n    pass\n") == []
    assert codes("if x == 0.3:\n    pass\n", path="tests/test_x.py") == []


def test_tau008_flags_mutable_defaults():
    assert "TAU008" in codes("def f(items=[]):\n    return items\n")
    assert "TAU008" in codes("def f(cache={}):\n    return cache\n")
    assert "TAU008" in codes("def f(*, seen=set()):\n    return seen\n")
    assert codes("def f(items=None):\n    return items or []\n") == []


def test_tau009_flags_bare_except():
    bad = "try:\n    step()\nexcept:\n    pass\n"
    assert "TAU009" in codes(bad)
    good = "try:\n    step()\nexcept ValueError:\n    pass\n"
    assert codes(good) == []


# ----------------------------------------------------------------------
# TAU013 env-dependence / TAU014 fs-order / TAU015 hash / TAU016 print
# ----------------------------------------------------------------------

def test_tau013_flags_environment_reads():
    assert "TAU013" in codes("import os\nlevel = os.getenv('LEVEL')\n")
    assert "TAU013" in codes("import os\nlevel = os.environ['LEVEL']\n")
    assert codes("import os\nos.getenv('X')\n", path="tests/test_x.py") == []


def test_tau014_flags_unsorted_listings():
    assert "TAU014" in codes("import os\nnames = os.listdir(path)\n")
    assert "TAU014" in codes("import glob\nnames = glob.glob('*.py')\n")
    assert codes("import os\nnames = sorted(os.listdir(path))\n") == []


def test_tau015_flags_builtin_hash():
    assert "TAU015" in codes("bucket = hash(key) % shards\n")
    assert codes(
        "import hashlib\nbucket = int(hashlib.blake2b(key).hexdigest(), 16)\n"
    ) == []


def test_tau016_flags_print_in_library_only():
    assert "TAU016" in codes("print('debug')\n")
    assert codes("print('progress')\n", path="scripts/smoke.py") == []
    assert codes("print('progress')\n", path="benchmarks/bench_x.py") == []


# ----------------------------------------------------------------------
# TAU017 swallowed-fault
# ----------------------------------------------------------------------

def test_tau017_flags_swallowed_fault_injected():
    bad = (
        "from taureau.chaos import FaultInjected\n"
        "try:\n"
        "    client.put(key, value)\n"
        "except FaultInjected:\n"
        "    pass\n"
    )
    assert "TAU017" in codes(bad)


def test_tau017_flags_broad_swallow_in_fault_handling_file():
    bad = (
        "from taureau.chaos import FaultInjected\n"
        "try:\n"
        "    raise FaultInjected('boom')\n"
        "except Exception:\n"
        "    pass\n"
    )
    assert "TAU017" in codes(bad)


def test_tau017_allows_reraise_and_real_handlers():
    reraised = (
        "from taureau.chaos import FaultInjected\n"
        "try:\n"
        "    client.put(key, value)\n"
        "except FaultInjected:\n"
        "    metrics.counter('faults_seen').add()\n"
        "    raise\n"
    )
    assert codes(reraised) == []
    # A broad except that does real recovery work is out of scope.
    recovering = (
        "from taureau.chaos import FaultInjected\n"
        "try:\n"
        "    step()\n"
        "except Exception:\n"
        "    consumer.nack(message)\n"
    )
    assert codes(recovering) == []
    # Broad swallow in a file with no fault handling is TAU009's turf.
    assert codes("try:\n    step()\nexcept Exception:\n    pass\n") == []
    # Tests asserting on FaultInjected may catch it freely.
    bad_in_tests = (
        "from taureau.chaos import FaultInjected\n"
        "try:\n"
        "    client.put(key, value)\n"
        "except FaultInjected:\n"
        "    pass\n"
    )
    assert codes(bad_in_tests, path="tests/test_x.py") == []


# ----------------------------------------------------------------------
# TAU018 process-global-counter
# ----------------------------------------------------------------------

def test_tau018_flags_module_and_class_level_counters():
    assert "TAU018" in codes("import itertools\n_ids = itertools.count()\n")
    assert "TAU018" in codes("from itertools import count\n_ids = count(1)\n")
    in_class = (
        "import itertools\n"
        "class Job:\n"
        "    _ids = itertools.count()\n"
    )
    assert "TAU018" in codes(in_class)
    # A default argument is evaluated once, at definition time.
    default = (
        "import itertools\n"
        "def mint(ids=itertools.count()):\n"
        "    return next(ids)\n"
    )
    assert "TAU018" in codes(default)


def test_tau018_allows_per_instance_counters_and_sim_ids():
    per_instance = (
        "import itertools\n"
        "class Tracer:\n"
        "    def __init__(self):\n"
        "        self._span_ids = itertools.count()\n"
    )
    assert codes(per_instance) == []
    assert codes("job_id = f'mr{next(sim.ids(\"mr\"))}'\n") == []
    assert codes("import itertools\nfresh = lambda: itertools.count()\n") == []
    # Tests may keep a module-level counter.
    module_level = "import itertools\n_ids = itertools.count()\n"
    assert codes(module_level, path="tests/test_x.py") == []


# ----------------------------------------------------------------------
# Every rule has a failing fixture (the acceptance-criteria sweep)
# ----------------------------------------------------------------------

BAD_FIXTURES = {
    "TAU001": ("import time\nt = time.time()\n", SRC),
    "TAU002": ("import random\nx = random.random()\n", SRC),
    "TAU003": (
        "for item in set(work):\n    sim.schedule_after(1.0, run, item)\n",
        SRC,
    ),
    "TAU004": ("def handler(event, ctx):\n    open('x')\n", SRC),
    "TAU005": ("def handler(event, ctx):\n    ctx.trace_span('p')\n", SRC),
    "TAU006": ("registry.counter('Bad Name')\n", SRC),
    "TAU007": ("ok = x == 0.3\n", SRC),
    "TAU008": ("def f(xs=[]):\n    pass\n", SRC),
    "TAU009": ("try:\n    pass\nexcept:\n    pass\n", SRC),
    "TAU010": ("import random\nr = random.Random()\n", SRC),
    "TAU011": ("import time\ntime.sleep(1)\n", SRC),
    "TAU012": ("xs = list({1, 2})\n", SRC),
    "TAU013": ("import os\nv = os.getenv('V')\n", SRC),
    "TAU014": ("import os\nxs = os.listdir('.')\n", SRC),
    "TAU015": ("h = hash(key)\n", SRC),
    "TAU016": ("print('x')\n", SRC),
    "TAU017": (
        "from taureau.chaos import FaultInjected\n"
        "try:\n    op()\nexcept FaultInjected:\n    pass\n",
        SRC,
    ),
    "TAU018": ("import itertools\n_ids = itertools.count()\n", SRC),
}


@pytest.mark.parametrize("code", sorted(BAD_FIXTURES))
def test_every_rule_has_a_firing_fixture(code):
    source, path = BAD_FIXTURES[code]
    assert code in codes(source, path=path)


def test_fixture_table_covers_the_whole_catalogue():
    assert sorted(BAD_FIXTURES) == [rule.code for rule in all_rules()]
