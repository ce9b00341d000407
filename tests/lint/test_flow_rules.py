"""The project-wide flow rules: RL007, RL008, RL009.

Each rule gets true-positive fixtures (the bug class it exists for)
and false-positive fixtures (the idioms it must leave alone).  The
fixtures are real package trees analysed from disk, never imported.
"""

import ast

from repro.exec import ShardPlan, WorkUnit, execute, shard_unit
from repro.lint import lint
from repro.lint.flow import summarize_tree

FLOW_RULES = ("RL007", "RL008", "RL009")


def findings_over(root, rules=None):
    return lint([root], select=rules or FLOW_RULES)


class TestShardRaceRL007:
    def test_direct_global_write_in_a_unit(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec import shard_unit\n"
                "COUNT = 0\n"
                "@shard_unit\n"
                "def unit(x):\n"
                "    global COUNT\n"
                "    COUNT += 1\n"
                "    return COUNT\n"
            ),
        })
        found = findings_over(root, ["RL007"])
        assert [f.rule for f in found] == ["RL007"]
        assert "pkg.units.COUNT" in found[0].message

    def test_cross_module_write_through_a_helper(self, make_tree):
        # unit -> helper (another module) -> mutates a third module's dict
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/state.py": "CACHE = {}\n",
            "pkg/helpers.py": (
                "from .state import CACHE\n"
                "def record(key, value):\n"
                "    CACHE[key] = value\n"
            ),
            "pkg/units.py": (
                "from repro.exec import shard_unit\n"
                "from .helpers import record\n"
                "@shard_unit\n"
                "def unit(x):\n"
                "    record(x, x * 2)\n"
                "    return x\n"
            ),
        })
        found = findings_over(root, ["RL007"])
        assert len(found) == 1
        assert found[0].path.endswith("helpers.py")
        assert "pkg.state.CACHE" in found[0].message
        assert "reachable from pkg.units.unit" in found[0].message

    def test_mutating_method_call_on_module_list(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec import shard_unit\n"
                "RESULTS = []\n"
                "@shard_unit\n"
                "def unit(x):\n"
                "    RESULTS.append(x)\n"
                "    return x\n"
            ),
        })
        found = findings_over(root, ["RL007"])
        assert len(found) == 1
        assert "mutating call RESULTS.append()" in found[0].message

    def test_pure_units_and_local_mutation_are_clean(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec import shard_unit\n"
                "LIMIT = 16\n"
                "@shard_unit\n"
                "def unit(x):\n"
                "    acc = []\n"
                "    acc.append(x)\n"
                "    table = {}\n"
                "    table[x] = LIMIT\n"
                "    return acc, table\n"
            ),
        })
        assert findings_over(root, ["RL007"]) == []

    def test_writes_outside_the_unit_call_graph_are_clean(self, make_tree):
        # The driver may mutate module state; only unit-reachable code
        # is constrained.
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec import shard_unit\n"
                "SUMMARY = {}\n"
                "@shard_unit\n"
                "def unit(x):\n"
                "    return x\n"
                "def driver(xs):\n"
                "    SUMMARY['n'] = len(xs)\n"
                "    return [unit(x) for x in xs]\n"
            ),
        })
        assert findings_over(root, ["RL007"]) == []

    def test_whitelisted_runtime_and_obs_state_is_allowed(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec import runtime, shard_unit\n"
                "from repro.obs import OBS\n"
                "@shard_unit\n"
                "def unit(x):\n"
                "    OBS.counters.update({'pkg.unit': 1})\n"
                "    runtime.claims.append(x)\n"
                "    return x\n"
            ),
        })
        assert findings_over(root, ["RL007"]) == []


class TestIterationOrderRL008:
    def test_set_literal_and_set_typed_local(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/m.py": (
                "def f(items):\n"
                "    seen = set(items)\n"
                "    out = [x for x in seen]\n"
                "    for y in {1, 2, 3}:\n"
                "        out.append(y)\n"
                "    return out\n"
            ),
        })
        found = findings_over(root, ["RL008"])
        assert [f.line for f in found] == [3, 4]
        assert all("hash-dependent" in f.message for f in found)

    def test_unsorted_scans_direct_and_via_local(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/m.py": (
                "import os\n"
                "from pathlib import Path\n"
                "def f(root):\n"
                "    for path in Path(root).glob('*.json'):\n"
                "        yield path\n"
                "    for name in os.listdir(root):\n"
                "        yield name\n"
            ),
        })
        found = findings_over(root, ["RL008"])
        assert [f.line for f in found] == [4, 6]
        assert all("OS-dependent" in f.message for f in found)

    def test_sorted_wrapping_and_dict_iteration_are_clean(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/m.py": (
                "import os\n"
                "from pathlib import Path\n"
                "def f(root, table):\n"
                "    out = list(sorted(Path(root).glob('*.json')))\n"
                "    for name in sorted(os.listdir(root)):\n"
                "        out.append(name)\n"
                "    for key in table:\n"
                "        out.append(key)\n"
                "    seen = set(out)\n"
                "    if 'x' in seen:\n"
                "        out.append('x')\n"
                "    return out, sorted(seen)\n"
            ),
        })
        assert findings_over(root, ["RL008"]) == []

    def test_sorted_reassignment_clears_the_set_kind(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/m.py": (
                "def f(items):\n"
                "    seen = set(items)\n"
                "    seen = sorted(seen)\n"
                "    return [x for x in seen]\n"
            ),
        })
        assert findings_over(root, ["RL008"]) == []

    def test_the_bench_trajectory_scan_bug_is_caught_pre_fix(self):
        # Regression: a shipped bench_paths() once iterated an unsorted
        # glob.  Its fixed (sorted) form is inlined here; RL008 must
        # pass it and flag the pre-fix form.
        shipped = (
            "import re\n"
            "from pathlib import Path\n"
            "\n"
            "BENCH_FILE_RE = re.compile(r'^BENCH_(\\d+)\\.json$')\n"
            "\n"
            "def bench_paths(root):\n"
            "    found = []\n"
            "    for path in sorted(Path(root).glob(\"BENCH_*.json\")):\n"
            "        match = BENCH_FILE_RE.match(path.name)\n"
            "        if match:\n"
            "            found.append((int(match.group(1)), path))\n"
            "    return sorted(found)\n"
        )
        fixed = 'for path in sorted(Path(root).glob("BENCH_*.json")):'
        broken = 'for path in Path(root).glob("BENCH_*.json"):'
        assert fixed in shipped
        pre_fix = shipped.replace(fixed, broken)

        def rl008_events(source):
            summary = summarize_tree(
                ast.parse(source), "bench.py", "pkg.bench"
            )
            return [
                event
                for fn in summary.functions.values()
                for event in fn.iters
            ]

        assert rl008_events(shipped) == []
        events = rl008_events(pre_fix)
        assert len(events) == 1
        assert events[0].kind == "scan"


class TestFingerprintPurityRL009:
    def test_wall_clock_into_headline_across_functions(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/timings.py": (
                "from repro.obs.timing import wall_clock\n"
                "def stamp():\n"
                "    return wall_clock()\n"
            ),
            "pkg/report.py": (
                "from repro.obs.manifest import RunManifest\n"
                "from .timings import stamp\n"
                "def report():\n"
                "    t = stamp()\n"
                "    return RunManifest(run_id='r', parameters={},\n"
                "                       phases=[], headline={'t': t},\n"
                "                       metrics={})\n"
            ),
        })
        found = findings_over(root, ["RL009"])
        assert len(found) == 1
        assert found[0].path.endswith("report.py")
        assert "'headline'" in found[0].message

    def test_wall_clock_into_manifest_item_store(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/report.py": (
                "from repro.obs.timing import wall_clock\n"
                "def annotate(manifest):\n"
                "    start = wall_clock()\n"
                "    manifest.headline['wall'] = wall_clock() - start\n"
            ),
        })
        found = findings_over(root, ["RL009"])
        assert len(found) == 1
        assert "item store" in found[0].message

    def test_tainted_value_into_unstripped_metric(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/report.py": (
                "from repro.obs import OBS\n"
                "from repro.obs.timing import wall_clock\n"
                "def emit():\n"
                "    t = wall_clock()\n"
                "    OBS.gauge_set('attack.duration', t)\n"
            ),
        })
        found = findings_over(root, ["RL009"])
        assert len(found) == 1
        assert "'attack.duration'" in found[0].message

    def test_perf_metrics_are_no_longer_stripped(self, make_tree):
        # The fingerprint keeps every metric outside exec.*, so a
        # perf.-named metric carrying timing is a finding like any other.
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/report.py": (
                "from repro.obs import OBS\n"
                "from repro.obs.timing import wall_clock\n"
                "def emit():\n"
                "    t0 = wall_clock()\n"
                "    OBS.gauge_set('perf.wall_s', wall_clock() - t0)\n"
            ),
        })
        found = findings_over(root, ["RL009"])
        assert len(found) == 1
        assert "'perf.wall_s'" in found[0].message

    def test_stripped_destinations_are_clean(self, make_tree):
        # exec.* metrics and phases[] are fingerprint-stripped at
        # runtime, so timing may flow there freely; untainted values may
        # go anywhere.
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/report.py": (
                "from repro.obs import OBS\n"
                "from repro.obs.manifest import RunManifest\n"
                "from repro.obs.timing import wall_clock\n"
                "def report(cells):\n"
                "    t0 = wall_clock()\n"
                "    wall = wall_clock() - t0\n"
                "    OBS.histogram_record('exec.shard_wall_s', wall)\n"
                "    return RunManifest(run_id='r',\n"
                "                       parameters={'cells': cells},\n"
                "                       phases=[('run', wall)],\n"
                "                       headline={'cells': cells},\n"
                "                       metrics={})\n"
            ),
        })
        assert findings_over(root, ["RL009"]) == []

    def test_flow_insensitivity_is_conservative_about_reuse(self, make_tree):
        # Deliberate over-approximation: a local that ever held a timing
        # value is tainted everywhere in the function, even after an
        # untainted reassignment — reusing a timing variable's name for
        # fingerprinted data is exactly the pattern worth a second look.
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/report.py": (
                "from repro.obs.manifest import RunManifest\n"
                "from repro.obs.timing import wall_clock\n"
                "def report(cells):\n"
                "    t = wall_clock()\n"
                "    t = float(cells)\n"
                "    return RunManifest(run_id='r', parameters={},\n"
                "                       phases=[], headline={'t': t},\n"
                "                       metrics={})\n"
            ),
        })
        found = findings_over(root, ["RL009"])
        assert len(found) == 1
        assert "tainted local 't'" in found[0].message

    def test_taint_stays_inside_the_function_that_holds_it(self, make_tree):
        # A tainted local in one function must not leak into a sibling
        # function that never receives it.
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/report.py": (
                "from repro.obs.manifest import RunManifest\n"
                "from repro.obs.timing import wall_clock\n"
                "def measure():\n"
                "    t = wall_clock()\n"
                "    return None\n"
                "def report(cells):\n"
                "    t = float(cells)\n"
                "    return RunManifest(run_id='r', parameters={},\n"
                "                       phases=[], headline={'t': t},\n"
                "                       metrics={})\n"
            ),
        })
        assert findings_over(root, ["RL009"]) == []


SHARED_TOTALS: list[int] = []


@shard_unit
def _impure_unit(x: int) -> int:
    # Deliberately broken: accumulates into module state, making the
    # unit's result depend on every unit that ran before it in the same
    # process.
    SHARED_TOTALS.append(x)
    return sum(SHARED_TOTALS)


class TestRL007GuardsTheJobsEquivalenceContract:
    """RL007 must catch statically what the runtime tests catch by
    running: a shard unit whose output depends on shared state."""

    def test_the_runtime_symptom_process_order_leaks_into_results(self):
        SHARED_TOTALS.clear()
        plan = ShardPlan([
            WorkUnit(index=i, fn=_impure_unit, args=(i + 1,),
                     label=f"impure[{i}]")
            for i in range(4)
        ])
        first = execute(plan, jobs=1)
        second = execute(plan, jobs=1)
        # The exact jobs-equivalence failure mode: re-running the same
        # plan in one process gives different results because state
        # leaked across units.
        assert first != second
        SHARED_TOTALS.clear()

    def test_rl007_flags_the_same_unit_statically(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": "",
            "pkg/units.py": (
                "from repro.exec import ShardPlan, WorkUnit, shard_unit\n"
                "SHARED_TOTALS = []\n"
                "@shard_unit\n"
                "def impure_unit(x):\n"
                "    SHARED_TOTALS.append(x)\n"
                "    return sum(SHARED_TOTALS)\n"
                "def plan():\n"
                "    return ShardPlan([\n"
                "        WorkUnit(index=i, fn=impure_unit, args=(i + 1,))\n"
                "        for i in range(4)\n"
                "    ])\n"
            ),
        })
        found = findings_over(root, ["RL007"])
        assert len(found) == 1
        assert "pkg.units.SHARED_TOTALS" in found[0].message
        assert "diverge" in found[0].message

