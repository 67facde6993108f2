"""Linter rule tests: each rule against good and violating fixtures.

The fixtures are written into tmp_path so path-scoped rules (LHT001/2
apply only inside ``sim``/``dht``/``core`` directories) can be exercised
both in and out of scope.  This module covers the per-file and
class-shape rules, the driver, and the one-pass guarantees; the
call-graph rules of the same pass live in ``tests/test_devtools_flow.py``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.devtools.lint import LINT_RULES, lint_paths, lint_source, main

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def codes(violations) -> list[str]:
    return [v.code for v in violations]


def lint_at(source: str, relpath: str, tmp_path: Path) -> list[str]:
    """Lint a snippet as if it lived at ``relpath`` inside a package."""
    file = tmp_path / relpath
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(source)
    return codes(lint_paths([file]))


class TestWallClockRule:
    def test_time_time_flagged_in_sim(self, tmp_path):
        src = "import time\n\ndef now():\n    return time.time()\n"
        assert lint_at(src, "sim/clock2.py", tmp_path) == ["LHT001"]

    def test_aliased_import_still_flagged(self, tmp_path):
        src = "from time import time as wall\n\ndef f():\n    return wall()\n"
        assert lint_at(src, "core/util.py", tmp_path) == ["LHT001"]

    def test_datetime_now_flagged(self, tmp_path):
        src = (
            "from datetime import datetime\n\n"
            "def stamp():\n    return datetime.now()\n"
        )
        assert lint_at(src, "dht/stamp.py", tmp_path) == ["LHT001"]

    def test_wall_clock_allowed_outside_deterministic_packages(self, tmp_path):
        src = "import time\n\ndef now():\n    return time.time()\n"
        assert lint_at(src, "experiments/timing.py", tmp_path) == []

    def test_cache_and_baselines_are_deterministic_packages(self, tmp_path):
        # They perform routed operations whose counts feed figures, so
        # they carry the same hermeticity contract as the core.
        src = "import time\n\ndef now():\n    return time.time()\n"
        assert lint_at(src, "cache/warm.py", tmp_path) == ["LHT001"]
        assert lint_at(src, "baselines/probe.py", tmp_path) == ["LHT001"]

    def test_simulated_clock_is_clean(self, tmp_path):
        src = (
            "class Clock:\n"
            "    def __init__(self):\n        self.now = 0.0\n"
            "    def advance_to(self, t):\n        self.now = t\n"
        )
        assert lint_at(src, "sim/clock2.py", tmp_path) == []


class TestGlobalRandomnessRule:
    def test_stdlib_random_call_flagged(self, tmp_path):
        src = "import random\n\ndef draw():\n    return random.random()\n"
        assert lint_at(src, "sim/draws.py", tmp_path) == ["LHT002"]

    def test_from_random_import_flagged(self, tmp_path):
        src = "from random import randint\n"
        assert lint_at(src, "core/pick.py", tmp_path) == ["LHT002"]

    def test_numpy_global_state_flagged(self, tmp_path):
        src = "import numpy as np\n\ndef draw():\n    return np.random.rand(3)\n"
        assert lint_at(src, "dht/jitter.py", tmp_path) == ["LHT002"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        src = (
            "import numpy as np\n\n"
            "def make():\n    return np.random.default_rng()\n"
        )
        assert lint_at(src, "sim/gen.py", tmp_path) == ["LHT002"]

    def test_seeded_default_rng_is_clean(self, tmp_path):
        src = (
            "import numpy as np\n\n"
            "def make(seed):\n    return np.random.default_rng(seed)\n"
        )
        assert lint_at(src, "sim/gen.py", tmp_path) == []

    def test_randomness_allowed_outside_deterministic_packages(self, tmp_path):
        src = "import random\n\ndef draw():\n    return random.random()\n"
        assert lint_at(src, "scripts/demo.py", tmp_path) == []

    def test_global_randomness_flagged_in_baselines(self, tmp_path):
        src = "import numpy as np\n\ndef draw():\n    return np.random.rand()\n"
        assert lint_at(src, "baselines/noise.py", tmp_path) == ["LHT002"]


class TestBareAssertRule:
    def test_assert_flagged_in_library_code(self, tmp_path):
        src = "def check(x):\n    assert x > 0\n    return x\n"
        assert lint_at(src, "workloads/check.py", tmp_path) == ["LHT003"]

    def test_assert_allowed_in_tests(self, tmp_path):
        src = "def test_x():\n    assert 1 + 1 == 2\n"
        assert lint_at(src, "tests/test_x.py", tmp_path) == []
        assert lint_at(src, "pkg/test_y.py", tmp_path) == []


class TestMutableDefaultRule:
    def test_list_default_flagged(self, tmp_path):
        src = "def f(items=[]):\n    return items\n"
        assert lint_at(src, "pkg/mod.py", tmp_path) == ["LHT004"]

    def test_dict_call_default_flagged(self, tmp_path):
        src = "def f(table=dict()):\n    return table\n"
        assert lint_at(src, "pkg/mod.py", tmp_path) == ["LHT004"]

    def test_kwonly_set_default_flagged(self, tmp_path):
        src = "def f(*, seen=set()):\n    return seen\n"
        assert lint_at(src, "pkg/mod.py", tmp_path) == ["LHT004"]

    def test_none_default_is_clean(self, tmp_path):
        src = "def f(items=None):\n    return items or []\n"
        assert lint_at(src, "pkg/mod.py", tmp_path) == []


BASE_SRC = """\
import abc

class DHT(abc.ABC):
    @abc.abstractmethod
    def put(self, key, value): ...

    @abc.abstractmethod
    def get(self, key): ...

    @property
    @abc.abstractmethod
    def n_peers(self): ...
"""

GOOD_SUBSTRATE = """\
from base import DHT

class GoodDHT(DHT):
    def put(self, key, value): ...
    def get(self, key): ...
    @property
    def n_peers(self): return 1
"""

INDIRECT_SUBSTRATE = """\
from good import GoodDHT

class WrapperDHT(GoodDHT):
    def extra(self): ...
"""


class TestSubstrateInterfaceRule:
    """LHT005 is gone — ``abc`` refuses to instantiate a ``DHT`` that
    misses an abstract method — so a plain ``DHT`` subclass is no
    rule's business: not a kernel substrate (LHT006), not enrollable
    (LHT012)."""

    def _write_pkg(self, tmp_path, **files: str) -> Path:
        pkg = tmp_path / "dht"
        pkg.mkdir()
        (pkg / "base.py").write_text(BASE_SRC)
        for name, src in files.items():
            (pkg / f"{name}.py").write_text(src)
        return pkg

    def test_complete_substrate_is_clean(self, tmp_path):
        pkg = self._write_pkg(tmp_path, good=GOOD_SUBSTRATE)
        assert codes(lint_paths([pkg])) == []

    def test_inherited_methods_count(self, tmp_path):
        pkg = self._write_pkg(
            tmp_path, good=GOOD_SUBSTRATE, wrap=INDIRECT_SUBSTRATE
        )
        assert codes(lint_paths([pkg])) == []


KERNEL_SRC = """\
from base import DHT

class SubstrateBase(DHT):
    def put(self, key, value): ...
    def get(self, key): ...
    @property
    def n_peers(self): return 1

class DelegatingDHT(DHT):
    def put(self, key, value): ...
    def get(self, key): ...
    @property
    def n_peers(self): return 1
"""

CLEAN_KERNEL_SUBSTRATE = """\
from kernel import SubstrateBase

class CleanDHT(SubstrateBase):
    def route(self, key): return 0, 1
    def peer_of(self, key): return 0
"""

OVERRIDING_SUBSTRATE = """\
from kernel import SubstrateBase

class SneakyDHT(SubstrateBase):
    def route(self, key): return 0, 1
    def peer_of(self, key): return 0
    def get(self, key): return None
    def peer_loads(self): return {}
"""

INDIRECT_OVERRIDE = """\
from clean import CleanDHT

class GrandchildDHT(CleanDHT):
    def put(self, key, value): ...
"""

KERNEL_WRAPPER = """\
from kernel import DelegatingDHT

class OverridingWrapper(DelegatingDHT):
    def get(self, key): return None
"""


class TestKernelOverrideRule:
    def _write_pkg(self, tmp_path, **files: str) -> Path:
        pkg = tmp_path / "dht"
        pkg.mkdir()
        (pkg / "base.py").write_text(BASE_SRC)
        (pkg / "kernel.py").write_text(KERNEL_SRC)
        for name, src in files.items():
            (pkg / f"{name}.py").write_text(src)
        return pkg

    def test_clean_substrate_passes(self, tmp_path):
        pkg = self._write_pkg(tmp_path, clean=CLEAN_KERNEL_SUBSTRATE)
        assert codes(lint_paths([pkg], select=["LHT006"])) == []

    def test_override_flagged(self, tmp_path):
        pkg = self._write_pkg(tmp_path, sneaky=OVERRIDING_SUBSTRATE)
        violations = [
            v for v in lint_paths([pkg]) if v.code == "LHT006"
        ]
        assert len(violations) == 1
        assert "SneakyDHT" in violations[0].message
        assert "get" in violations[0].message
        assert "peer_loads" in violations[0].message

    def test_indirect_subclass_flagged(self, tmp_path):
        pkg = self._write_pkg(
            tmp_path, clean=CLEAN_KERNEL_SUBSTRATE, grand=INDIRECT_OVERRIDE
        )
        violations = [
            v for v in lint_paths([pkg]) if v.code == "LHT006"
        ]
        assert len(violations) == 1
        assert "GrandchildDHT" in violations[0].message
        assert "put" in violations[0].message

    def test_wrappers_exempt(self, tmp_path):
        # Wrappers subclass DelegatingDHT, not SubstrateBase: overriding
        # routed operations is their whole purpose.
        pkg = self._write_pkg(tmp_path, wrapper=KERNEL_WRAPPER)
        assert codes(lint_paths([pkg], select=["LHT006"])) == []

    def test_real_tree_is_clean(self):
        src = Path(__file__).parent.parent / "src"
        assert codes(lint_paths([src], select=["LHT006"])) == []


REGISTRY_REGISTERS_CLEAN = """\
from clean import CleanDHT

def register(name, cls, factory=None, dynamic=False): ...

register("clean", CleanDHT)
"""

REGISTRY_REGISTERS_BY_KEYWORD = """\
from clean import CleanDHT

def register(name, cls, factory=None, dynamic=False): ...

register(name="clean", cls=CleanDHT, dynamic=True)
"""

REGISTRY_EMPTY = """\
def register(name, cls, factory=None, dynamic=False): ...
"""

ABSTRACT_SUBSTRATE_FAMILY = """\
import abc
from kernel import SubstrateBase

class FamilyBaseDHT(SubstrateBase):
    @abc.abstractmethod
    def route(self, key): ...
"""


class TestRegistryEnrollmentRule:
    """LHT012: every concrete SubstrateBase subclass in the dht package
    must appear in a ``register(...)`` call in the registry."""

    def _write_pkg(self, tmp_path, **files: str) -> Path:
        pkg = tmp_path / "dht"
        pkg.mkdir()
        (pkg / "base.py").write_text(BASE_SRC)
        (pkg / "kernel.py").write_text(KERNEL_SRC)
        for name, src in files.items():
            (pkg / f"{name}.py").write_text(src)
        return pkg

    def test_registered_substrate_is_clean(self, tmp_path):
        pkg = self._write_pkg(
            tmp_path,
            clean=CLEAN_KERNEL_SUBSTRATE,
            registry=REGISTRY_REGISTERS_CLEAN,
        )
        assert codes(lint_paths([pkg], select=["LHT012"])) == []

    def test_keyword_registration_is_clean(self, tmp_path):
        pkg = self._write_pkg(
            tmp_path,
            clean=CLEAN_KERNEL_SUBSTRATE,
            registry=REGISTRY_REGISTERS_BY_KEYWORD,
        )
        assert codes(lint_paths([pkg], select=["LHT012"])) == []

    def test_unregistered_substrate_flagged(self, tmp_path):
        pkg = self._write_pkg(
            tmp_path,
            clean=CLEAN_KERNEL_SUBSTRATE,
            registry=REGISTRY_EMPTY,
        )
        violations = lint_paths([pkg], select=["LHT012"])
        assert len(violations) == 1
        assert "CleanDHT" in violations[0].message
        assert "register" in violations[0].message

    def test_rule_dormant_without_a_registry_module(self, tmp_path):
        # Linting a substrate file on its own (no registry.py in the
        # parse set) must not produce false positives.
        pkg = self._write_pkg(tmp_path, clean=CLEAN_KERNEL_SUBSTRATE)
        assert codes(lint_paths([pkg], select=["LHT012"])) == []

    def test_abstract_intermediates_exempt(self, tmp_path):
        pkg = self._write_pkg(
            tmp_path,
            family=ABSTRACT_SUBSTRATE_FAMILY,
            registry=REGISTRY_EMPTY,
        )
        assert codes(lint_paths([pkg], select=["LHT012"])) == []

    def test_wrappers_exempt(self, tmp_path):
        # DelegatingDHT wrappers never reach SubstrateBase, so they are
        # not substrates and need no enrollment.
        pkg = self._write_pkg(
            tmp_path, wrapper=KERNEL_WRAPPER, registry=REGISTRY_EMPTY
        )
        assert codes(lint_paths([pkg], select=["LHT012"])) == []

    def test_real_tree_is_clean(self):
        src = Path(__file__).parent.parent / "src"
        assert codes(lint_paths([src], select=["LHT012"])) == []


#: A miniature core/serve tree: the read path module may read the DHT;
#: every other module must go through it.
READ_PATH_TREE = {
    "core/lookup.py": (
        "NO_REPLY = object()\n"
        "\n"
        "class ReadPath:\n"
        "    def __init__(self, dht):\n"
        "        self.dht = dht\n"
        "\n"
        "    def fetch(self, name):\n"
        "        value = self.dht.get(name)\n"
        "        return None if value is NO_REPLY else value\n"
        "\n"
        "    def round(self, names):\n"
        "        return self.dht.multi_get(names, absorb_errors=True)\n"
    ),
    "core/index.py": (
        "from core.lookup import ReadPath\n"
        "\n"
        "class Index:\n"
        "    def __init__(self, dht):\n"
        "        self.dht = dht\n"
        "        self.reads = ReadPath(dht)\n"
        "        self.sizes = {}\n"
        "\n"
        "    def sibling(self, name):\n"
        "        return self.reads.fetch(name)\n"
        "\n"
        "    def size(self, bits):\n"
        "        return self.sizes.get(bits, 0)\n"
    ),
    "serve/service.py": (
        "def execute(index, names):\n"
        "    return index.reads.round(names)\n"
    ),
}


class TestReadPathRule:
    """LHT014: in core/ and serve/, routed reads go through ReadPath."""

    def _tree(self, tmp_path: Path, **overrides: str) -> Path:
        files = {**READ_PATH_TREE, **overrides}
        for relpath, source in files.items():
            file = tmp_path / relpath
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_text(source)
        return tmp_path

    def test_reads_through_the_read_path_are_clean(self, tmp_path):
        root = self._tree(tmp_path)
        assert codes(lint_paths([root], select=["LHT014"])) == []

    @pytest.mark.parametrize(
        "relpath, source, line",
        [
            ("core/merge.py",
             "def sibling(index, name):\n    return index.dht.get(name)\n", 2),
            ("core/scan.py",
             "def scan(dht, walk):\n    return walk(dht.get)\n", 2),
            ("core/range.py",
             "class Executor:\n"
             "    def run(self, names):\n"
             "        return self._dht.multi_get(names)\n", 3),
            ("serve/service.py",
             "def execute(index, names):\n"
             "    return index.dht.multi_get(names)\n", 2),
            ("serve/probe.py",
             "def probe(inner, key, peer):\n"
             "    return inner.probe_get(key, peer)\n", 2),
        ],
    )
    def test_direct_dht_read_flagged(self, tmp_path, relpath, source, line):
        root = self._tree(tmp_path, **{relpath: source})
        violations = lint_paths([root], select=["LHT014"])
        assert [(Path(v.path).relative_to(root).as_posix(), v.line)
                for v in violations] == [(relpath, line)]
        assert "ReadPath" in violations[0].message

    def test_other_packages_may_read_the_dht(self, tmp_path):
        src = "def probe(dht, key):\n    return dht.get(key)\n"
        assert lint_at(src, "experiments/probe.py", tmp_path) == []
        assert lint_at(src, "baselines/pht.py", tmp_path) == []

    def test_real_tree_is_clean(self):
        assert codes(lint_paths([REPO_SRC], select=["LHT014"])) == []


class TestNoqaSuppression:
    def test_blanket_noqa(self, tmp_path):
        src = "def f(x=[]):  # noqa\n    return x\n"
        assert lint_at(src, "pkg/mod.py", tmp_path) == []

    def test_code_specific_noqa(self, tmp_path):
        src = "def f(x=[]):  # noqa: LHT004\n    return x\n"
        assert lint_at(src, "pkg/mod.py", tmp_path) == []

    def test_wrong_code_noqa_does_not_suppress(self, tmp_path):
        src = "def f(x=[]):  # noqa: LHT001\n    return x\n"
        assert lint_at(src, "pkg/mod.py", tmp_path) == ["LHT004"]


class TestLintAnalyzerInterplay:
    """A per-file rule and a call-graph rule flagging the *same line*.

    One line carries an LHT004 (mutable default) and a call into a
    tainted helper (LHT007).  The one pass reports both, and each code
    in a ``# noqa`` list suppresses only its own finding.
    """

    SINK_HELPER = (
        "import time\n\n"
        "def helper():\n"
        "    return time.perf_counter()\n"
    )

    def _lint(self, tmp_path: Path, noqa: str) -> list[str]:
        (tmp_path / "util").mkdir(parents=True, exist_ok=True)
        (tmp_path / "util" / "timing.py").write_text(self.SINK_HELPER)
        core = tmp_path / "core"
        core.mkdir(parents=True, exist_ok=True)
        (core / "tick.py").write_text(
            "from util.timing import helper\n\n"
            f"def tick(log=[]): return helper(){noqa}\n"
        )
        return codes(lint_paths([tmp_path]))

    def test_both_tools_flag_the_same_line(self, tmp_path):
        assert self._lint(tmp_path, "") == ["LHT004", "LHT007"]

    def test_noqa_codes_suppress_independently(self, tmp_path):
        assert self._lint(tmp_path, "  # noqa: LHT004") == ["LHT007"]
        assert self._lint(tmp_path, "  # noqa: LHT007") == ["LHT004"]

    def test_combined_noqa_list_silences_both(self, tmp_path):
        assert self._lint(tmp_path, "  # noqa: LHT004, LHT007") == []


class TestJsonFormat:
    def test_json_report_shape(self, tmp_path, capsys):
        bad = tmp_path / "core" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\nrandom.seed(0)\n")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro.devtools.lint"
        assert payload["counts"] == {"LHT002": 1}
        violation = payload["violations"][0]
        assert violation["code"] == "LHT002"
        assert violation["line"] == 2
        assert violation["path"].endswith("mod.py")
        assert isinstance(payload["analysis_wall_s"], float)

    def test_json_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "core" / "ok.py"
        good.parent.mkdir()
        good.write_text("X = 1\n")
        assert main([str(good), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["files"] == 1


class TestDriver:
    def test_syntax_error_reported_not_crashed(self):
        violations = lint_source("def broken(:\n", "pkg/mod.py")
        assert codes(violations) == ["E999"]

    def test_select_and_ignore(self, tmp_path):
        src = "import random\n\ndef f(x=[]):\n    assert random.random()\n"
        file = tmp_path / "sim" / "mod.py"
        file.parent.mkdir()
        file.write_text(src)
        all_codes = set(codes(lint_paths([file])))
        assert all_codes == {"LHT002", "LHT003", "LHT004"}
        only = lint_paths([file], select=["LHT003"])
        assert codes(only) == ["LHT003"]
        without = lint_paths([file], ignore=["LHT003", "LHT004"])
        assert codes(without) == ["LHT002"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "core" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\nrandom.seed(0)\n")
        assert main([str(bad)]) == 1
        assert "LHT002" in capsys.readouterr().out
        good = tmp_path / "core" / "ok.py"
        good.write_text("X = 1\n")
        assert main([str(good)]) == 0
        # One command: the second tool's entry points are gone.
        from importlib.util import find_spec

        from repro.devtools.__main__ import main as devtools_cli

        assert devtools_cli(["lint", str(good)]) == 0
        assert devtools_cli(["analyze", str(good)]) == 2
        assert find_spec("repro.devtools.flow") is None

    def test_missing_path_is_an_error_not_a_green_gate(self, tmp_path, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no such file"):
            lint_paths([tmp_path / "nope"])
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_code_rejected(self, tmp_path, capsys):
        from repro.errors import ConfigurationError

        target = tmp_path / "mod.py"
        target.write_text("X = 1\n")
        with pytest.raises(ConfigurationError, match="unknown rule code"):
            lint_paths([target], select=["LHT999"])
        assert main([str(target), "--select", "LHT999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in LINT_RULES:
            assert code in out


class TestOnePass:
    """The merge's two guarantees: every file is read and parsed exactly
    once, and nothing the two former tools reported was lost."""

    def test_each_file_is_read_and_parsed_exactly_once(self, monkeypatch):
        files = sorted(
            f for f in REPO_SRC.rglob("*.py") if "__pycache__" not in f.parts
        )
        parsed: list[str] = []
        read: list[Path] = []
        real_parse, real_read = ast.parse, Path.read_text

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        def counting_read(self, *args, **kwargs):
            read.append(self)
            return real_read(self, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(Path, "read_text", counting_read)
        assert lint_paths([REPO_SRC]) == []
        assert sorted(parsed) == [str(f) for f in files]
        assert sorted(read) == files

    def test_findings_match_the_parent_commit_on_every_fixture_tree(
        self, tmp_path
    ):
        """``tests/data/lint_parity_parent.json`` holds every fixture tree
        of this module and ``test_devtools_flow.py`` as the parent commit
        ran them, with what its ``lint_paths`` and ``analyze_paths``
        reported together on each (minus LHT005, deleted with its rule;
        LHT014, added since, is left out of the comparison).
        """
        golden = Path(__file__).parent / "data" / "lint_parity_parent.json"
        cases = json.loads(golden.read_text())
        assert len(cases) > 80
        for number, case in enumerate(cases):
            root = tmp_path / str(number)
            for relpath, source in case["files"].items():
                file = root / relpath
                file.parent.mkdir(parents=True, exist_ok=True)
                file.write_text(source)
            reported = [
                [Path(v.path).relative_to(root).as_posix(), v.line, v.col,
                 v.code, v.message]
                for v in lint_paths(
                    [root / p for p in case["paths"]], ignore=["LHT014"]
                )
            ]
            assert reported == case["findings"], case["fixture"]


class TestRepoGate:
    def test_repo_source_tree_is_clean(self):
        """The acceptance gate: the repo's own src/ has zero violations."""
        violations = lint_paths([REPO_SRC])
        assert violations == [], "\n".join(v.format() for v in violations)

    @pytest.mark.parametrize("code", sorted(LINT_RULES))
    def test_rule_catalogue_documented(self, code):
        assert LINT_RULES[code]
