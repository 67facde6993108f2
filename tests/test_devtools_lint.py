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
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import LINT_RULES, lint_paths, lint_source, main

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def codes(violations, only: str | None = None) -> list[str]:
    return [v.code for v in violations if only in (None, v.code)]


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
    rule's business."""

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
        assert codes(lint_paths([root]), "LHT014") == []

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
        violations = [v for v in lint_paths([root]) if v.code == "LHT014"]
        assert [(Path(v.path).relative_to(root).as_posix(), v.line)
                for v in violations] == [(relpath, line)]
        assert "ReadPath" in violations[0].message

    def test_other_packages_may_read_the_dht(self, tmp_path):
        src = "def probe(dht, key):\n    return dht.get(key)\n"
        assert lint_at(src, "experiments/probe.py", tmp_path) == []
        assert lint_at(src, "baselines/pht.py", tmp_path) == []

    def test_real_tree_is_clean(self):
        assert codes(lint_paths([REPO_SRC]), "LHT014") == []


class TestLintAnalyzerInterplay:
    """A per-file rule and a call-graph rule flagging the *same line*:
    a bare ``assert`` (LHT003) on the call into a tainted helper
    (LHT007).  The one pass reports both."""

    def test_both_tools_flag_the_same_line(self, tmp_path):
        (tmp_path / "util").mkdir()
        (tmp_path / "util" / "timing.py").write_text(
            "import time\n\ndef helper():\n    return time.perf_counter()\n"
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "tick.py").write_text(
            "from util.timing import helper\n\n"
            "def tick():\n    assert helper()\n"
        )
        violations = lint_paths([tmp_path])
        assert [(v.line, v.code) for v in violations] == [
            (4, "LHT003"), (4, "LHT007")
        ]


class TestDriver:
    def test_syntax_error_reported_not_crashed(self):
        violations = lint_source("def broken(:\n", "pkg/mod.py")
        assert codes(violations) == ["E999"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "core" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import random\nrandom.seed(0)\n")
        assert main([str(bad)]) == 1
        assert "LHT002" in capsys.readouterr().out
        good = tmp_path / "core" / "ok.py"
        good.write_text("X = 1\n")
        assert main([str(good)]) == 0
        # One entry point per job: the duplicates stay gone.
        from importlib.util import find_spec

        from repro.devtools.__main__ import main as devtools_cli

        assert devtools_cli(["lint", str(good)]) == 0
        for gone in ("analyze", "sanitize", "profile"):
            assert devtools_cli([gone, str(good)]) == 2
        assert find_spec("repro.devtools.flow") is None
        assert find_spec("repro.devtools.profile") is None

    def test_no_ci_step_or_doc_runs_a_job_module_directly(self):
        """``python -m repro.devtools.<job>`` runs nothing, so a CI step
        or recipe still spelled that way is a mistake (it now exits 1;
        it used to exit 0 and pass vacuously)."""
        repo = REPO_SRC.parent
        roots = [".github/workflows", "README.md", "docs", "examples", ".claude/skills"]
        files = [
            path
            for root in map(repo.joinpath, roots)
            for path in ([root] if root.is_file() else sorted(root.rglob("*")))
            if path.is_file() and path.suffix in {".md", ".py", ".yml", ".yaml"}
        ]
        assert len(files) > 5
        old_spelling = re.compile(r"python3?\s+-m\s+repro\.devtools\.\w+")
        found = [
            f"{path.relative_to(repo)}: {match.group()}"
            for path in files
            for match in old_spelling.finditer(path.read_text(encoding="utf-8"))
        ]
        assert found == []

    @pytest.mark.parametrize("job", ["lint", "determinism", "benchgate", "loc"])
    def test_job_module_run_directly_fails_loudly(self, job):
        """The old spelling ``python -m repro.devtools.<job>`` exits
        non-zero and names the one that works, running nothing."""
        env = {**os.environ, "PYTHONPATH": str(REPO_SRC)}
        old = subprocess.run(
            [sys.executable, "-m", f"repro.devtools.{job}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert old.returncode != 0
        assert f"python -m repro.devtools {job}" in old.stderr
        assert old.stdout == ""

    def test_unknown_subcommand_goes_to_stderr(self, capsys):
        from repro.devtools.__main__ import main as devtools_cli

        assert devtools_cli(["nope"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown subcommand: 'nope'" in err

    def test_missing_path_is_an_error_not_a_green_gate(self, tmp_path, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no such file"):
            lint_paths([tmp_path / "nope"])
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err


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
        of this module and ``test_devtools_flow.py`` as the last commit
        with a separate analyzer ran them, with what its ``lint_paths``
        and ``analyze_paths`` reported together on each
        (minus LHT005, deleted with its rule).  The codes deleted since
        (LHT004, LHT006, LHT012) and LHT014, added since, are left out of
        the comparison, and so are the cases whose sources carry a
        ``# noqa`` comment: suppression is gone, so they would report
        what they were written to hide.
        """
        golden = Path(__file__).parent / "data" / "lint_parity_parent.json"
        cases = [
            case for case in json.loads(golden.read_text())
            if not any("noqa" in src for src in case["files"].values())
        ]
        assert len(cases) == 79
        left_out = {"LHT004", "LHT006", "LHT012", "LHT014"}
        for number, case in enumerate(cases):
            root = tmp_path / str(number)
            for relpath, source in case["files"].items():
                file = root / relpath
                file.parent.mkdir(parents=True, exist_ok=True)
                file.write_text(source)
            reported = [
                [Path(v.path).relative_to(root).as_posix(), v.line, v.col,
                 v.code, v.message]
                for v in lint_paths([root / p for p in case["paths"]])
                if v.code not in left_out
            ]
            expected = [f for f in case["findings"] if f[3] not in left_out]
            assert reported == expected, case["fixture"]


class TestRepoGate:
    def test_repo_source_tree_is_clean(self):
        """The acceptance gate: the repo's own src/ has zero violations."""
        violations = lint_paths([REPO_SRC])
        assert violations == [], "\n".join(v.format() for v in violations)

    @pytest.mark.parametrize("code", sorted(LINT_RULES))
    def test_rule_catalogue_documented(self, code):
        assert LINT_RULES[code]
