"""Shared pytest wiring: per-criterion verdict lines in the terminal summary,
and the compiled simulator kernel built from source for the tests."""

import importlib.util
import pathlib
import runpy
import shutil
import subprocess
import sysconfig

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_verdicts = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(number, name): labels one acceptance criterion; each gets a"
        " PASS/FAIL line in the terminal summary",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call":
        mark = item.get_closest_marker("acceptance")
        if mark is not None:
            _verdicts[mark.kwargs["number"]] = (mark.kwargs["name"], report.outcome)
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_verdicts):
        name, outcome = _verdicts[number]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number} ({name}): {verdict}")


@pytest.fixture(scope="session")
def simkernel(tmp_path_factory):
    """``ryprep._simkernel`` compiled by gcc from ``src/ryprep/_simkernel.c``
    with ``setup.py``'s flags into a temporary directory and imported from
    there, so no build is needed first and no stale in-tree build is
    tested."""
    cc = shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler (gcc) to build ryprep._simkernel")
    flags = runpy.run_path(str(ROOT / "setup.py"))["COMPILE_ARGS"]
    out = tmp_path_factory.mktemp("simkernel") / (
        "_simkernel" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    cmd = [cc, "-shared", "-fPIC", *flags, "-I", sysconfig.get_paths()["include"]]
    cmd += [str(ROOT / "src" / "ryprep" / "_simkernel.c"), "-o", str(out), "-lm"]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode == 0, f"{' '.join(cmd)} failed:\n{res.stderr}"
    spec = importlib.util.spec_from_file_location("ryprep._simkernel", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
