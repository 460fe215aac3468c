"""Shared pytest wiring: per-criterion verdict lines in the terminal summary,
the compiled simulator kernel built from source for the tests, and the
build fixture that binds all its helpers, or all their NumPy twins."""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from ryprep import circuits, encoding, qasm, simulator, states

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


def build_ext(lib: pathlib.Path, temp: pathlib.Path, **env: str) -> subprocess.CompletedProcess:
    """``setup.py build_ext``, the one build of the extension, with the built
    package files in lib and the objects in temp; env adds to the environment."""
    cmd = [sys.executable, "setup.py", "build_ext", "--build-lib", str(lib)]
    cmd += ["--build-temp", str(temp)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env={**os.environ, **env})


@pytest.fixture(scope="session")
def simkernel(tmp_path_factory):
    """``ryprep._simkernel`` built by ``setup.py build_ext`` into a temporary
    directory and imported from there, so no build is needed first and no
    stale in-tree build is tested."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler (gcc) to build ryprep._simkernel")
    tmp = tmp_path_factory.mktemp("simkernel")
    return import_built(tmp / "lib", build_ext(tmp / "lib", tmp / "temp"))


def built_path(lib: pathlib.Path, res: subprocess.CompletedProcess) -> pathlib.Path:
    """The file of the ``ryprep._simkernel`` that the build res put under lib."""
    # the extension is optional: a failed compile still exits 0, with no module
    built = list((lib / "ryprep").glob("_simkernel*.so"))
    assert res.returncode == 0 and built, f"no extension built:\n{res.stdout}{res.stderr}"
    return built[0]


def import_built(lib: pathlib.Path, res: subprocess.CompletedProcess):
    """The ``ryprep._simkernel`` that the build res put under lib, imported
    from there."""
    spec = importlib.util.spec_from_file_location("ryprep._simkernel", built_path(lib, res))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Each helper of the extension as the package binds it: the module and the
# name it is bound to, its NumPy twin and its name in the extension.
BINDINGS = (
    (simulator, "_run_gates", simulator._run_gates_numpy, "run_gates"),
    (states, "_state_json", states._state_json_numpy, "state_json"),
    (encoding, "_p2_decode", encoding._p2_samples, "p2_samples"),
    (circuits, "_circuit_json", circuits._circuit_json_numpy, "circuit_json"),
    (circuits, "_circuit_columns", circuits._circuit_columns_numpy, "circuit_columns"),
    (qasm, "_circuit_qasm", qasm._circuit_qasm_numpy, "circuit_qasm"),
)


def count_gates(monkeypatch) -> list:
    """Records, through monkeypatch, every ``Gate`` built from here on: the
    list returned gets each one as its ``__post_init__`` runs."""
    built = []
    post_init = circuits.Gate.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(circuits.Gate, "__post_init__", counting)
    return built


@pytest.fixture(params=["numpy", "c"])
def build(request, monkeypatch):
    """Patches in every helper that the extension provides: its NumPy twin
    (the extension absent) or the compiled one built from source."""
    kernel = request.getfixturevalue("simkernel") if request.param == "c" else None
    for module, name, twin, helper in BINDINGS:
        monkeypatch.setattr(module, name, twin if kernel is None else getattr(kernel, helper))
    return request.param
