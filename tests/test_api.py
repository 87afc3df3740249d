"""The public surface: the package's exported names, the README example,
and the names and scalar calls of the benchmark (``bench/``)."""

import importlib
import importlib.util
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opendicke
from opendicke import (cli, entanglement, fluctuations, groundstate,
                       model, oracle)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# The directory the package under test was imported from.
SRC = str(Path(opendicke.__file__).resolve().parents[1])


def test_all_names_resolve():
    assert len(set(opendicke.__all__)) == len(opendicke.__all__)
    for name in opendicke.__all__:
        assert hasattr(opendicke, name), name


def test_readme_python_api_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README} (Python API)", "exec"), {})


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\nExamples:\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the spectrum example writes spec.json
    totals = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "opendicke", line
        assert cli.run(argv[1:]) == 0, line
        out = capsys.readouterr().out
        for passed, total in re.findall(r"(\d+)/(\d+)", comment):
            assert f"{passed}/{total} checks passed" in out, line
            totals.append(f"{passed}/{total}")
    assert len(block.splitlines()) == 5
    assert totals == ["13/13", "12/12"]
    assert (tmp_path / "spec.json").exists()


def test_bench_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.TRACED:
        module, func = name.split(".")
        module = importlib.import_module(f"opendicke.{module}")
        assert callable(getattr(module, func)), name


def test_bench_scalar_calls():
    """The scalar calls of ``bench/workloads.py``, with the attributes it
    reads."""
    base = model.ModelParams(delta_c=-2.0, kappa=2.0, u=0.7, y=0.0)
    p = base.with_pump(0.9 * model.critical_pump(base))
    m = fluctuations.build_stability_matrix(p).m
    assert m.shape == (4, 4)
    moments = fluctuations.steady_state_moments(p)
    reference = oracle.lyapunov_moments(fluctuations.build_stability_matrix(p))
    assert np.max(np.abs(moments.s - reference.s)) <= 1e-10
    delta_n, n_photon = fluctuations.observables(moments)
    assert (delta_n, n_photon) == (moments.s[3, 2].real, moments.s[1, 0].real)
    assert entanglement.log_negativity(entanglement.quad_covariance(moments)) > 0.0
    closed = model.ModelParams(delta_c=-2.0, kappa=0.0, u=0.7, y=1.0)
    s = groundstate.ground_state_moments(closed).s
    assert s[0, 1] - s[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_scalar_routes_take_a_point():
    """Each scalar route linearizes around the solved mean field of its
    point, so it takes the point and no mean field."""
    routes = {fluctuations.build_stability_matrix: ("params",),
              fluctuations.steady_state_moments: ("params",),
              groundstate.bogoliubov_modes: ("params",),
              groundstate.ground_state_moments: ("params",),
              oracle.fock_ground_state: ("params", "cutoffs")}
    for route, names in routes.items():
        assert tuple(inspect.signature(route).parameters) == names, route.__name__


def test_cli_import_leaves_scipy_sparse_out():
    """scipy.sparse would take most of a cold start, so importing the CLI
    must not load it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys, opendicke.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_package_runs_without_scipy():
    """scipy is a test dependency only: with it unimportable, the Fock
    oracle, both verify sets, every scan kind and the exponent fit run."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = """\
import contextlib, io, sys
sys.modules["scipy"] = None
from opendicke import cli, model, oracle
closed = model.ModelParams(delta_c=-2.0, kappa=0.0, u=0.0, y=0.0)
oracle.fock_ground_state(closed.with_pump(0.5 * model.critical_pump(closed)),
                         cutoffs=(20, 20))
runs = [["verify", "--delta-c=-2", f"--kappa={kappa}"] for kappa in (0, 2)]
runs += [[kind, "--delta-c=-2", "--kappa=2", "--y-grid=0:1.5yc:5"]
         for kind in ("meanfield", "correlations", "entanglement", "spectrum")]
runs.append(["exponent", "--delta-c=-2", "--kappa=2", "--points=8"])
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
print(codes)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str([0] * 7)


def test_spectrum_leaves_scipy_optimize_and_sparse_out():
    """The spectrum's root refinement is written out: a run loads neither
    scipy.optimize nor scipy.sparse."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import contextlib, io, sys\nfrom opendicke import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = cli.run(['spectrum', '--delta-c=-2', '--kappa=2', '--u=0.7'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'optimize'], ['scipy', 'sparse'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0 []"
