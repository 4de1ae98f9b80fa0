"""Smoke runs of the experiment scripts on the H2-H4 chains."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

from onenorm import parse_auxiliary, parse_fcidump, write_fcidump

from conftest import FIXTURE_DIR, chain_path, requires_fixtures

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@requires_fixtures
def test_scaling_study_reads_aux_beside_each_fcidump(tmp_path):
    done = run_script("scaling_study.py", "--localize", "pm",
                      *(chain_path(n) for n in (2, 3, 4)))
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert [row["size"] for row in payload["points"]] == [2, 3, 4]
    assert all(row["lambda_localized"] > 0 for row in payload["points"])
    assert "fit_localized" in payload

    lone = tmp_path / "lone_cmo.fcidump"
    shutil.copy(chain_path(2), lone)
    done = run_script("scaling_study.py", "--localize", "fb", str(lone))
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1 and "lone_aux.txt" in done.stderr


@requires_fixtures
def test_table_benchmark_runs_every_scheme():
    # every scheme with Jacobi, and the two that take ascent with it
    for n in (2, 3, 4):
        aux = os.path.join(FIXTURE_DIR, f"hchain_{n:02d}_sto3g_aux.txt")
        for schemes, method in (("er,fb,pm,oao", "jacobi"), ("er,oao", "ascent")):
            done = run_script("table_benchmark.py", chain_path(n), "--aux", aux,
                              "--schemes", schemes, "--method", method)
            assert done.returncode == 0, done.stderr
            rows = json.loads(done.stdout)
            assert [row["label"] for row in rows] == ["cmo", *schemes.split(",")]


def test_fixture_generator_output_reproduces_through_parse_and_write(tmp_path):
    # the generator has its own writers, so its files check the package's
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", os.path.join(ROOT, "scripts", "generate_fixtures.py")
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    for n in (2, 3, 4):
        generator.chain_fixture(str(tmp_path), n)
        text = (tmp_path / f"hchain_{n:02d}_sto3g_cmo.fcidump").read_text()
        ham = parse_fcidump(text)
        assert ham.n_orbitals == n
        assert write_fcidump(ham) == text
        aux = parse_auxiliary((tmp_path / f"hchain_{n:02d}_sto3g_aux.txt").read_text())
        assert aux.ao_overlap.shape == (n, n) and aux.atomic_numbers == (1.0,) * n
