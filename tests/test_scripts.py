"""The fixture generator's files read back through the package, and the
mutant list applies to the sources."""

import importlib.util
import os

from onenorm import parse_auxiliary, parse_fcidump, write_fcidump

import mutants

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


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
        assert aux.ao_overlap.shape == (n, n) and aux.ao_to_atom == tuple(range(n))


def test_every_mutant_applies_once_and_names_existing_tests():
    # a stale entry fails here, not only in the mutant run
    for mutant in mutants.MUTANTS:
        with open(os.path.join(ROOT, "src", "onenorm", mutant.module), encoding="utf-8") as handle:
            assert mutants._mutated(handle.read(), mutant) is not None, mutant.name
        for test in mutant.tests:
            module, name = test.split("::")
            with open(os.path.join(ROOT, "tests", module), encoding="utf-8") as handle:
                assert f"\ndef {name}(" in handle.read(), test
