"""The fixture generator's files read back through the package."""

import importlib.util
import os

from onenorm import parse_auxiliary, parse_fcidump, write_fcidump

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
