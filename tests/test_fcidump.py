import dataclasses
import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onenorm import (
    LocalizationRequest,
    localize,
    parse_auxiliary,
    parse_fcidump,
    rotate_hamiltonian,
    write_auxiliary,
    write_fcidump,
)
from onenorm.errors import DataWarning, InputError
from onenorm import MolecularHamiltonian
from onenorm.fcidump import _parse_namelist, read_labeled_matrix, write_labeled_matrix
from onenorm.integrals import from_pair_matrix, pair_index, pair_matrix

from conftest import (
    CHAIN_SIZES,
    H2_FCIDUMP,
    chain_path,
    random_aux,
    random_hamiltonian,
    random_orthogonal,
    requires_fixtures,
)


def test_single_orbital_direct_read():
    text = "\n".join([
        " &FCI NORB=1,NELEC=2,MS2=0,",
        "  ORBSYM=1,",
        "  ISYM=1,",
        " &END",
        "0.5 1 1 0 0",
        "0.25 1 1 1 1",
        "1.0 0 0 0 0",
    ])
    ham = parse_fcidump(text)
    assert ham.n_orbitals == 1
    assert ham.n_electrons == 2
    assert ham.one_body[0, 0] == 0.5
    assert ham.two_body[0, 0, 0, 0] == 0.25
    assert ham.core_constant == 1.0


def test_symmetry_expansion_from_single_representative():
    text = " &FCI NORB=4,NELEC=2,\n &END\n0.1 1 2 3 4\n0.0 0 0 0 0\n"
    ham = parse_fcidump(text)
    base = (0, 1, 2, 3)
    p, q, r, s = base
    for a, b in ((p, q), (q, p)):
        for c, d in ((r, s), (s, r)):
            assert ham.two_body[a, b, c, d] == 0.1
            assert ham.two_body[c, d, a, b] == 0.1
    assert ham.two_body[0, 0, 0, 0] == 0.0


def test_roundtrip_bitwise(rng):
    for trial in range(50):
        n = int(rng.integers(1, 7))
        ham = random_hamiltonian(n, rng)
        back = parse_fcidump(write_fcidump(ham))
        assert back.n_orbitals == ham.n_orbitals
        assert back.core_constant == ham.core_constant
        assert np.array_equal(back.one_body, ham.one_body)
        assert np.array_equal(back.two_body, ham.two_body)


def test_roundtrip_rotated_bitwise(rng):
    # a rotated h is exactly symmetric, so its upper triangle survives too
    for n in range(2, 8):
        ham = rotate_hamiltonian(random_hamiltonian(n, rng), random_orthogonal(n, rng))
        back = parse_fcidump(write_fcidump(ham))
        assert np.array_equal(back.one_body, ham.one_body)
        assert np.array_equal(back.two_body, ham.two_body)
        assert back.core_constant == ham.core_constant


@given(st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(n, seed):
    ham = random_hamiltonian(n, np.random.default_rng(seed))
    back = parse_fcidump(write_fcidump(ham))
    assert np.array_equal(back.two_body, ham.two_body)
    assert np.array_equal(back.one_body, ham.one_body)


def test_write_zero_hamiltonian_emits_only_core_line():
    ham = random_hamiltonian(2, np.random.default_rng(0), core=0.0, scale=0.0)
    body = [
        line for line in write_fcidump(ham).splitlines()
        if line and not line.startswith((" &", "  "))
    ]
    assert body == ["0.0 0 0 0 0"]


def test_write_emits_one_line_per_symmetry_class():
    g = np.zeros((2, 2, 2, 2))
    for a, b in ((0, 1), (1, 0)):
        for c, d in ((0, 1), (1, 0)):
            g[a, b, c, d] = 0.3
    from onenorm import MolecularHamiltonian

    ham = MolecularHamiltonian.from_dense(0.0, np.zeros((2, 2)), g)
    two_body_lines = [
        line for line in write_fcidump(ham).splitlines()
        if not line.startswith((" &", "  ")) and "0 0" not in line
    ]
    assert two_body_lines == ["0.3 2 1 2 1"]


def test_parse_errors():
    with pytest.raises(InputError, match="&FCI"):
        parse_fcidump("NORB=2\n")
    with pytest.raises(InputError, match="NORB"):
        parse_fcidump(" &FCI NELEC=2,\n &END\n")
    with pytest.raises(InputError, match="outside"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n0.1 1 3 0 0\n")
    with pytest.raises(InputError, match="non-numeric"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\nabc 1 1 0 0\n")
    with pytest.raises(InputError, match="malformed"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n0.1 1 0 1 1\n")
    with pytest.raises(InputError, match="expected"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n0.1 1 1 0\n")
    with pytest.raises(InputError, match="unterminated"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n0.1 1 1 0 0\n")
    with pytest.raises(InputError, match="non-integer index"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n0.1 x 1 0 0\n")
    with pytest.raises(InputError, match="line 3: malformed index pattern"):
        parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n1.0 0 1 0 0\n")
    body = "0.5 1 1 1 1\n-0.25 2 1 0 0\n0.75 0 0 0 0\n"
    plain = parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n" + body)
    blank = parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n\n" + body.replace("\n", "\n \n", 1))
    assert np.array_equal(blank.one_body, plain.one_body)
    assert np.array_equal(blank.two_body, plain.two_body)
    assert blank.core_constant == plain.core_constant == 0.75


def test_duplicate_entries_overwrite_with_warning():
    text = (
        " &FCI NORB=1,NELEC=2,\n &END\n"
        "0.25 1 1 1 1\n"
        "0.50 1 1 1 1\n"
        "0.0 0 0 0 0\n"
    )
    with pytest.warns(DataWarning, match="duplicate"):
        ham = parse_fcidump(text)
    assert ham.two_body[0, 0, 0, 0] == 0.50  # last one wins

    # an agreeing duplicate is silent
    quiet = (
        " &FCI NORB=1,NELEC=2,\n &END\n"
        "0.25 1 1 1 1\n"
        "0.25 1 1 1 1\n"
        "0.0 0 0 0 0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_fcidump(quiet)


def test_orbsym_parsed_and_ignored():
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM=1,1,\n  ISYM=1,\n &END\n0.5 1 1 0 0\n0.0 0 0 0 0\n"
    ham = parse_fcidump(text)
    assert ham.one_body[0, 0] == 0.5


def test_parse_auxiliary_identity_overlap():
    aux = parse_auxiliary("#SECTION OVERLAP 2 2\n1 0\n0 1\n")
    assert np.array_equal(aux.ao_overlap, np.eye(2))


def test_parse_auxiliary_rejects_indefinite_overlap():
    text = "#SECTION OVERLAP 2 2\n1 0\n0 -0.1\n"
    with pytest.raises(InputError, match="positive definite"):
        parse_auxiliary(text)


def test_parse_auxiliary_full_file_cross_checks(rng):
    aux = random_aux(4, rng, n_atoms=2)
    back = parse_auxiliary(write_auxiliary(aux))
    assert np.allclose(back.ao_overlap, aux.ao_overlap, atol=0)
    assert np.allclose(back.mo_coefficients, aux.mo_coefficients, atol=0)
    assert np.allclose(back.dipole_ao, aux.dipole_ao, atol=0)
    assert back.ao_to_atom == aux.ao_to_atom
    assert back.atomic_numbers == aux.atomic_numbers


def test_parse_auxiliary_errors():
    with pytest.raises(InputError, match="unknown section"):
        parse_auxiliary("#SECTION JUNK 1 1\n1\n")
    with pytest.raises(InputError, match="expected 4 values"):
        parse_auxiliary("#SECTION OVERLAP 2 2\n1 0 0\n")
    with pytest.raises(InputError, match="together"):
        parse_auxiliary("#SECTION DIPOLE_X 1 1\n0.0\n")
    with pytest.raises(InputError, match="before any"):
        parse_auxiliary("1.0 2.0\n")
    with pytest.raises(InputError, match="AOs"):
        parse_auxiliary(
            "#SECTION OVERLAP 2 2\n1 0\n0 1\n#SECTION AO_ATOM_MAP 1 3\n0 0 1\n"
        )


def test_labeled_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 5))
    text = write_labeled_matrix("ROTATION", m)
    assert np.array_equal(read_labeled_matrix(text), m)


def test_bare_matrix_read():
    assert np.array_equal(
        read_labeled_matrix("1 2\n3 4\n"), np.array([[1.0, 2.0], [3.0, 4.0]])
    )


def reference_write_fcidump(ham):
    """The four-loop writer: one line per canonical tuple, index by index."""
    n = ham.n_orbitals
    nelec = ham.n_electrons if ham.n_electrons is not None else 0
    out = [
        f" &FCI NORB={n},NELEC={nelec},MS2=0,",
        "  ORBSYM=" + "1," * n,
        "  ISYM=1,",
        " &END",
    ]
    for p in range(n):
        for q in range(p + 1):
            a = pair_index(p, q)
            for r in range(p + 1):
                for s in range(r + 1):
                    if pair_index(r, s) > a:
                        continue
                    value = float(ham.two_body[p, q, r, s])
                    if abs(value) > 1e-12:
                        out.append(f"{value!r} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p in range(n):
        for q in range(p + 1):
            value = float(ham.one_body[p, q])
            if abs(value) > 1e-12:
                out.append(f"{value!r} {p + 1} {q + 1} 0 0")
    out.append(f"{ham.core_constant!r} 0 0 0 0")
    return "\n".join(out) + "\n"


def test_writer_matches_reference_on_random_instances(rng):
    above = float(np.nextafter(1e-12, 1.0))
    edges = np.array([1e-12, -1e-12, above, -above, 0.0, -0.0])
    for n in range(1, 9):
        ham = random_hamiltonian(n, rng)
        # put the threshold edges on random canonical slots of g and on h
        p, q, pairs = pair_matrix(ham.two_body)
        a, b = np.tril_indices(len(pairs))
        picks = rng.choice(len(a), size=min(len(a), len(edges)), replace=False)
        pairs[a[picks], b[picks]] = edges[: len(picks)]
        h = ham.one_body.copy()
        h[p[: len(edges)], q[: len(edges)]] = edges[: len(p)]
        h[q[: len(edges)], p[: len(edges)]] = edges[: len(p)]
        ham = dataclasses.replace(ham, one_body=h, two_body=from_pair_matrix(pairs, n))
        text = write_fcidump(ham)
        assert text == reference_write_fcidump(ham)
        assert "1e-12 " not in text
        assert n == 1 or f"{above!r} " in text


@requires_fixtures
def test_writer_matches_reference_on_localized_chains():
    for n in CHAIN_SIZES:
        ham = parse_fcidump(open(chain_path(n)).read())
        er = localize(ham, None, None, LocalizationRequest(scheme="er"))
        assert write_fcidump(er.hamiltonian) == reference_write_fcidump(er.hamiltonian)


@requires_fixtures
def test_shipped_fixtures_reproduce_through_parse_and_write():
    # the fixtures were written by the generator's own writer
    for path in [H2_FCIDUMP] + [chain_path(n) for n in CHAIN_SIZES]:
        text = open(path).read()
        ham = parse_fcidump(text)
        assert _bits(ham) == _bits(reference_parse_fcidump(text)), path
        assert write_fcidump(ham) == reference_write_fcidump(ham) == text, path


def test_every_index_image_lands_in_the_canonical_slot(rng):
    n = 4
    ham = random_hamiltonian(n, rng)
    canonical = [
        line.split() for line in write_fcidump(ham).splitlines()[4:]
        if line.split()[3:] != ["0", "0"]
    ]
    assert len(canonical) == 55  # every canonical tuple of N = 4
    images = (
        lambda i, j, k, l: (i, j, k, l), lambda i, j, k, l: (j, i, k, l),
        lambda i, j, k, l: (i, j, l, k), lambda i, j, k, l: (j, i, l, k),
        lambda i, j, k, l: (k, l, i, j), lambda i, j, k, l: (l, k, i, j),
        lambda i, j, k, l: (k, l, j, i), lambda i, j, k, l: (l, k, j, i),
    )
    for image in images:
        body = [
            " ".join([value, *image(*idx)]) for value, *idx in canonical
        ]
        text = " &FCI NORB=4,NELEC=2,\n &END\n" + "\n".join(body) + "\n0.0 0 0 0 0\n"
        assert np.array_equal(parse_fcidump(text).two_body, ham.two_body)


def test_conflicting_duplicate_warning_names_its_line():
    text = (
        " &FCI NORB=3,NELEC=2,\n &END\n"
        "0.25 2 1 3 1\n"
        "0.5 1 1 0 0\n"
        "0.25 1 3 1 2\n"  # an agreeing image: silent
        "0.75 3 1 2 1\n"  # line 6, a conflicting image of line 3
        "0.5 2 1 0 0\n"
        "0.125 1 2 0 0\n"  # line 8, a conflicting image of line 7
        "0.0 0 0 0 0\n"
    )
    with pytest.warns(DataWarning) as caught:
        ham = parse_fcidump(text)
    messages = [str(w.message) for w in caught]
    assert messages == [
        "line 6: conflicting duplicate for g[3,1,2,1] (0.25 -> 0.75)",
        "line 8: conflicting duplicate for h[1,2] (0.5 -> 0.125)",
    ]
    assert ham.two_body[1, 0, 2, 0] == 0.75 and ham.one_body[0, 1] == 0.125


def test_labeled_matrix_follows_the_section_rules():
    text = (
        "// written by hand\n"
        + write_labeled_matrix("FIRST", np.eye(2))
        + "// the last section is the default\n"
        + write_labeled_matrix("ROTATION", [[0.0, 1.0], [1.0, 0.0]])
    )
    assert np.array_equal(read_labeled_matrix(text), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InputError, match="duplicate section ROTATION"):
        read_labeled_matrix(text + write_labeled_matrix("rotation", np.eye(2)))
    with pytest.raises(InputError, match="expected 4 values"):
        read_labeled_matrix("#SECTION ROTATION 2 2\n1 0 0\n")


def reference_parse_fcidump(text):
    """The per-line parser: tokens split, converted and checked line by line,
    every line stored at once under a seen-mask (later lines win)."""
    lines = text.splitlines()
    fields, body_start = _parse_namelist(lines)
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
    except KeyError as missing:
        raise InputError(f"&FCI namelist must declare {missing.args[0]}") from None
    except ValueError:
        raise InputError("NORB and NELEC must be integers") from None
    if norb < 0:
        raise InputError("NORB must be non-negative")
    n_pairs = norb * (norb + 1) // 2
    h = np.zeros((norb, norb))
    pairs = np.zeros((n_pairs, n_pairs))
    seen_h, seen_g = bytearray(norb * norb), bytearray(n_pairs * n_pairs)
    h_flat, g_flat = memoryview(h.reshape(-1)), memoryview(pairs.reshape(-1))  # Python floats
    core = 0.0
    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise InputError(f"line {lineno}: expected 'value i j k l', got {raw!r}")
        try:
            value = float(tokens[0])
        except ValueError:
            raise InputError(f"line {lineno}: non-numeric value {tokens[0]!r}") from None
        try:
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer index in {raw!r}") from None
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise InputError(f"line {lineno}: index {idx} outside [0, {norb}]")
        if i == j == k == l == 0:
            core = value
            continue
        if k == 0 and l == 0:
            if i == 0 or j == 0:
                raise InputError(f"line {lineno}: malformed index pattern {raw!r}")
            store, seen = h_flat, seen_h
            slot = (max(i, j) - 1) * norb + min(i, j) - 1
        elif 0 in (i, j, k, l):
            raise InputError(f"line {lineno}: malformed index pattern {raw!r}")
        else:
            a, b = int(pair_index(i - 1, j - 1)), int(pair_index(k - 1, l - 1))
            store, seen = g_flat, seen_g
            slot = max(a, b) * n_pairs + min(a, b)
        if seen[slot] and abs(store[slot] - value) > 1e-10:
            name = f"h[{i},{j}]" if k == 0 else f"g[{i},{j},{k},{l}]"
            warnings.warn(
                f"line {lineno}: conflicting duplicate for {name} "
                f"({store[slot]!r} -> {value!r})",
                DataWarning,
                stacklevel=2,
            )
        store[slot] = value
        seen[slot] = 1
    h += np.tril(h, -1).T
    return MolecularHamiltonian(
        n_orbitals=norb, core_constant=core, one_body=h,
        two_body=from_pair_matrix(pairs, norb), n_electrons=nelec,
    )


def _bits(ham):
    return (ham.n_orbitals, ham.n_electrons, np.float64(ham.core_constant).tobytes(),
            ham.one_body.tobytes(), ham.two_body.tobytes())


def _outcome(parse, text):
    """``("ok", bits, warning messages)`` or ``("error", message)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ham = parse(text)
        except InputError as exc:
            return "error", str(exc)
    return "ok", _bits(ham), [str(w.message) for w in caught]


# tokens that float() and int() read exactly as loadtxt does, and tokens both reject
_VALUE_TOKENS = ["0.25", "0.5", "-0.75", "1e-11", "0", "-0.0", "1.5e+2", "+.5", "5."]
_NONFINITE_TOKENS = ["nan", "inf", "-Infinity", "1e999"]
_BAD_VALUE_TOKENS = ["abc", "1.2.3", "0x1", "1e", "--1", "1d0"]
_BAD_INDEX_TOKENS = ["1.0", "x", "1e0", "++1", "2-"]


@st.composite
def fcidump_bodies(draw):
    """A header and a body of random lines: canonical entries and their
    images, repeats with agreeing or conflicting values and blank lines,
    with up to three broken lines put in: a bad token count, value token,
    index token, index range or index pattern, or a non-finite value."""
    norb = draw(st.integers(1, 3))
    index = st.integers(1, norb)

    def line(kind):
        if kind == "blank":
            return draw(st.sampled_from(["", "  ", "\t "]))
        i, j, k, l = (draw(index) for _ in range(4))
        if kind == "one":
            k = l = 0
        elif kind == "core":
            i = j = k = l = 0
        elif kind == "range":
            i, j, k, l = (draw(st.integers(-1, norb + 1)) for _ in range(4))
        elif kind == "pattern":
            i, j, k, l = draw(st.sampled_from([(i, j, 0, l), (i, j, k, 0), (0, j, 0, 0),
                                               (i, 0, k, l), (0, 0, k, 0)]))
        tokens = [draw(st.sampled_from(_VALUE_TOKENS)), *map(str, (i, j, k, l))]
        if kind == "count":
            tokens = draw(st.sampled_from([tokens[:4], tokens + ["1"], tokens[:1]]))
        elif kind == "value":
            tokens[0] = draw(st.sampled_from(_BAD_VALUE_TOKENS))
        elif kind == "nonfinite":
            tokens[0] = draw(st.sampled_from(_NONFINITE_TOKENS))
        elif kind == "index":
            tokens[draw(st.integers(1, 4))] = draw(st.sampled_from(_BAD_INDEX_TOKENS))
        return draw(st.sampled_from([" ", "\t", "   "])).join(tokens)

    lines = [line(kind) for kind in draw(st.lists(
        st.sampled_from(["two"] * 4 + ["one"] * 2 + ["core", "blank"]), max_size=25))]
    broken = ["range", "pattern", "count", "value", "index", "nonfinite"]
    for kind in draw(st.lists(st.sampled_from(broken), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line(kind))
    return f" &FCI NORB={norb},NELEC=2,\n &END\n" + "\n".join(lines) + "\n"


@example(" &FCI NORB=1,NELEC=2,\n &END\n")
@example(" &FCI NORB=1,NELEC=2,\n &END\n 1e999 1 1 1 1\n-inf 1 1 1 1\n0.5 1 1 1 1\n")
@example(" &FCI NORB=1,NELEC=2,\n &END\n inf 1 1 0 0\n1e999 1 1 0 0\n0.5 1 1 0 0\n")
@given(fcidump_bodies())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parser_matches_the_per_line_reference(text):
    new, old = _outcome(parse_fcidump, text), _outcome(reference_parse_fcidump, text)
    assert new == old


def test_tokens_outside_the_loadtxt_grammar_are_input_errors():
    # float() and int() read these, the parser does not
    head = " &FCI NORB=10,NELEC=2,\n &END\n"
    for line, match in (("1_0 1 1 0 0", "line 3: non-numeric value '1_0'"),
                        ("\u0661 1 1 0 0", "line 3: non-numeric value"),
                        ("0.5 1_0 1 0 0", "line 3: non-integer index"),
                        ("0.5 1 \u0661 0 0", "line 3: non-integer index")):
        reference_parse_fcidump(head + line + "\n")
        with pytest.raises(InputError, match=match):
            parse_fcidump(head + line + "\n")


def test_parse_runs_no_python_per_body_line():
    # traced Python events (calls and lines, in every frame) do not grow
    # with the body; the per-line reference shows that the probe sees a loop
    def events(parse, text):
        count = [0]

        def trace(frame, event, arg):
            count[0] += 1
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            parse(text)
        finally:
            sys.settrace(previous)
        return count[0]

    small = write_fcidump(random_hamiltonian(2, np.random.default_rng(0)))
    large = write_fcidump(random_hamiltonian(8, np.random.default_rng(0)))
    added = len(large.splitlines()) - len(small.splitlines())
    assert added > 600
    parse_fcidump(small)  # compiles and caches the namelist regexes
    assert events(parse_fcidump, large) == events(parse_fcidump, small)
    assert (events(reference_parse_fcidump, large)
            > events(reference_parse_fcidump, small) + 10 * added)
