"""FCIDUMP and labeled-matrix text formats.

FCIDUMP: a ``&FCI`` namelist declaring at least NORB and NELEC, then body
lines ``value i j k l`` with 1-based indices in chemist ordering (ij|kl).
``i j 0 0`` lines are one-body elements, ``0 0 0 0`` is the core constant.
ORBSYM/ISYM/MS2 are accepted and ignored.

Auxiliary data uses a plain labeled format: ``#SECTION <name> <rows> <cols>``
followed by whitespace-separated row-major values.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import DataWarning, InputError
from .integrals import (
    AuxiliaryIntegrals,
    MolecularHamiltonian,
    from_pair_matrix,
    pair_matrix,
)

__all__ = [
    "parse_fcidump",
    "write_fcidump",
    "parse_auxiliary",
    "write_auxiliary",
    "read_labeled_matrix",
    "write_labeled_matrix",
]

_NAMELIST_KV = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z_][A-Za-z0-9_]*\s*=)|$)")


def _parse_namelist(lines: list[str]) -> tuple[dict, int]:
    """Return the &FCI key/value map and the index of the first body line."""
    if not lines or "&FCI" not in lines[0].upper():
        raise InputError("FCIDUMP must begin with a &FCI namelist")
    header = []
    end = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        upper = stripped.upper()
        header.append(stripped)
        if "&END" in upper or stripped == "/" or upper.endswith("/"):
            end = i
            break
    if end is None:
        raise InputError("unterminated &FCI namelist (missing &END or /)")
    blob = " ".join(header)
    blob = re.sub(r"&FCI|&END|/", " ", blob, flags=re.IGNORECASE)
    fields = {}
    for key, value in _NAMELIST_KV.findall(blob):
        fields[key.upper()] = value.strip().rstrip(",").strip()
    return fields, end + 1


def parse_fcidump(text: str) -> MolecularHamiltonian:
    """Parse FCIDUMP text (a string: read a file first) into a Hamiltonian.

    Later duplicates of the same canonical index tuple overwrite earlier
    ones; a conflicting duplicate (difference above 1e-10) emits a
    DataWarning rather than failing.
    """
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
    try:
        h = np.zeros((norb, norb))
        pairs = np.zeros((n_pairs, n_pairs))
        seen_h = bytearray(norb * norb)
        seen_g = bytearray(n_pairs * n_pairs)
    except (ValueError, MemoryError):  # too many elements, or too many bytes
        raise InputError(f"NORB={norb} is too large to allocate") from None
    # flat views: h slot p * norb + q (p >= q), g slot a * n_pairs + b (a >= b)
    h_flat = memoryview(h.reshape(-1))
    g_flat = memoryview(pairs.reshape(-1))
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
                raise InputError(
                    f"line {lineno}: index {idx} outside [0, {norb}]"
                )
        if i == j == k == l == 0:
            core = value
            continue
        if k == 0 and l == 0:
            if i == 0 or j == 0:
                raise InputError(f"line {lineno}: malformed index pattern {raw!r}")
            store, seen = h_flat, seen_h
            slot = (i - 1) * norb + j - 1 if i >= j else (j - 1) * norb + i - 1
        elif 0 in (i, j, k, l):
            raise InputError(f"line {lineno}: malformed index pattern {raw!r}")
        else:
            # pair indices of {i, j} and {k, l}, inline: this runs once per line
            a = i * (i - 1) // 2 + j - 1 if i >= j else j * (j - 1) // 2 + i - 1
            b = k * (k - 1) // 2 + l - 1 if k >= l else l * (l - 1) // 2 + k - 1
            store, seen = g_flat, seen_g
            slot = a * n_pairs + b if a >= b else b * n_pairs + a
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

    h += np.tril(h, -1).T  # h lines fill the lower triangle
    return MolecularHamiltonian(
        n_orbitals=norb,
        core_constant=core,
        one_body=h,
        two_body=from_pair_matrix(pairs, norb),
        n_electrons=nelec,
    )


def write_fcidump(ham: MolecularHamiltonian) -> str:
    """Emit FCIDUMP text: canonical two-body lines, one-body lines, core.

    One line per canonical tuple (p>=q, r>=s, (pq)>=(rs)) and one per
    lower-triangle h_pq (p>=q) with magnitude above 1e-12, in deterministic
    index order.  Values use repr precision, so parse(write(H)) reproduces
    bitwise every two-body entry, the lower triangle of h and the core
    constant; entries of magnitude 1e-12 or less read back as zero.  The
    upper triangle of h is rebuilt from the lower one, so all of h
    round-trips, because the ``MolecularHamiltonian`` constructor makes h
    exactly symmetric.
    """
    n = ham.n_orbitals
    nelec = ham.n_electrons if ham.n_electrons is not None else 0
    out = [
        f" &FCI NORB={n},NELEC={nelec},MS2=0,",
        "  ORBSYM=" + "1," * n,
        "  ISYM=1,",
        " &END",
    ]
    p, q, pairs = pair_matrix(ham.two_body)
    a, b = np.tril_indices(len(pairs))  # the canonical slots, in line order
    for values, labels in ((pairs[a, b], (p[a] + 1, q[a] + 1, p[b] + 1, q[b] + 1)),
                           (ham.one_body[p, q], (p + 1, q + 1, 0 * p, 0 * p))):
        keep = np.abs(values) > 1e-12
        columns = (x[keep].tolist() for x in (values, *labels))
        out.extend(map("{!r} {} {} {} {}".format, *columns))
    out.append(f"{ham.core_constant!r} 0 0 0 0")
    return "\n".join(out) + "\n"


_AUX_SECTIONS = (
    "OVERLAP",
    "MO_COEFF",
    "DIPOLE_X",
    "DIPOLE_Y",
    "DIPOLE_Z",
    "AO_ATOM_MAP",
    "ATOMIC_NUMBERS",
)


def _split_sections(lines: list[str]) -> dict[str, np.ndarray]:
    sections: dict[str, np.ndarray] = {}
    name = None
    shape = None
    values: list[float] = []

    def close():
        if name is None:
            return
        expected = shape[0] * shape[1]
        if len(values) != expected:
            raise InputError(
                f"section {name}: expected {expected} values "
                f"({shape[0]}x{shape[1]}), got {len(values)}"
            )
        sections[name] = np.array(values).reshape(shape)

    for raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("#SECTION"):
            close()
            parts = stripped.split()
            if len(parts) != 4:
                raise InputError(f"bad section header {stripped!r}")
            name = parts[1].upper()
            if name in sections:
                raise InputError(f"duplicate section {name}")
            if not (parts[2].isdecimal() and parts[3].isdecimal()):
                raise InputError(f"bad dimensions in header {stripped!r}")
            shape = (int(parts[2]), int(parts[3]))
            values = []
        else:
            if name is None:
                raise InputError("data before any #SECTION header")
            try:
                values.extend(float(t) for t in stripped.split())
            except ValueError:
                raise InputError(f"non-numeric value in section {name}: {stripped!r}") from None
    close()
    return sections


def parse_auxiliary(text: str) -> AuxiliaryIntegrals:
    """Parse labeled-section auxiliary text into AuxiliaryIntegrals."""
    sections = _split_sections(text.splitlines())
    unknown = [name for name in sections if name not in _AUX_SECTIONS]
    if unknown:
        raise InputError(f"unknown section name {unknown[0]!r}")
    dipoles = [sections.get(f"DIPOLE_{axis}") for axis in "XYZ"]
    present = [d for d in dipoles if d is not None]
    if present and (len(present) != 3 or len({d.shape for d in present}) != 1):
        raise InputError("DIPOLE_X, DIPOLE_Y and DIPOLE_Z must be given together "
                         "and have one shape")
    dipole = np.stack(present) if len(present) == 3 else None

    def vector(name):
        arr = sections.get(name)
        if arr is None:
            return None
        return arr.reshape(-1)

    atom_map = vector("AO_ATOM_MAP")
    if atom_map is not None:
        if not np.all(np.isfinite(atom_map) & (atom_map == np.round(atom_map))):
            raise InputError("AO_ATOM_MAP entries must be integers")
        atom_map = tuple(int(a) for a in atom_map)
    charges = vector("ATOMIC_NUMBERS")
    return AuxiliaryIntegrals(
        ao_overlap=sections.get("OVERLAP"),
        mo_coefficients=sections.get("MO_COEFF"),
        ao_to_atom=atom_map,
        atomic_numbers=tuple(charges) if charges is not None else None,
        dipole_ao=dipole,
    )


def write_labeled_matrix(name: str, matrix: np.ndarray) -> str:
    """One #SECTION block of the labeled-matrix format."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = matrix.shape
    lines = [f"#SECTION {name.upper()} {rows} {cols}"]
    for row in matrix:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_labeled_matrix(text: str) -> np.ndarray:
    """Read one matrix back from labeled text (or a bare numeric table).

    Labeled text follows the section rules of ``parse_auxiliary`` with any
    section names; the result is the last section.
    """
    lines = text.splitlines()
    if not any(line.strip().startswith("#SECTION") for line in lines):
        rows = [ln.split() for ln in lines if ln.strip()[:2] not in ("", "//")]
        if not rows:
            raise InputError("empty matrix file")
        if any(len(row) != len(rows[0]) for row in rows):
            raise InputError("matrix rows differ in length")
        lines = [f"#SECTION MATRIX {len(rows)} {len(rows[0])}", *lines]
    return list(_split_sections(lines).values())[-1]


def write_auxiliary(aux: AuxiliaryIntegrals) -> str:
    """Serialize AuxiliaryIntegrals back to the labeled-section format."""
    chunks = []
    if aux.ao_overlap is not None:
        chunks.append(write_labeled_matrix("OVERLAP", aux.ao_overlap))
    if aux.mo_coefficients is not None:
        chunks.append(write_labeled_matrix("MO_COEFF", aux.mo_coefficients))
    if aux.dipole_ao is not None:
        for k, axis in enumerate("XYZ"):
            chunks.append(write_labeled_matrix(f"DIPOLE_{axis}", aux.dipole_ao[k]))
    if aux.ao_to_atom is not None:
        chunks.append(
            write_labeled_matrix("AO_ATOM_MAP", np.array(aux.ao_to_atom, dtype=float).reshape(1, -1))
        )
    if aux.atomic_numbers is not None:
        chunks.append(
            write_labeled_matrix("ATOMIC_NUMBERS", np.array(aux.atomic_numbers).reshape(1, -1))
        )
    return "".join(chunks)
