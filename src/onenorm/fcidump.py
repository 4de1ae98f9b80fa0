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
from typing import IO, Iterable

import numpy as np

from .errors import DataWarning, InputError
from .integrals import (
    AuxiliaryIntegrals,
    MolecularHamiltonian,
    fill_from_canonical,
    pair_index,
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


def _as_lines(text) -> list[str]:
    if hasattr(text, "read"):
        text = text.read()
    return str(text).splitlines()


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


def parse_fcidump(text) -> MolecularHamiltonian:
    """Parse FCIDUMP text (string or readable stream) into a Hamiltonian.

    Later duplicates of the same canonical index tuple overwrite earlier
    ones; a conflicting duplicate (difference above 1e-10) emits a
    DataWarning rather than failing.
    """
    lines = _as_lines(text)
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

    h = np.zeros((norb, norb))
    g = np.zeros((norb,) * 4)
    seen_h = np.zeros((norb, norb), dtype=bool)
    seen_g = np.zeros(g.shape, dtype=bool)
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
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise InputError(f"line {lineno}: malformed index pattern {raw!r}")
            p, q = i - 1, j - 1
            hi, lo = max(p, q), min(p, q)
            if seen_h[hi, lo] and abs(h[hi, lo] - value) > 1e-10:
                warnings.warn(
                    f"line {lineno}: conflicting duplicate for h[{i},{j}] "
                    f"({h[hi, lo]!r} -> {value!r})",
                    DataWarning,
                    stacklevel=2,
                )
            h[hi, lo] = h[lo, hi] = value
            seen_h[hi, lo] = True
        elif 0 in (i, j, k, l):
            raise InputError(f"line {lineno}: malformed index pattern {raw!r}")
        else:
            p, q = max(i, j) - 1, min(i, j) - 1
            r, s = max(k, l) - 1, min(k, l) - 1
            if p * (p + 1) // 2 + q < r * (r + 1) // 2 + s:
                p, q, r, s = r, s, p, q
            c = (p, q, r, s)  # canonical slot
            if seen_g[c] and abs(g[c] - value) > 1e-10:
                warnings.warn(
                    f"line {lineno}: conflicting duplicate for g[{i},{j},{k},{l}] "
                    f"({g[c]!r} -> {value!r})",
                    DataWarning,
                    stacklevel=2,
                )
            g[c] = value
            seen_g[c] = True

    return MolecularHamiltonian(
        n_orbitals=norb,
        core_constant=core,
        one_body=h,
        two_body=fill_from_canonical(g),
        n_electrons=nelec,
    )


def write_fcidump(ham: MolecularHamiltonian, stream: IO[str] | None = None) -> str | None:
    """Emit FCIDUMP text: canonical two-body lines, one-body lines, core.

    One line per canonical tuple (p>=q, r>=s, (pq)>=(rs)) and one per
    lower-triangle h_pq (p>=q) with magnitude above 1e-12, in deterministic
    index order.  Values use repr precision, so parse(write(H)) reproduces
    bitwise every two-body entry, the lower triangle of h and the core
    constant; entries of magnitude 1e-12 or less read back as zero.  The
    upper triangle of h is rebuilt from the lower one, so it round-trips
    only where h is exactly symmetric (a rotated h can differ from its
    transpose in the last bit).
    """
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
                    value = ham.g(p, q, r, s)
                    if abs(value) > 1e-12:
                        out.append(f"{value!r} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p in range(n):
        for q in range(p + 1):
            value = float(ham.one_body[p, q])
            if abs(value) > 1e-12:
                out.append(f"{value!r} {p + 1} {q + 1} 0 0")
    out.append(f"{ham.core_constant!r} 0 0 0 0")
    text = "\n".join(out) + "\n"
    if stream is not None:
        stream.write(text)
        return None
    return text


_AUX_SECTIONS = (
    "OVERLAP",
    "MO_COEFF",
    "DIPOLE_X",
    "DIPOLE_Y",
    "DIPOLE_Z",
    "AO_ATOM_MAP",
    "ATOMIC_NUMBERS",
)


def _split_sections(lines: Iterable[str]) -> dict[str, np.ndarray]:
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
            if name not in _AUX_SECTIONS:
                raise InputError(f"unknown section name {parts[1]!r}")
            if name in sections:
                raise InputError(f"duplicate section {name}")
            try:
                shape = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise InputError(f"bad dimensions in header {stripped!r}") from None
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


def parse_auxiliary(text) -> AuxiliaryIntegrals:
    """Parse labeled-section auxiliary data into AuxiliaryIntegrals."""
    sections = _split_sections(_as_lines(text))
    dipoles = [sections.get(f"DIPOLE_{axis}") for axis in "XYZ"]
    present = [d for d in dipoles if d is not None]
    if present and len(present) != 3:
        raise InputError("DIPOLE_X, DIPOLE_Y and DIPOLE_Z must be given together")
    dipole = np.stack(present) if len(present) == 3 else None

    def vector(name):
        arr = sections.get(name)
        if arr is None:
            return None
        return arr.reshape(-1)

    atom_map = vector("AO_ATOM_MAP")
    if atom_map is not None:
        if np.any(atom_map != np.round(atom_map)):
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


def read_labeled_matrix(text, name: str | None = None) -> np.ndarray:
    """Read one matrix back from labeled text (or a bare numeric table)."""
    lines = _as_lines(text)
    if any(line.strip().startswith("#SECTION") for line in lines):
        header_re = re.compile(r"#SECTION\s+(\S+)\s+(\d+)\s+(\d+)")
        collected = None
        current = None
        for raw in lines:
            m = header_re.match(raw.strip())
            if m:
                current = (m.group(1).upper(), int(m.group(2)), int(m.group(3)), [])
                if name is None or current[0] == name.upper():
                    collected = current
                continue
            if current is not None and raw.strip():
                current[3].extend(float(t) for t in raw.split())
        if collected is None:
            raise InputError(f"section {name!r} not found")
        _, rows, cols, values = collected
        if len(values) != rows * cols:
            raise InputError(f"section {collected[0]}: wrong number of values")
        return np.array(values).reshape(rows, cols)
    rows = [[float(t) for t in line.split()] for line in lines if line.strip()]
    if not rows:
        raise InputError("empty matrix file")
    return np.array(rows)


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
