"""FCIDUMP and labeled-matrix text formats.

FCIDUMP: a ``&FCI`` namelist declaring at least NORB and NELEC, then body
lines ``value i j k l`` with 1-based indices in chemist ordering (ij|kl).
``i j 0 0`` lines are one-body elements, ``0 0 0 0`` is the core constant.
ORBSYM/ISYM/MS2 are accepted and ignored.

Auxiliary data uses a plain labeled format: ``#SECTION <name> <rows> <cols>``
followed by whitespace-separated row-major values.  ATOMIC_NUMBERS is
accepted and ignored.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import DataWarning, InputError
from .integrals import (
    AuxiliaryIntegrals,
    MolecularHamiltonian,
    known_electron_count,
    pair_index,
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


_BODY_ROW = np.dtype([("value", "f8"), ("i", "i4"), ("j", "i4"), ("k", "i4"), ("l", "i4")])


def parse_number(text: str, kind=float):
    """``kind(text)`` under the one number grammar of every input file,
    that of ``np.loadtxt``: ASCII, no underscores.  ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


def _body_linenos(lines: list[str], body_start: int) -> list[int]:
    """The 1-based line number of each body row: row r is the r-th non-blank line."""
    return [n for n, raw in enumerate(lines[body_start:], start=body_start + 1) if raw.strip()]


def _scan_tokens(lines: list[str], body_start: int):
    """The index rows of the body lines before the first that breaks a token
    rule (count, numeric value, integer indices), and that line's InputError
    or None: the line-by-line read that follows a failed whole-body read."""
    rows = []
    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            return rows, InputError(f"line {lineno}: expected 'value i j k l', got {raw!r}")
        try:
            parse_number(tokens[0])
        except ValueError:
            return rows, InputError(f"line {lineno}: non-numeric value {tokens[0]!r}")
        try:
            rows.append([parse_number(t, int) for t in tokens[1:]])
        except ValueError:
            return rows, InputError(f"line {lineno}: non-integer index in {raw!r}")
    return rows, None


def _check_indices(i, j, k, l, norb: int, lines: list[str], body_start: int):
    """Raise the InputError of the first body row whose indices break a
    rule: its first index, in i j k l order, outside [0, norb], else a
    pattern other than core 0 0 0 0, one-body i j 0 0 and two-body i j k l."""
    outside = [(x < 0) | (x > norb) for x in (i, j, k, l)]
    one = (k == 0) & (l == 0)
    valid = one & (i == 0) & (j == 0) | (i > 0) & (j > 0) & (one | (k > 0) & (l > 0))
    bad = np.flatnonzero(np.logical_not(valid) | np.logical_or.reduce(outside))
    if len(bad) == 0:
        return
    row = bad[0]
    lineno = _body_linenos(lines, body_start)[row]
    out_of_range = [x[row] for x, out in zip((i, j, k, l), outside) if out[row]]
    if out_of_range:
        raise InputError(f"line {lineno}: index {out_of_range[0]} outside [0, {norb}]")
    raise InputError(f"line {lineno}: malformed index pattern {lines[lineno - 1]!r}")


def _read_rows(lines: list[str], body_start: int, norb: int) -> np.ndarray:
    """The body lines ``value i j k l`` as rows of one ``np.loadtxt`` pass,
    with whole-array index checks.  Only a failed read goes line by line, and
    an index error before its first bad line is raised first."""
    body = lines[body_start:]
    if not any(map(str.strip, body)):  # loadtxt warns on an empty body
        return np.zeros(0, _BODY_ROW)
    try:
        rows = np.loadtxt(body, dtype=_BODY_ROW, comments=None, ndmin=1)
    except ValueError as exc:
        before, error = _scan_tokens(lines, body_start)
        # object rows: an index too large for the loadtxt dtype is out of range
        _check_indices(*np.array(before, dtype=object).reshape(-1, 4).T, norb, lines, body_start)
        raise error or InputError(f"unreadable FCIDUMP body: {exc}") from None
    _check_indices(*(rows[c] for c in "ijkl"), norb, lines, body_start)
    return rows


def _allocate(norb: int, ndim: int) -> np.ndarray:
    """Zeros of shape (norb,) * ndim; InputError for a NORB whose N^4
    tensor numpy cannot hold, before any slot key is computed from it."""
    try:
        if norb**4 * 8 <= np.iinfo(np.intp).max:  # numpy's own limit on the bytes
            return np.zeros((norb,) * ndim)
    except MemoryError:
        pass
    raise InputError(f"NORB={norb} is too large to allocate")


def _scatter(rows: np.ndarray, h: np.ndarray):
    """Store the last row of each slot: one-body rows in the lower triangle
    of h; two-body slots are those of the lower triangle of the (pq|rs)
    pair matrix.

    Returns the core constant, the conflicting duplicates, each as
    ``(row, old value, new value)``, in row order, and the 0-based
    ``(i, j, k, l, value)`` arrays of the last two-body row of each slot.
    """
    norb = len(h)
    n_pairs = norb * (norb + 1) // 2
    i, j, k, l = (rows[c].astype(np.int64) - 1 for c in "ijkl")
    a, b = pair_index(i, j), pair_index(k, l)
    # one key space: the core -1, g slots a * P + b (a >= b), then h slots
    # P^2 + p * N + q (p >= q)
    key = np.maximum(a, b) * n_pairs + np.minimum(a, b)
    one = k < 0
    key[one] = n_pairs * n_pairs + (np.maximum(i, j) * norb + np.minimum(i, j))[one]
    key[i < 0] = -1
    order = np.argsort(key, kind="stable")  # equal slots stay in row order
    key, value = key[order], rows["value"][order]
    last = np.ones(len(key), dtype=bool)  # the last row of each slot wins
    last[:-1] = key[1:] != key[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf: no conflict, as for nan
        at = np.flatnonzero(~last[:-1] & (key[:-1] >= 0)
                            & (np.abs(value[1:] - value[:-1]) > 1e-10))
    at = at[np.argsort(order[at + 1])]
    conflicts = list(zip(order[at + 1].tolist(), value[at].tolist(), value[at + 1].tolist()))
    key, value, order = key[last], value[last], order[last]
    core = float(value[0]) if len(key) and key[0] < 0 else 0.0
    lo, hi = np.searchsorted(key, [0, n_pairs * n_pairs])
    h.reshape(-1)[key[hi:] - n_pairs * n_pairs] = value[hi:]
    kept = order[lo:hi]
    return core, conflicts, (i[kept], j[kept], k[kept], l[kept], value[lo:hi])


def _write_images(g: np.ndarray, i, j, k, l, value):
    """Write each value to the eight images of its (ij|kl) in g: the
    offsets bra N^2 + ket and ket N^2 + bra, over bra in {iN + j, jN + i}
    and ket in {kN + l, lN + k}."""
    n = len(g)
    flat = g.reshape(-1)
    for bra in (i * n + j, j * n + i):
        for ket in (k * n + l, l * n + k):
            flat[bra * n * n + ket] = flat[ket * n * n + bra] = value


def parse_fcidump(text: str) -> MolecularHamiltonian:
    """Parse FCIDUMP text (a string: read a file first) into a Hamiltonian.

    Later duplicates of the same canonical index tuple overwrite earlier
    ones; a conflicting duplicate (difference above 1e-10) emits a
    DataWarning rather than failing.  Each kept two-body value is written
    to its eight images, and the constructor checks and fills the tensor.
    """
    lines = text.splitlines()
    fields, body_start = _parse_namelist(lines)
    try:
        norb = parse_number(fields["NORB"], int)
        nelec = parse_number(fields["NELEC"], int)
    except KeyError as missing:
        raise InputError(f"&FCI namelist must declare {missing.args[0]}") from None
    except ValueError:
        raise InputError("NORB and NELEC must be integers") from None
    if norb < 0:
        raise InputError("NORB must be non-negative")

    h = _allocate(norb, 2)
    rows = _read_rows(lines, body_start, norb)
    del lines  # the line list outweighs every array built below
    core, conflicts, kept = _scatter(rows, h)
    if conflicts:
        linenos = _body_linenos(text.splitlines(), body_start)
        for row, old, new in conflicts:
            i, j, k, l = rows[row].tolist()[1:]
            name = f"h[{i},{j}]" if k == 0 else f"g[{i},{j},{k},{l}]"
            warnings.warn(
                f"line {linenos[row]}: conflicting duplicate for {name} ({old!r} -> {new!r})",
                DataWarning,
                stacklevel=2,
            )
    del rows

    h += np.tril(h, -1).T  # h lines fill the lower triangle
    two_body = _allocate(norb, 4)
    _write_images(two_body, *kept)
    del kept
    return MolecularHamiltonian(
        n_orbitals=norb,
        core_constant=core,
        one_body=h,
        two_body=two_body,
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
    exactly symmetric.  A Hamiltonian with no electron count is refused,
    since NELEC is a required field.
    """
    n = ham.n_orbitals
    nelec = known_electron_count(ham.n_electrons)
    out = [
        f" &FCI NORB={n},NELEC={nelec},MS2=0,\n",
        "  ORBSYM=" + "1," * n + "\n",
        "  ISYM=1,\n",
        " &END\n",
    ]
    p, q, pairs = pair_matrix(ham.two_body)
    labels = np.array([*map("{} {}".format, (p + 1).tolist(), (q + 1).tolist())], dtype=object)
    zeros = np.full(len(labels), "0 0", dtype=object)  # the k l of one-body lines
    a, b = np.tril_indices(len(pairs))  # the canonical slots, in line order
    for values, left, right in ((pairs[a, b], labels[a], labels[b]),
                                (ham.one_body[p, q], labels, zeros)):
        keep = np.abs(values) > 1e-12
        table = np.empty((np.count_nonzero(keep), 3), dtype=object)
        table[:, 0] = values[keep]  # as Python floats, so %r is their repr
        table[:, 1] = left[keep]
        table[:, 2] = right[keep]
        out.append(("%r %s %s\n" * len(table)) % tuple(table.ravel()))
    out.append(f"{ham.core_constant!r} 0 0 0 0\n")
    return "".join(out)


_AUX_SECTIONS = ("OVERLAP", "MO_COEFF", "DIPOLE_X", "DIPOLE_Y", "DIPOLE_Z", "AO_ATOM_MAP")


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
            if not all(t.isascii() and t.isdecimal() for t in parts[2:]):  # counts: digits only
                raise InputError(f"bad dimensions in header {stripped!r}")
            shape = (int(parts[2]), int(parts[3]))
            values = []
        else:
            if name is None:
                raise InputError("data before any #SECTION header")
            try:
                values.extend(parse_number(t) for t in stripped.split())
            except ValueError:
                raise InputError(f"non-numeric value in section {name}: {stripped!r}") from None
    close()
    return sections


def parse_auxiliary(text: str) -> AuxiliaryIntegrals:
    """Parse labeled-section auxiliary text into AuxiliaryIntegrals.

    Checks the section syntax and stacks DIPOLE_X/Y/Z; the constructor
    checks the values.  An ATOMIC_NUMBERS section passes the syntax checks
    and is dropped: no scheme reads it.
    """
    sections = _split_sections(text.splitlines())
    unknown = [name for name in sections if name not in (*_AUX_SECTIONS, "ATOMIC_NUMBERS")]
    if unknown:
        raise InputError(f"unknown section name {unknown[0]!r}")
    dipoles = [sections.get(f"DIPOLE_{axis}") for axis in "XYZ"]
    present = [d for d in dipoles if d is not None]
    if present and (len(present) != 3 or len({d.shape for d in present}) != 1):
        raise InputError("DIPOLE_X, DIPOLE_Y and DIPOLE_Z must be given together "
                         "and have one shape")

    atoms = sections.get("AO_ATOM_MAP")
    return AuxiliaryIntegrals(
        ao_overlap=sections.get("OVERLAP"),
        mo_coefficients=sections.get("MO_COEFF"),
        ao_to_atom=None if atoms is None else atoms.reshape(-1),
        dipole_ao=np.stack(present) if present else None,
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
    dipoles = [None] * 3 if aux.dipole_ao is None else list(aux.dipole_ao)
    sections = zip(_AUX_SECTIONS, (aux.ao_overlap, aux.mo_coefficients, *dipoles,
                                   aux.ao_to_atom))
    return "".join(write_labeled_matrix(name, value)  # a vector is one row
                   for name, value in sections if value is not None)
