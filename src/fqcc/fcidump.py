"""FCIDUMP (Molpro-style) ingestion.

Spatial-orbital integrals in chemist notation (ij|kl) with 1-based indices
are parsed, the 8-fold permutational symmetry of real integrals is expanded,
and the record converts to spin-orbital coefficients in the interleaved
convention (even mode = alpha spin).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .fermions import FockData, MolecularHamiltonian


class FcidumpError(ValueError):
    """Raised for malformed FCIDUMP content, carrying a line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(slots=True)
class FcidumpRecord:
    """Parsed spatial-orbital data, still in chemist notation (1-based origin)."""

    norb: int
    nelec: int
    ms2: int = 0
    orbsym: tuple = ()
    isym: int = 1
    core_energy: float = 0.0
    h1: np.ndarray = None
    g2: np.ndarray = None
    orbital_energies: np.ndarray = None

    def to_spin_orbital(self):
        """(MolecularHamiltonian, FockData) in the interleaved convention.

        The two-body piece is (1/2) sum over spatial pqrs and spins sig, tau of
        (pq|rs) a+_{p,sig} a+_{r,tau} a_{s,tau} a_{q,sig}.
        """
        n = self.norb
        h1 = {}
        for p in range(n):
            for q in range(n):
                v = float(self.h1[p, q])
                if v == 0.0:
                    continue
                for sp in (0, 1):
                    h1[(2 * p + sp, 2 * q + sp)] = v
        h2 = {}
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        v = float(self.g2[p, q, r, s])
                        if v == 0.0:
                            continue
                        for sp in (0, 1):
                            for tau in (0, 1):
                                cp, cq = 2 * p + sp, 2 * q + sp
                                cr, cs = 2 * r + tau, 2 * s + tau
                                if cp == cr or cs == cq:
                                    continue
                                key = (cp, cr, cs, cq)
                                h2[key] = h2.get(key, 0.0) + 0.5 * v
        ham = MolecularHamiltonian(
            2 * n, core_energy=self.core_energy, h1=h1, h2=h2
        )
        energies = {
            2 * p + sp: float(self.orbital_energies[p])
            for p in range(n)
            for sp in (0, 1)
        }
        return ham, FockData(energies, self.nelec)


_HEADER_INT = {"NORB", "NELEC", "MS2", "ISYM"}


def _parse_header(head):
    flat = head.replace("\n", " ").replace(",", " ")
    if "&FCI" not in flat.upper():
        raise FcidumpError("missing &FCI header", line_no=1)
    fields = {}
    orbsym = []
    for m in re.finditer(r"([A-Za-z0-9_]+)\s*=\s*([^=&]*?)(?=[A-Za-z0-9_]+\s*=|$)", flat):
        key = m.group(1).upper()
        raw = m.group(2).split()
        if key in _HEADER_INT:
            if not raw:
                raise FcidumpError(f"empty header field {key}", line_no=1)
            try:
                fields[key] = int(raw[0])
            except ValueError as exc:
                raise FcidumpError(f"bad integer for {key}: {raw[0]!r}", line_no=1) from exc
        elif key == "ORBSYM":
            try:
                orbsym = [int(tok) for tok in raw]
            except ValueError as exc:
                raise FcidumpError("bad ORBSYM entry", line_no=1) from exc
    for required in ("NORB", "NELEC"):
        if required not in fields:
            raise FcidumpError(f"header is missing {required}", line_no=1)
    return fields, tuple(orbsym)


def _closed_shell_fock_diagonal(h1, g2, nelec):
    """Orbital energies f_pp = h_pp + sum_{i occ} 2 (pp|ii) - (pi|ip).

    The orbitals are taken as RHF canonical orbitals with the lowest
    ``nelec / 2`` doubly occupied; an open shell has no such Fock operator.
    """
    norb = h1.shape[0]
    if nelec % 2 or not 0 <= nelec <= 2 * norb:
        raise FcidumpError(
            f"no orbital energies given, and NELEC={nelec} has no closed-shell "
            f"occupation of {norb} orbitals to derive them from"
        )
    m = nelec // 2
    coulomb = np.einsum("ppii->p", g2[:, :, :m, :m])
    exchange = np.einsum("piip->p", g2[:, :m, :m, :])
    return np.diag(h1) + 2.0 * coulomb - exchange


def parse_fcidump(text):
    """Parse FCIDUMP text into an FcidumpRecord.

    Orbital energies are optional in the format; without them they are
    derived from the closed-shell Fock diagonal.  A file that gives some
    orbital energies must give all of them, and NELEC must lie in
    0..2*NORB.
    """
    head, sep, body = text.partition("&END")
    if not sep:
        head, sep, body = text.partition("/")
    if not sep:
        raise FcidumpError("header has no &END (or /) terminator", line_no=1)
    header_lines = head.count("\n") + 1
    fields, orbsym = _parse_header(head)
    norb = fields["NORB"]
    nelec = fields["NELEC"]
    if norb <= 0:
        raise FcidumpError("NORB must be positive", line_no=1)

    h1 = np.zeros((norb, norb))
    g2 = np.zeros((norb, norb, norb, norb))
    eps = {}  # 1-based orbital -> the energy the file states
    core = 0.0
    for offset, line in enumerate(body.splitlines()):
        line_no = header_lines + offset
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise FcidumpError(
                f"expected 'value i j k l', found {len(parts)} fields", line_no=line_no
            )
        try:
            v = float(parts[0])
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise FcidumpError(f"unparsable data line {stripped!r}", line_no=line_no) from exc
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise FcidumpError(
                    f"orbital index {idx} outside 1..{norb}", line_no=line_no
                )
        if i == j == k == l == 0:
            core = v
        elif j == k == l == 0:
            eps[i] = v
        elif k == l == 0:
            if i == 0 or j == 0:
                raise FcidumpError("one-body entry with a zero index", line_no=line_no)
            h1[i - 1, j - 1] = v
            h1[j - 1, i - 1] = v
        else:
            if 0 in (i, j, k, l):
                raise FcidumpError("two-body entry with a zero index", line_no=line_no)
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    g2[a, b, c, d] = v
                    g2[c, d, a, b] = v
    if not eps:
        energies = _closed_shell_fock_diagonal(h1, g2, nelec)
    else:
        if not 0 <= nelec <= 2 * norb:
            raise FcidumpError(
                f"NELEC={nelec} is outside 0..{2 * norb} for NORB={norb}", line_no=1
            )
        missing = [str(p) for p in range(1, norb + 1) if p not in eps]
        if missing:
            raise FcidumpError(
                f"orbital energies are given, but not for orbitals {', '.join(missing)}"
            )
        energies = np.array([eps[p] for p in range(1, norb + 1)])
    return FcidumpRecord(
        norb=norb,
        nelec=nelec,
        ms2=fields.get("MS2", 0),
        orbsym=orbsym,
        isym=fields.get("ISYM", 1),
        core_energy=core,
        h1=h1,
        g2=g2,
        orbital_energies=energies,
    )


def load_fcidump(path):
    with open(path) as fh:
        return parse_fcidump(fh.read())
