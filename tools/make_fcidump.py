#!/usr/bin/env python3
"""Generate STO-3G FCIDUMP fixtures for the test suite.

Self-contained Gaussian-integral + restricted-Hartree-Fock generator kept
outside the installed package: fixtures are produced once and committed.
Integrals use the McMurchie-Davidson scheme (Hermite expansion coefficients
plus the Boys function); the SCF is a plain closed-shell Roothaan iteration,
adequate for the tiny molecules shipped here.

Usage: python3 make_fcidump.py {h2|h4|water} [output-path]
"""

import sys
from functools import lru_cache

import numpy as np
from scipy.special import hyp1f1

ANGSTROM_TO_BOHR = 1.8897259886

STO3G = {
    "H": [
        ("s", [3.42525091, 0.62391373, 0.16885540], [0.15432897, 0.53532814, 0.44463454]),
    ],
    "O": [
        ("s", [130.70932, 23.808861, 6.4436083], [0.15432897, 0.53532814, 0.44463454]),
        ("s", [5.0331513, 1.1695961, 0.3803890], [-0.09996723, 0.39951283, 0.70011547]),
        ("p", [5.0331513, 1.1695961, 0.3803890], [0.15591627, 0.60768372, 0.39195739]),
    ],
}

CHARGE = {"H": 1, "O": 8}


def boys(n, x):
    return hyp1f1(n + 0.5, n + 1.5, -x) / (2.0 * n + 1.0)


@lru_cache(maxsize=None)
def hermite_e(i, j, t, q_x, a, b):
    """Hermite expansion coefficient E_t^{ij} for a Gaussian product."""
    p = a + b
    q = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return np.exp(-q * q_x * q_x)
    if j == 0:
        return (
            hermite_e(i - 1, j, t - 1, q_x, a, b) / (2 * p)
            - q * q_x / a * hermite_e(i - 1, j, t, q_x, a, b)
            + (t + 1) * hermite_e(i - 1, j, t + 1, q_x, a, b)
        )
    return (
        hermite_e(i, j - 1, t - 1, q_x, a, b) / (2 * p)
        + q * q_x / b * hermite_e(i, j - 1, t, q_x, a, b)
        + (t + 1) * hermite_e(i, j - 1, t + 1, q_x, a, b)
    )


@lru_cache(maxsize=None)
def hermite_r(t, u, v, n, p, pcx, pcy, pcz, rpc2):
    """Auxiliary Hermite Coulomb integral R^n_{tuv}."""
    if t == u == v == 0:
        return (-2.0 * p) ** n * boys(n, p * rpc2)
    if t > 0:
        val = pcx * hermite_r(t - 1, u, v, n + 1, p, pcx, pcy, pcz, rpc2)
        if t > 1:
            val += (t - 1) * hermite_r(t - 2, u, v, n + 1, p, pcx, pcy, pcz, rpc2)
        return val
    if u > 0:
        val = pcy * hermite_r(t, u - 1, v, n + 1, p, pcx, pcy, pcz, rpc2)
        if u > 1:
            val += (u - 1) * hermite_r(t, u - 2, v, n + 1, p, pcx, pcy, pcz, rpc2)
        return val
    val = pcz * hermite_r(t, u, v - 1, n + 1, p, pcx, pcy, pcz, rpc2)
    if v > 1:
        val += (v - 1) * hermite_r(t, u, v - 2, n + 1, p, pcx, pcy, pcz, rpc2)
    return val


def overlap_prim(a, lmn1, ra, b, lmn2, rb):
    p = a + b
    out = (np.pi / p) ** 1.5
    for k in range(3):
        out *= hermite_e(lmn1[k], lmn2[k], 0, ra[k] - rb[k], a, b)
    return out


def kinetic_prim(a, lmn1, ra, b, lmn2, rb):
    l2, m2, n2 = lmn2
    term = b * (2 * (l2 + m2 + n2) + 3) * overlap_prim(a, lmn1, ra, b, lmn2, rb)
    term += -2 * b**2 * (
        overlap_prim(a, lmn1, ra, b, (l2 + 2, m2, n2), rb)
        + overlap_prim(a, lmn1, ra, b, (l2, m2 + 2, n2), rb)
        + overlap_prim(a, lmn1, ra, b, (l2, m2, n2 + 2), rb)
    )
    term += -0.5 * (
        l2 * (l2 - 1) * overlap_prim(a, lmn1, ra, b, (l2 - 2, m2, n2), rb)
        + m2 * (m2 - 1) * overlap_prim(a, lmn1, ra, b, (l2, m2 - 2, n2), rb)
        + n2 * (n2 - 1) * overlap_prim(a, lmn1, ra, b, (l2, m2, n2 - 2), rb)
    )
    return term


def nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc):
    p = a + b
    rp = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    pc = rp - np.asarray(rc)
    rpc2 = float(pc @ pc)
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                val += (
                    hermite_e(lmn1[0], lmn2[0], t, ra[0] - rb[0], a, b)
                    * hermite_e(lmn1[1], lmn2[1], u, ra[1] - rb[1], a, b)
                    * hermite_e(lmn1[2], lmn2[2], v, ra[2] - rb[2], a, b)
                    * hermite_r(t, u, v, 0, p, pc[0], pc[1], pc[2], rpc2)
                )
    return 2 * np.pi / p * val


def eri_prim(a, lmn1, ra, b, lmn2, rb, c, lmn3, rc, d, lmn4, rd):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    rp = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    rq = (c * np.asarray(rc) + d * np.asarray(rd)) / q
    pq = rp - rq
    rpq2 = float(pq @ pq)
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                e1 = (
                    hermite_e(lmn1[0], lmn2[0], t, ra[0] - rb[0], a, b)
                    * hermite_e(lmn1[1], lmn2[1], u, ra[1] - rb[1], a, b)
                    * hermite_e(lmn1[2], lmn2[2], v, ra[2] - rb[2], a, b)
                )
                if e1 == 0.0:
                    continue
                for tt in range(lmn3[0] + lmn4[0] + 1):
                    for uu in range(lmn3[1] + lmn4[1] + 1):
                        for vv in range(lmn3[2] + lmn4[2] + 1):
                            e2 = (
                                hermite_e(lmn3[0], lmn4[0], tt, rc[0] - rd[0], c, d)
                                * hermite_e(lmn3[1], lmn4[1], uu, rc[1] - rd[1], c, d)
                                * hermite_e(lmn3[2], lmn4[2], vv, rc[2] - rd[2], c, d)
                            )
                            if e2 == 0.0:
                                continue
                            val += (
                                e1
                                * e2
                                * (-1) ** (tt + uu + vv)
                                * hermite_r(
                                    t + tt, u + uu, v + vv, 0, alpha,
                                    pq[0], pq[1], pq[2], rpq2,
                                )
                            )
    return val * 2 * np.pi**2.5 / (p * q * np.sqrt(p + q))


def _prim_norm(a, lmn):
    l, m, n = lmn

    def dfact(k):
        out = 1
        while k > 1:
            out *= k
            k -= 2
        return out

    num = (2 * a / np.pi) ** 0.75 * (4 * a) ** ((l + m + n) / 2.0)
    return num / np.sqrt(dfact(2 * l - 1) * dfact(2 * m - 1) * dfact(2 * n - 1))


class BasisFunction:
    def __init__(self, origin, lmn, exps, coeffs):
        self.origin = tuple(float(x) for x in origin)
        self.lmn = tuple(lmn)
        self.exps = list(exps)
        raw = [c * _prim_norm(a, lmn) for a, c in zip(exps, coeffs)]
        # renormalize the contracted function
        s = 0.0
        for ai, ci in zip(exps, raw):
            for aj, cj in zip(exps, raw):
                s += ci * cj * overlap_prim(ai, lmn, self.origin, aj, lmn, self.origin)
        self.coeffs = [c / np.sqrt(s) for c in raw]


def build_basis(atoms):
    basis = []
    for symbol, xyz in atoms:
        for shell, exps, coeffs in STO3G[symbol]:
            if shell == "s":
                basis.append(BasisFunction(xyz, (0, 0, 0), exps, coeffs))
            else:
                for lmn in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    basis.append(BasisFunction(xyz, lmn, exps, coeffs))
    return basis


def contracted(fn, bf1, bf2, *extra):
    out = 0.0
    for a, ca in zip(bf1.exps, bf1.coeffs):
        for b, cb in zip(bf2.exps, bf2.coeffs):
            out += ca * cb * fn(a, bf1.lmn, bf1.origin, b, bf2.lmn, bf2.origin, *extra)
    return out


def integrals(atoms):
    basis = build_basis(atoms)
    n = len(basis)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            S[i, j] = S[j, i] = contracted(overlap_prim, basis[i], basis[j])
            T[i, j] = T[j, i] = contracted(kinetic_prim, basis[i], basis[j])
            v = 0.0
            for symbol, xyz in atoms:
                v -= CHARGE[symbol] * contracted(nuclear_prim, basis[i], basis[j], xyz)
            V[i, j] = V[j, i] = v
    eri = np.zeros((n, n, n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            val = 0.0
            for ea, ca in zip(basis[i].exps, basis[i].coeffs):
                for eb, cb in zip(basis[j].exps, basis[j].coeffs):
                    for ec, cc in zip(basis[k].exps, basis[k].coeffs):
                        for ed, cd in zip(basis[l].exps, basis[l].coeffs):
                            val += ca * cb * cc * cd * eri_prim(
                                ea, basis[i].lmn, basis[i].origin,
                                eb, basis[j].lmn, basis[j].origin,
                                ec, basis[k].lmn, basis[k].origin,
                                ed, basis[l].lmn, basis[l].origin,
                            )
            for p, q in ((i, j), (j, i)):
                for r, s in ((k, l), (l, k)):
                    eri[p, q, r, s] = val
                    eri[r, s, p, q] = val
    enuc = 0.0
    for x, (sym1, r1) in enumerate(atoms):
        for sym2, r2 in atoms[x + 1 :]:
            enuc += CHARGE[sym1] * CHARGE[sym2] / np.linalg.norm(
                np.asarray(r1) - np.asarray(r2)
            )
    return S, T, V, eri, enuc


def rhf(S, Hcore, eri, n_elec, max_iter=200, tol=1e-12):
    nocc = n_elec // 2
    evals, evecs = np.linalg.eigh(S)
    X = evecs @ np.diag(evals**-0.5) @ evecs.T
    D = np.zeros_like(S)
    energy = 0.0
    for _ in range(max_iter):
        J = np.einsum("pqrs,rs->pq", eri, D)
        K = np.einsum("prqs,rs->pq", eri, D)
        F = Hcore + 2 * J - K
        e_new = np.sum(D * (Hcore + F))
        Fp = X.T @ F @ X
        eps, Cp = np.linalg.eigh(Fp)
        C = X @ Cp
        D_new = C[:, :nocc] @ C[:, :nocc].T
        if abs(e_new - energy) < tol and np.abs(D_new - D).max() < 1e-10:
            D = D_new
            energy = e_new
            break
        D, energy = D_new, e_new
    return energy, eps, C


def mo_integrals(Hcore, eri, C):
    h_mo = C.T @ Hcore @ C
    g = np.einsum("pqrs,pi->iqrs", eri, C)
    g = np.einsum("iqrs,qj->ijrs", g, C)
    g = np.einsum("ijrs,rk->ijks", g, C)
    g = np.einsum("ijks,sl->ijkl", g, C)
    return h_mo, g


def write_fcidump(path, h_mo, g_mo, enuc, eps, n_elec):
    n = h_mo.shape[0]
    lines = [
        f" &FCI NORB={n},NELEC={n_elec},MS2=0,",
        "  ORBSYM=" + "1," * n,
        "  ISYM=1,",
        " &END",
    ]

    def fmt(v, i, j, k, l):
        return f" {v: .16E} {i:4d} {j:4d} {k:4d} {l:4d}"

    seen = set()
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if (i, j) < (k, l) or (i, j, k, l) in seen:
                        continue
                    perms = {
                        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
                    }
                    seen |= perms
                    v = g_mo[i, j, k, l]
                    if abs(v) > 1e-14:
                        lines.append(fmt(v, i + 1, j + 1, k + 1, l + 1))
    for i in range(n):
        for j in range(i + 1):
            if abs(h_mo[i, j]) > 1e-14:
                lines.append(fmt(h_mo[i, j], i + 1, j + 1, 0, 0))
    for i in range(n):
        lines.append(fmt(eps[i], i + 1, 0, 0, 0))
    lines.append(fmt(enuc, 0, 0, 0, 0))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def molecule(name):
    if name == "h2":
        r = 0.7414 * ANGSTROM_TO_BOHR
        return [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, r))], 2
    if name == "h4":  # a linear chain, 1.0 Angstrom between neighbours
        r = 1.0 * ANGSTROM_TO_BOHR
        return [("H", (0.0, 0.0, k * r)) for k in range(4)], 4
    if name == "water":
        r = 0.9584 * ANGSTROM_TO_BOHR
        half = np.deg2rad(104.45) / 2
        return [
            ("O", (0.0, 0.0, 0.0)),
            ("H", (r * np.sin(half), 0.0, r * np.cos(half))),
            ("H", (-r * np.sin(half), 0.0, r * np.cos(half))),
        ], 10
    raise SystemExit(f"unknown molecule {name!r}")


def main():
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    name = sys.argv[1]
    out = sys.argv[2] if len(sys.argv) > 2 else f"{name}_sto3g.fcidump"
    atoms, n_elec = molecule(name)
    S, T, V, eri, enuc = integrals(atoms)
    e_scf, eps, C = rhf(S, T + V, eri, n_elec)
    h_mo, g_mo = mo_integrals(T + V, eri, C)
    write_fcidump(out, h_mo, g_mo, enuc, eps, n_elec)
    print(f"{name}: E_HF = {e_scf + enuc:.10f} hartree -> {out}")


if __name__ == "__main__":
    main()
