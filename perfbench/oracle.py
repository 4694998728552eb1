"""Reference values computed with plain numpy, independently of qdarwin's code.

Used by the output checks for inputs of any seed.  States here always have
the system as their first factor, and their reduced system state has a
nondegenerate spectrum (random and Haar states do, with probability one), so
the pointer basis is the eigenbasis of rho_S and fixes every value below
without qdarwin's canonical phase and degeneracy rules.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS_NUM = 1e-9


def entropy(matrix: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(matrix), 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def reduce(matrix: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    """Partial trace onto the factors ``keep`` (sorted), by one einsum."""
    n = len(dims)
    keep = sorted(keep)
    rows = list(range(n))
    cols = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(matrix.reshape(dims + dims), rows + cols,
                    keep + [n + i for i in keep])
    d = math.prod(dims[i] for i in keep)
    return out.reshape(d, d)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Tr sqrt(sqrt(a) b sqrt(a)), capped at 1."""
    ra = _psd_sqrt(a)
    w = np.clip(np.linalg.eigvalsh(ra @ b @ ra), 0.0, None)
    return float(min(np.sqrt(w).sum(), 1.0))


class Bipartition:
    """System (factor 0) against a fragment of the other factors of one state."""

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...], fragment: list[int]):
        self.joint = reduce(matrix, dims, [0, *fragment])
        self.d_s = dims[0]
        self.d_f = self.joint.shape[0] // self.d_s
        self.rho_s = reduce(matrix, dims, [0])
        w, self.kets = np.linalg.eigh(self.rho_s)
        self.spectral_gap = float(np.min(np.diff(w))) if w.size > 1 else math.inf
        t = self.joint.reshape(self.d_s, self.d_f, self.d_s, self.d_f)
        # blocks[a, b] = <a| rho_SF |b> as a d_f x d_f operator
        self.blocks = np.einsum("ia,ijkl,kb->abjl", self.kets.conj(), t, self.kets)
        self.probs = np.clip(np.einsum("aajj->a", self.blocks).real, 0.0, None)
        self.rho_f = self.blocks.trace(axis1=0, axis2=1)

    def conditionals(self) -> list[tuple[float, np.ndarray]]:
        return [(float(p), self.blocks[a, a] / p)
                for a, p in enumerate(self.probs) if p > 1e-12]

    def system_entropy(self) -> float:
        return entropy(self.rho_s)

    def mutual_information(self) -> float:
        return self.system_entropy() + entropy(self.rho_f) - entropy(self.joint)

    def holevo(self) -> float:
        value = entropy(self.rho_f) - sum(p * entropy(c) for p, c in self.conditionals())
        return 0.0 if -EPS_NUM <= value < 0.0 else value

    def max_offdiagonal_block(self) -> float:
        return max((float(np.linalg.norm(self.blocks[a, b]))
                    for a in range(self.d_s) for b in range(a + 1, self.d_s)),
                   default=0.0)

    def distance_bound(self) -> float:
        """Trace norm of (rho - pointer-dephased rho) plus the branch-fidelity sum."""
        dephased = np.zeros_like(self.blocks)
        for a in range(self.d_s):
            dephased[a, a] = self.blocks[a, a]
        diff = np.einsum("ia,abjl,kb->ijkl", self.kets, self.blocks - dephased,
                         self.kets.conj()).reshape(self.joint.shape)
        term1 = float(np.abs(np.linalg.eigvalsh(diff)).sum())
        term2 = sum(2.0 * math.sqrt(pi * pj) * fidelity(ci, cj)
                    for (pi, ci), (pj, cj) in itertools.combinations(self.conditionals(), 2))
        return term1 + term2


def conditional_mutual_information(matrix: np.ndarray, dims: tuple[int, ...],
                                   a: int, b: int) -> float:
    """I(A:B|S) with S the first factor."""
    return (entropy(reduce(matrix, dims, [0, a])) + entropy(reduce(matrix, dims, [0, b]))
            - entropy(reduce(matrix, dims, [0])) - entropy(reduce(matrix, dims, [0, a, b])))


def analyze_values(matrix: np.ndarray, dims: tuple[int, ...]) -> dict:
    """What ``qdarwin analyze`` reports for the whole environment as the fragment.

    Verdicts are given only where the deciding diagnostic sits at least a
    factor of ten from its tolerance; otherwise they are None (not decided).
    """
    env = list(range(1, len(dims)))
    part = Bipartition(matrix, dims, env)
    h_s = part.system_entropy()
    mi = part.mutual_information()
    chi = part.holevo()
    discord = mi - chi
    offdiag = part.max_offdiagonal_block()
    sqd_gap = max(abs(mi - chi), abs(chi - h_s))
    out = {
        "pointer_gap": part.spectral_gap,
        "H_S": h_s, "I": mi, "chi": chi, "discord": discord,
        "m_sqd": min(max((h_s - chi + discord) / (2.0 * h_s), 0.0), 1.0),
        "eta": part.distance_bound(),
        "sqd_holds": _decide(sqd_gap, 1e-6),
        "sbs_holds": False if offdiag > 1e-7 else None,
        "sbs_bipartite_holds": False if offdiag > 1e-7 else None,
        "independence_holds": None,
    }
    if len(env) > 1:
        worst = max(conditional_mutual_information(matrix, dims, a, b)
                    for a, b in itertools.combinations(env, 2))
        out["independence_holds"] = _decide(worst, 1e-8)
    return out


def _decide(diagnostic: float, tolerance: float) -> bool | None:
    if diagnostic <= tolerance / 10.0:
        return True
    if diagnostic >= tolerance * 10.0:
        return False
    return None


def scan_curve(matrix: np.ndarray, dims: tuple[int, ...]) -> list[dict]:
    """Mean chi, discord and I over every fragment of each size (exhaustive)."""
    env = list(range(1, len(dims)))
    curve = []
    for size in range(1, len(env) + 1):
        chis, mis = [], []
        for frag in itertools.combinations(env, size):
            part = Bipartition(matrix, dims, list(frag))
            chis.append(part.holevo())
            mis.append(part.mutual_information())
        chis, mis = np.array(chis), np.array(mis)
        curve.append({"fraction": size / len(env), "mean_chi_bits": float(chis.mean()),
                      "mean_discord_bits": float((mis - chis).mean()),
                      "mean_I_bits": float(mis.mean()), "n_samples": len(chis)})
    return curve
