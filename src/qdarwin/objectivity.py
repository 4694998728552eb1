"""Structural objectivity diagnostics and measures for system-environment states.

Three detectors (strong Darwinism, broadcast structure, strong independence),
the equivalence check tying them together, the normalized objectivity deficit,
the computable distance bound to broadcast-structured states, and redundancy
scans over environment fragments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import (
    BORDERLINE_FACTOR,
    DEGENERACY_GAP,
    TOL_CMI,
    TOL_OFFDIAG,
    TOL_OVERLAP,
    TOL_PROB,
    DensityMatrix,
    ProjectiveMeasurement,
    canonical_phases,
    dephase_subsystem,
    factor_first,
    partial_trace,
)
from .errors import (
    DegenerateSystemEntropy,
    DeltaOutOfRange,
    NeedTwoSubenvironments,
    OverlappingSubfragments,
)
from .measures import (
    AccessibleInfoBounds,
    PointerEnsemble,
    common_eigenbasis,
    conditional_mutual_information,
    entropy_bits,
    fidelity,
    pointer_basis,
    pointer_ensemble,
    trace_norm,
)
from .optimize import DEFAULT_OPT, OptimizerConfig


def _in_borderline_band(diagnostic: float, tolerance: float) -> bool:
    return tolerance / BORDERLINE_FACTOR <= diagnostic <= tolerance * BORDERLINE_FACTOR


@dataclass(frozen=True)
class SubfragmentCheck:
    labels: tuple[str, ...]
    holds: bool
    mutual_info: float
    holevo: float


@dataclass(frozen=True)
class SqdVerdict:
    """Strong-Darwinism verdict: I = chi = H(S) for the fragment and subfragments."""

    holds: bool
    mutual_info: float
    holevo: float
    system_entropy: float
    discord: float
    per_subfragment: tuple[SubfragmentCheck, ...]
    tolerance: float
    acc: AccessibleInfoBounds | None
    trivial: bool = False

    def deciding_diagnostics(self) -> tuple[float, ...]:
        gaps = [abs(self.mutual_info - self.holevo),
                abs(self.holevo - self.system_entropy)]
        for sf in self.per_subfragment:
            gaps.append(abs(sf.mutual_info - sf.holevo))
            gaps.append(abs(sf.holevo - self.system_entropy))
        return tuple(gaps)

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "mutual_information_bits": self.mutual_info,
            "holevo_bits": self.holevo,
            "system_entropy_bits": self.system_entropy,
            "discord_bits": self.discord,
            "per_subfragment": [
                {"labels": list(sf.labels), "holds": sf.holds,
                 "mutual_information_bits": sf.mutual_info, "holevo_bits": sf.holevo}
                for sf in self.per_subfragment],
            "tolerance_bits": self.tolerance,
            "trivial_zero_entropy": self.trivial,
            "accessible_information": None if self.acc is None else {
                "lower_bits": self.acc.lower, "upper_bits": self.acc.upper,
                "exact": self.acc.exact, "lower_optimized": self.acc.lower_optimized},
        }


def _fragment(rho: DensityMatrix, fragment: Sequence[str] | None) -> tuple[str, ...]:
    """The fragment in layout order; every environment factor when None."""
    return rho.layout.require(
        rho.layout.environment_labels if fragment is None else fragment)


def check_strong_darwinism(rho: DensityMatrix, system: str,
                           fragment: Sequence[str] | None = None,
                           subfragments: Sequence[Sequence[str]] | None = None,
                           opt: OptimizerConfig = DEFAULT_OPT,
                           optimize_acc_lower: bool = True) -> SqdVerdict:
    """Check I(S:F) = chi = H(S), within ``opt.eps_opt`` bits, on the fragment
    and every listed subfragment.

    A system with zero entropy carries no information and the condition holds
    trivially.  The accessible information is certified exact only when the
    pointer-basis ensemble commutes; otherwise the verdict reports a bracket.
    """
    ens = pointer_ensemble(rho, system, _fragment(rho, fragment))
    return _strong_darwinism(ens, subfragments, opt, optimize_acc_lower)


def _strong_darwinism(ens: PointerEnsemble,
                      subfragments: Sequence[Sequence[str]] | None,
                      opt: OptimizerConfig, optimize_acc_lower: bool) -> SqdVerdict:
    subfragments = [list(s) for s in (subfragments or [])]
    seen: set[str] = set()
    for sf in subfragments:
        s = set(sf)
        if s & seen:
            raise OverlappingSubfragments(f"subfragments overlap on {sorted(s & seen)}")
        if not s <= set(ens.fragment):
            raise OverlappingSubfragments(f"subfragment {sf} is not inside the fragment")
        seen |= s

    h_s = ens.h_s
    equality = opt.eps_opt
    if h_s <= TOL_PROB:
        return SqdVerdict(True, 0.0, 0.0, 0.0, 0.0, (), equality, None, trivial=True)

    def complete(e: PointerEnsemble) -> bool:
        return (abs(e.mutual_information - e.holevo) <= equality
                and abs(e.holevo - h_s) <= equality)

    acc = ens.accessible_information(opt, optimize_acc_lower)
    holds = complete(ens)
    checks = []
    for sf in subfragments:
        sub = pointer_ensemble(ens.state, ens.system, sf)
        sf_holds = complete(sub)
        holds = holds and sf_holds
        checks.append(SubfragmentCheck(tuple(sf), sf_holds, sub.mutual_information,
                                       sub.holevo))
    return SqdVerdict(holds, ens.mutual_information, ens.holevo, h_s, ens.discord,
                      tuple(checks), equality, acc)


@dataclass(frozen=True)
class SbsVerdict:
    """Broadcast-structure verdict with the diagnostics behind each stage."""

    holds: bool
    pointer: ProjectiveMeasurement
    branch_probabilities: tuple[float, ...]
    max_offdiagonal_block_norm: float
    max_pairwise_overlap: float
    max_whole_fragment_overlap: float
    max_conditional_cmi: float
    bipartite_holds: bool
    bipartite_only: bool
    pointer_degenerate: bool
    cq_form_ok: bool
    distinguishable_per_subenv: bool
    product_ok: bool

    def deciding_diagnostics(self) -> tuple[tuple[float, float], ...]:
        return ((self.max_offdiagonal_block_norm, TOL_OFFDIAG),
                (self.max_pairwise_overlap, TOL_OVERLAP),
                (self.max_whole_fragment_overlap, TOL_OVERLAP),
                (self.max_conditional_cmi, TOL_CMI))

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "bipartite_holds": self.bipartite_holds,
            "bipartite_only": self.bipartite_only,
            "pointer_basis": self.pointer.to_dict(),
            "pointer_degenerate": self.pointer_degenerate,
            "branch_probabilities": list(self.branch_probabilities),
            "max_offdiagonal_block_norm": self.max_offdiagonal_block_norm,
            "max_pairwise_overlap": self.max_pairwise_overlap,
            "max_whole_fragment_overlap": self.max_whole_fragment_overlap,
            "max_conditional_cmi_bits": self.max_conditional_cmi,
            "cq_form_ok": self.cq_form_ok,
            "distinguishable_per_subenv": self.distinguishable_per_subenv,
            "product_ok": self.product_ok,
        }


def _refined_pointer(ens: PointerEnsemble, t: np.ndarray) -> ProjectiveMeasurement:
    """Canonical eigenbasis of a degenerate rho_S with its degenerate clusters
    refined by simultaneous diagonalization against fragment-probe operators;
    ``t`` is the joint state as a (d_s, d_f, d_s, d_f) array."""
    d_f = t.shape[1]
    probes: list[np.ndarray] = [ens.rho_s]
    for m in range(d_f):
        for k in range(m, d_f):
            block = t[:, m, :, k]
            probes.append(block + block.conj().T)
            if k > m:
                probes.append(1j * (block - block.conj().T))
    basis = common_eigenbasis(probes)
    # re-sort columns by descending rho_S expectation
    expect = np.real(np.einsum("ij,jk,ik->k", ens.rho_s, basis, basis.conj()))
    basis = basis[:, np.argsort(-expect, kind="stable")]
    return ProjectiveMeasurement(ens.system, canonical_phases(basis))


def detect_broadcast_structure(rho: DensityMatrix, system: str,
                               fragment: Sequence[str] | None = None) -> SbsVerdict:
    """Detect the broadcast form sum_i p_i |i><i| x rho_i^E1 x ... with
    perfectly distinguishable conditionals on every subenvironment.

    Stages: (1) pointer candidate from the system marginal, (2) vanishing
    off-diagonal blocks, (3) vanishing pairwise conditional overlaps, per
    subenvironment and for the whole fragment, (4) product structure across
    subenvironments, which is the strong-independence check.  A verdict is
    always returned; nothing raises on failure.
    """
    ens = pointer_ensemble(rho, system, _fragment(rho, fragment))
    independence = _independence(rho, system, ens.fragment)
    return _broadcast_structure(ens, independence)


def _broadcast_structure(ens: PointerEnsemble,
                         independence: IndependenceVerdict | None) -> SbsVerdict:
    t, _ = factor_first(ens.joint, ens.system)
    degenerate = ens.gap < DEGENERACY_GAP
    if degenerate:
        ens = pointer_ensemble(ens.state, ens.system, ens.fragment,
                               basis=_refined_pointer(ens, t))
    kets = ens.basis.basis
    d_s = kets.shape[1]
    max_offdiag = 0.0
    for i in range(d_s):
        for j in range(i + 1, d_s):
            block = np.einsum("i,ijkl,k->jl", kets[:, i].conj(), t, kets[:, j])
            max_offdiag = max(max_offdiag, float(np.linalg.norm(block)))
    cq_ok = max_offdiag <= TOL_OFFDIAG

    _, live = ens.live()
    frag = ens.fragment
    max_whole = 0.0
    max_sub = 0.0
    for ci, cj in itertools.combinations(live, 2):
        max_whole = max(max_whole, abs(float(np.trace(ci @ cj).real)))
    for lab in frag:
        if len(frag) == 1:
            subs = live
        else:
            subs = [partial_trace(c, [lab]).matrix
                    for c in ens.conditional_states if c is not None]
        for a, b in itertools.combinations(subs, 2):
            max_sub = max(max_sub, abs(float(np.trace(a @ b).real)))
    whole_ok = max_whole <= TOL_OVERLAP
    sub_ok = max_sub <= TOL_OVERLAP

    max_cmi = 0.0 if independence is None else independence.worst_cmi
    product_ok = max_cmi <= TOL_CMI

    bipartite = cq_ok and whole_ok
    holds = cq_ok and sub_ok and product_ok
    return SbsVerdict(holds, ens.basis, tuple(float(p) for p in ens.probabilities),
                      max_offdiag, max_sub, max_whole, max_cmi,
                      bipartite, bipartite and not holds, degenerate,
                      cq_ok, sub_ok, product_ok)


@dataclass(frozen=True)
class IndependenceVerdict:
    holds: bool
    worst_pair: tuple[str, str] | None
    worst_cmi: float
    tolerance: float

    def to_dict(self) -> dict:
        return {"holds": self.holds,
                "worst_pair": list(self.worst_pair) if self.worst_pair else None,
                "worst_cmi_bits": self.worst_cmi,
                "tolerance_bits": self.tolerance}


def check_strong_independence(rho: DensityMatrix, system: str,
                              subenvironments: Sequence[str] | None = None
                              ) -> IndependenceVerdict:
    """All pairwise I(E_j:E_k|S) must vanish within tolerance."""
    subenvs = _fragment(rho, subenvironments)
    verdict = _independence(rho, system, subenvs)
    if verdict is None:
        raise NeedTwoSubenvironments(
            f"need at least two subenvironments, got {list(subenvs)}")
    return verdict


def _independence(rho: DensityMatrix, system: str,
                  subenvs: Sequence[str]) -> IndependenceVerdict | None:
    """Worst pairwise I(E_j:E_k|S); None for fewer than two subenvironments."""
    if len(subenvs) < 2:
        return None
    worst = 0.0
    worst_pair: tuple[str, str] | None = None
    for a, b in itertools.combinations(subenvs, 2):
        cmi = conditional_mutual_information(rho, [a], [b], [system])
        if cmi >= worst:
            worst, worst_pair = cmi, (a, b)
    return IndependenceVerdict(worst <= TOL_CMI, worst_pair, worst, TOL_CMI)


@dataclass(frozen=True)
class TheoremWitness:
    """Joint verdicts plus the consistency flag for the equivalence
    'broadcast structure iff strong Darwinism and strong independence'."""

    sqd: SqdVerdict
    sbs: SbsVerdict
    independence: IndependenceVerdict | None
    consistent: bool
    borderline: bool
    borderline_reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "borderline": self.borderline,
            "borderline_reasons": list(self.borderline_reasons),
            "strong_darwinism": self.sqd.to_dict(),
            "broadcast_structure": self.sbs.to_dict(),
            "strong_independence":
                None if self.independence is None else self.independence.to_dict(),
        }


def verify_equivalence(rho: DensityMatrix, system: str,
                       subenvironments: Sequence[str] | None = None,
                       opt: OptimizerConfig = DEFAULT_OPT,
                       optimize_acc_lower: bool = False) -> TheoremWitness:
    """Run all three detectors and flag any inconsistency with the equivalence.

    Strong Darwinism is evaluated on the full fragment with every single
    subenvironment as a disjoint subfragment (the finest observer partition).
    Verdicts whose deciding diagnostics sit within a factor of the tolerance,
    or whose pointer basis is ambiguous, are flagged borderline.
    """
    ens = pointer_ensemble(rho, system, _fragment(rho, subenvironments))
    subfrags = [[l] for l in ens.fragment] if len(ens.fragment) > 1 else None
    sqd = _strong_darwinism(ens, subfrags, opt, optimize_acc_lower)
    independence = _independence(rho, system, ens.fragment)
    sbs = _broadcast_structure(ens, independence)
    si_holds = independence.holds if independence is not None else True
    consistent = sbs.holds == (sqd.holds and si_holds)

    reasons: list[str] = []
    for gap in sqd.deciding_diagnostics():
        if _in_borderline_band(gap, sqd.tolerance):
            reasons.append(f"strong-darwinism equality gap {gap:.3e}")
            break
    for diag, t in sbs.deciding_diagnostics():
        if _in_borderline_band(diag, t):
            reasons.append(f"broadcast-structure diagnostic {diag:.3e} near {t:.1e}")
            break
    if independence is not None and _in_borderline_band(independence.worst_cmi, TOL_CMI):
        reasons.append(f"conditional mutual information {independence.worst_cmi:.3e}")
    gap = ens.gap
    if gap < DEGENERACY_GAP * BORDERLINE_FACTOR:
        reasons.append(f"pointer-basis eigenvalue gap {gap:.3e}")
    return TheoremWitness(sqd, sbs, independence, consistent,
                          bool(reasons), tuple(reasons))


def objectivity_deficit(rho: DensityMatrix, system: str,
                        fragment: Sequence[str] | None = None) -> float:
    """Normalized deficit (H(S) - chi + D) / 2H(S), clamped to [0, 1].

    Zero exactly on bipartite broadcast-structure states; undefined (raises)
    when the system entropy vanishes.
    """
    return _deficit(pointer_ensemble(rho, system, _fragment(rho, fragment)))


def _deficit(ens: PointerEnsemble) -> float:
    h_s = ens.h_s
    if h_s <= TOL_PROB:
        raise DegenerateSystemEntropy(
            f"system entropy {h_s:.3e} is too small for a normalized deficit")
    value = (h_s - ens.holevo + ens.discord) / (2.0 * h_s)
    return float(min(max(value, 0.0), 1.0))


def broadcast_distance_bound(rho: DensityMatrix, system: str,
                             fragment: Sequence[str] | None = None,
                             pointer: ProjectiveMeasurement | None = None) -> float:
    """Computable bound on the trace distance to the broadcast-structure set:
    the full trace norm of (rho - dephased rho) plus the pairwise-fidelity sum
    over ordered branch pairs, at ``pointer`` (default the canonical basis)."""
    return _distance_bound(pointer_ensemble(rho, system, _fragment(rho, fragment), pointer))


def _distance_bound(ens: PointerEnsemble) -> float:
    dephased = dephase_subsystem(ens.joint, ens.basis)
    term1 = trace_norm(ens.joint.matrix - dephased.matrix)
    ps, cs = ens.live()
    term2 = 0.0
    for (pi, ci), (pj, cj) in itertools.combinations(zip(ps, cs), 2):
        term2 += 2.0 * math.sqrt(pi * pj) * fidelity(ci, cj)
    return term1 + term2


@dataclass(frozen=True)
class ScanPoint:
    fraction: float
    mean_holevo: float
    mean_discord: float
    mean_mutual_info: float
    n_samples: int


@dataclass(frozen=True)
class DiscordBoundRecord:
    labels: tuple[str, ...]
    holevo: float
    discord: float
    mutual_info: float
    checked: bool
    ok: bool


@dataclass(frozen=True)
class RedundancyReport:
    """Number of disjoint fragments carrying (1 - delta) of the pointer entropy."""

    delta: float
    r_delta: int
    witness_fragments: tuple[tuple[str, ...], ...]
    f_delta_min: float
    scan_curve: tuple[ScanPoint, ...]
    strategy: str
    pointer_entropy: float
    discord_bound_failures: tuple[DiscordBoundRecord, ...]
    discord_bound_skipped: int

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "r_delta": self.r_delta,
            "witness_fragments": [list(w) for w in self.witness_fragments],
            "f_delta_min": self.f_delta_min,
            "strategy": self.strategy,
            "pointer_entropy_bits": self.pointer_entropy,
            "scan_curve": [{
                "fraction": pt.fraction,
                "mean_chi_bits": pt.mean_holevo,
                "mean_discord_bits": pt.mean_discord,
                "mean_I_bits": pt.mean_mutual_info,
                "n_samples": pt.n_samples} for pt in self.scan_curve],
            "discord_bound_failures": [{
                "labels": list(r.labels), "chi_bits": r.holevo,
                "discord_bits": r.discord, "I_bits": r.mutual_info}
                for r in self.discord_bound_failures],
            "discord_bound_skipped": self.discord_bound_skipped,
        }


def _subsets_by_size(labels: Sequence[str]):
    for size in range(1, len(labels) + 1):
        yield from itertools.combinations(labels, size)


def _max_disjoint_packing(candidates: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Exact maximum packing of pairwise-disjoint label sets (branch and bound)."""
    best: list[tuple[str, ...]] = []

    def dfs(start: int, used: frozenset, chosen: list[tuple[str, ...]]):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for i in range(start, len(candidates)):
            if len(chosen) + (len(candidates) - i) <= len(best):
                return
            cand = candidates[i]
            if used & set(cand):
                continue
            chosen.append(cand)
            dfs(i + 1, used | set(cand), chosen)
            chosen.pop()

    dfs(0, frozenset(), [])
    return best


def redundancy(rho: DensityMatrix, system: str, delta: float,
               opt: OptimizerConfig = DEFAULT_OPT,
               strategy: str | None = None,
               scan_samples: int = 50,
               seed: int = 0) -> RedundancyReport:
    """Count disjoint qualifying fragments and scan mean information per fraction.

    A fragment qualifies when chi >= (1 - delta) H(S^Pi) - eps_opt, fragments
    being unions of whole subenvironments.  ``exhaustive`` (default up to 12
    subenvironments) packs minimal qualifying fragments exactly; ``greedy``
    repeatedly takes the smallest qualifying fragment from the remaining
    subenvironments, breaking ties by label order.
    """
    if not (0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"delta must be in (0, 1), got {delta}")
    subenvs = [l for l in rho.layout.labels if l != system]
    if not subenvs:
        raise NeedTwoSubenvironments("redundancy needs at least one subenvironment")
    if strategy is None:
        strategy = "exhaustive" if len(subenvs) <= 12 else "greedy"
    if strategy not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")

    # the pointer basis and distribution depend on rho_S alone: one basis serves
    # every fragment, and any fragment gives the distribution
    basis = pointer_basis(rho, system)
    h_pointer = entropy_bits(pointer_ensemble(rho, system, subenvs[:1], basis).probabilities)
    threshold = (1.0 - delta) * h_pointer - opt.eps_opt

    cache: dict[tuple[str, ...], tuple[float, float, float]] = {}

    def evaluate(frag: tuple[str, ...]) -> tuple[float, float, float]:
        if frag not in cache:
            ens = pointer_ensemble(rho, system, frag, basis)
            cache[frag] = (ens.holevo, ens.mutual_information, ens.discord)
        return cache[frag]

    def qualifies(frag: tuple[str, ...]) -> bool:
        return evaluate(frag)[0] >= threshold

    witnesses: list[tuple[str, ...]]
    if strategy == "exhaustive":
        minimal: list[tuple[str, ...]] = []
        qualifying_sizes: list[int] = []
        for frag in _subsets_by_size(subenvs):
            if any(set(m) <= set(frag) for m in minimal):
                qualifying_sizes.append(len(frag))
                continue
            if qualifies(frag):
                minimal.append(frag)
                qualifying_sizes.append(len(frag))
        witnesses = _max_disjoint_packing(minimal)
        min_size = min(qualifying_sizes) if qualifying_sizes else 0
    else:
        witnesses = []
        remaining = list(subenvs)
        min_size = 0
        while remaining:
            found = None
            for frag in _subsets_by_size(remaining):
                if qualifies(frag):
                    found = frag
                    break
            if found is None:
                break
            witnesses.append(found)
            if min_size == 0:
                min_size = len(found)
            remaining = [l for l in remaining if l not in set(found)]

    f_delta_min = (min_size / len(subenvs)) if min_size else 0.0

    rng = np.random.default_rng(seed)
    curve: list[ScanPoint] = []
    failures: list[DiscordBoundRecord] = []
    skipped = 0
    n = len(subenvs)
    for size in range(1, n + 1):
        total = math.comb(n, size)
        if total <= scan_samples:
            sample = list(itertools.combinations(subenvs, size))
        else:
            chosen: set[tuple[str, ...]] = set()
            while len(chosen) < scan_samples:
                pick = tuple(sorted(rng.choice(n, size=size, replace=False)))
                chosen.add(tuple(subenvs[i] for i in pick))
            sample = sorted(chosen)
        chis, discords, mis = [], [], []
        for frag in sample:
            chi, mi, d = evaluate(frag)
            chis.append(chi)
            discords.append(d)
            mis.append(mi)
            if chi >= (1.0 - delta) * h_pointer:
                if mi <= h_pointer + opt.eps_opt:
                    if d > delta * h_pointer + opt.eps_opt:
                        failures.append(DiscordBoundRecord(frag, chi, d, mi, True, False))
                else:
                    skipped += 1
        curve.append(ScanPoint(size / n, float(np.mean(chis)),
                               float(np.mean(discords)), float(np.mean(mis)),
                               len(sample)))

    return RedundancyReport(delta, len(witnesses), tuple(witnesses), f_delta_min,
                            tuple(curve), strategy, h_pointer,
                            tuple(failures), skipped)


@dataclass(frozen=True)
class ObjectivityReport:
    """Everything the analyzer computed for one state, one fragment choice."""

    system: str
    fragment: tuple[str, ...]
    sqd: SqdVerdict
    sbs: SbsVerdict
    independence: IndependenceVerdict | None
    m_sqd: float | None
    m_sqd_undefined_reason: str | None
    eta: float
    acc: AccessibleInfoBounds | None
    opt: OptimizerConfig
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "fragment": list(self.fragment),
            "strong_darwinism": self.sqd.to_dict(),
            "broadcast_structure": self.sbs.to_dict(),
            "strong_independence":
                None if self.independence is None else self.independence.to_dict(),
            "m_sqd": self.m_sqd,
            "m_sqd_undefined_reason": self.m_sqd_undefined_reason,
            "eta": self.eta,
            "accessible_information": None if self.acc is None else {
                "lower_bits": self.acc.lower, "upper_bits": self.acc.upper,
                "exact": self.acc.exact, "lower_optimized": self.acc.lower_optimized,
                "restarts": self.acc.restarts, "iterations": self.acc.iterations,
                "gap_bits": self.acc.gap, "capped": self.acc.capped},
            "tolerances": {
                "offdiag": TOL_OFFDIAG,
                "overlap": TOL_OVERLAP,
                "cmi_bits": TOL_CMI,
                "equality_bits": self.opt.eps_opt,
                "borderline_factor": BORDERLINE_FACTOR,
            },
            "optimizer": {k: v for k, v in asdict(self.opt).items()
                          if k != "strict_convergence"},
            "seed": self.seed,
        }


def analyze(rho: DensityMatrix, system: str,
            fragment: Sequence[str] | None = None,
            subfragments: Sequence[Sequence[str]] | None = None,
            opt: OptimizerConfig = DEFAULT_OPT,
            seed: int | None = None) -> ObjectivityReport:
    """Full objectivity report: all measures, verdicts, and diagnostics."""
    ens = pointer_ensemble(rho, system, _fragment(rho, fragment))
    sqd = _strong_darwinism(ens, subfragments, opt, optimize_acc_lower=True)
    independence = _independence(rho, system, ens.fragment)
    sbs = _broadcast_structure(ens, independence)
    try:
        m_sqd: float | None = _deficit(ens)
        reason = None
    except DegenerateSystemEntropy as exc:
        m_sqd, reason = None, str(exc)
    eta = _distance_bound(ens)
    return ObjectivityReport(system, ens.fragment, sqd, sbs, independence,
                             m_sqd, reason, eta, sqd.acc, opt, seed)
