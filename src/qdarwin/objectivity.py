"""Structural objectivity diagnostics and measures for system-environment states.

Three detectors (strong Darwinism, broadcast structure, strong independence),
the equivalence check tying them together, the normalized objectivity deficit,
the computable distance bound to broadcast-structured states, and redundancy
scans over environment fragments.  All of them read one pointer basis
(:func:`qdarwin.measures.pointer_basis`), subfragments and scanned fragments
included; a fragment defaults to every factor except the system.
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
    EPS_NUM,
    TOL_CMI,
    TOL_OFFDIAG,
    TOL_OVERLAP,
    TOL_PROB,
    DensityMatrix,
    ProjectiveMeasurement,
)
from .errors import (
    DegenerateSystemEntropy,
    DeltaOutOfRange,
    InvalidConfig,
    NeedTwoSubenvironments,
    OverlappingParts,
)
from .measures import (
    AccessibleInfoBounds,
    PointerEnsemble,
    _branches,
    _conditionals,
    _disjoint,
    _fragment,
    conditional_mutual_information,
    entropy_bits,
    pointer_basis,
    pointer_ensemble,
    pointer_ensembles,
)
from .optimize import DEFAULT_OPT, OptimizerConfig


# a verdict's (value, tolerance) rows: it holds when every value is within its tolerance
Rows = tuple[tuple[float, float], ...]


def _within(rows: Rows) -> bool:
    return all(value <= tolerance for value, tolerance in rows)


def _near(rows: Rows) -> tuple[float, float] | None:
    """The first row within ``BORDERLINE_FACTOR`` of its tolerance, on either side."""
    return next(((value, tolerance) for value, tolerance in rows
                 if tolerance / BORDERLINE_FACTOR <= value <= tolerance * BORDERLINE_FACTOR),
                None)


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
    rows: Rows  # |I - chi| and |chi - H(S)|, of the fragment and then of each subfragment
    trivial: bool = False

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
            "accessible_information": None if self.acc is None else self.acc.to_dict(),
        }


def check_strong_darwinism(rho: DensityMatrix, system: str,
                           fragment: Sequence[str] | None = None,
                           subfragments: Sequence[Sequence[str]] | None = None,
                           opt: OptimizerConfig = DEFAULT_OPT,
                           optimize_acc_lower: bool = True) -> SqdVerdict:
    """Check I(S:F) = chi = H(S), within ``opt.eps_opt`` bits, on the fragment
    and every listed subfragment.

    A system with zero entropy carries no information and the condition holds
    trivially.  Subfragments are read at the fragment's pointer basis.  The
    accessible information is certified exact only when the pointer-basis
    ensemble commutes; otherwise the verdict reports a bracket.
    """
    ens = pointer_ensemble(rho, system, _fragment(rho, system, fragment))
    return _strong_darwinism(ens, subfragments, opt, optimize_acc_lower)


def _strong_darwinism(ens: PointerEnsemble,
                      subfragments: Sequence[Sequence[str]] | None,
                      opt: OptimizerConfig, optimize_acc_lower: bool) -> SqdVerdict:
    subfragments = [list(s) for s in (subfragments or [])]
    _disjoint(*subfragments)
    for sf in subfragments:
        if not set(sf) <= set(ens.fragment):
            raise OverlappingParts(f"subfragment {sf} is not inside the fragment")

    h_s = ens.h_s
    equality = opt.eps_opt
    if h_s <= TOL_PROB:  # both gaps are zero
        return SqdVerdict(True, 0.0, 0.0, 0.0, 0.0, (), equality, None,
                          ((0.0, equality),) * 2, trivial=True)

    def gaps(e: PointerEnsemble) -> Rows:
        return ((abs(e.mutual_information - e.holevo), equality),
                (abs(e.holevo - h_s), equality))

    acc = ens.accessible_information(opt, optimize_acc_lower)
    subs = subfragments and pointer_ensembles(ens.state, ens.system, subfragments, ens.basis)
    checks = tuple(SubfragmentCheck(tuple(sf), _within(gaps(sub)), sub.mutual_information,
                                    sub.holevo) for sf, sub in zip(subfragments, subs))
    rows = gaps(ens) + sum(map(gaps, subs), ())
    return SqdVerdict(_within(rows), ens.mutual_information, ens.holevo, h_s, ens.discord,
                      checks, equality, acc, rows)


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
    rows: Rows  # the four max_ diagnostics above, in order, at their tolerances

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


def detect_broadcast_structure(rho: DensityMatrix, system: str,
                               fragment: Sequence[str] | None = None) -> SbsVerdict:
    """Detect the broadcast form sum_i p_i |i><i| x rho_i^E1 x ... with
    perfectly distinguishable conditionals on every subenvironment.

    Stages: (1) the ensemble's pointer basis, (2) vanishing off-diagonal
    blocks, (3) vanishing pairwise conditional overlaps, per subenvironment
    and for the whole fragment, (4) product structure across subenvironments,
    which is the strong-independence check.  A verdict is always returned;
    nothing raises on failure.
    """
    ens = pointer_ensemble(rho, system, _fragment(rho, system, fragment))
    independence = _independence(rho, system, ens.fragment)
    return _broadcast_structure(ens, independence)


def _max_overlap(factors: np.ndarray, probs: np.ndarray) -> float:
    """Largest tr(rho_i rho_j) over pairs of live branches' conditionals (0 if < 2)."""
    return max((abs(float(np.trace(a @ b).real))
                for a, b in itertools.combinations(_conditionals(factors, probs), 2)),
               default=0.0)


def _broadcast_structure(ens: PointerEnsemble,
                         independence: IndependenceVerdict | None) -> SbsVerdict:
    b, p = ens.range_factors, ens.probabilities
    max_offdiag = max(float(np.linalg.norm(b[i] @ b[j].conj().T))
                      for i, j in itertools.combinations(range(len(p)), 2))
    max_whole = _max_overlap(b, p)
    max_sub = max(_max_overlap(w, p) for w in _branches(ens.state, ens.system, ens.basis,
                                                         [[lab] for lab in ens.fragment]))
    max_cmi = 0.0 if independence is None else independence.worst_cmi

    # the whole-fragment overlap decides only the bipartite form
    rows = offdiag, sub, whole, cmi = ((max_offdiag, TOL_OFFDIAG), (max_sub, TOL_OVERLAP),
                                       (max_whole, TOL_OVERLAP), (max_cmi, TOL_CMI))
    bipartite = _within((offdiag, whole))
    holds = _within((offdiag, sub, cmi))
    return SbsVerdict(holds, ens.basis, tuple(float(p) for p in ens.probabilities),
                      max_offdiag, max_sub, max_whole, max_cmi,
                      bipartite, bipartite and not holds, ens.gap < DEGENERACY_GAP,
                      _within((offdiag,)), _within((sub,)), _within((cmi,)), rows)


@dataclass(frozen=True)
class IndependenceVerdict:
    holds: bool
    worst_pair: tuple[str, str] | None
    worst_cmi: float
    tolerance: float
    rows: Rows  # the worst CMI at the tolerance

    def to_dict(self) -> dict:
        return {"holds": self.holds,
                "worst_pair": list(self.worst_pair) if self.worst_pair else None,
                "worst_cmi_bits": self.worst_cmi,
                "tolerance_bits": self.tolerance}


def check_strong_independence(rho: DensityMatrix, system: str,
                              subenvironments: Sequence[str] | None = None
                              ) -> IndependenceVerdict:
    """All pairwise I(E_j:E_k|S) must vanish within tolerance."""
    subenvs = _fragment(rho, system, subenvironments)
    verdict = _independence(rho, system, subenvs)
    if verdict is None:
        raise NeedTwoSubenvironments(
            f"need at least two subenvironments, got {list(subenvs)}")
    return verdict


def _independence(rho: DensityMatrix, system: str,
                  subenvs: Sequence[str]) -> IndependenceVerdict | None:
    """Worst pairwise I(E_j:E_k|S); None for fewer than two subenvironments.
    The reported pair is the first, in layout order, within ``EPS_NUM`` of the
    worst, so pairs that tie in exact arithmetic are not told apart by rounding."""
    if len(subenvs) < 2:
        return None
    cmis = {(a, b): conditional_mutual_information(rho, [a], [b], [system])
            for a, b in itertools.combinations(subenvs, 2)}
    worst = max(0.0, *cmis.values())
    worst_pair = next((pair for pair, cmi in cmis.items() if cmi >= worst - EPS_NUM), None)
    rows = ((worst, TOL_CMI),)
    return IndependenceVerdict(_within(rows), worst_pair, worst, TOL_CMI, rows)


def _verdicts(rho: DensityMatrix, system: str, fragment: tuple[str, ...],
              subfragments: Sequence[Sequence[str]] | None, opt: OptimizerConfig,
              optimize_acc_lower: bool
              ) -> tuple[PointerEnsemble, SqdVerdict, IndependenceVerdict | None, SbsVerdict]:
    """The pointer ensemble of (system, fragment) and the three verdicts read from it."""
    ens = pointer_ensemble(rho, system, fragment)
    sqd = _strong_darwinism(ens, subfragments, opt, optimize_acc_lower)
    independence = _independence(rho, system, fragment)
    return ens, sqd, independence, _broadcast_structure(ens, independence)


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
    Each verdict gives at most one borderline reason: its first (value,
    tolerance) row within a factor ``BORDERLINE_FACTOR`` of its tolerance, on
    either side.  The worst CMI is a row of both broadcast structure and strong
    independence.  The pointer basis is borderline when its eigenvalue gap is
    below ``DEGENERACY_GAP * BORDERLINE_FACTOR``.
    """
    frag = _fragment(rho, system, subenvironments)
    subfrags = [[l] for l in frag] if len(frag) > 1 else None
    ens, sqd, independence, sbs = _verdicts(rho, system, frag, subfrags, opt,
                                            optimize_acc_lower)
    consistent = sbs.holds == (sqd.holds and (independence is None or independence.holds))

    reasons = [text.format(*row) for text, verdict in (
                   ("strong-darwinism equality gap {:.3e}", sqd),
                   ("broadcast-structure diagnostic {:.3e} near {:.1e}", sbs),
                   ("conditional mutual information {:.3e}", independence))
               if verdict is not None and (row := _near(verdict.rows))]
    if ens.gap < DEGENERACY_GAP * BORDERLINE_FACTOR:
        reasons.append(f"pointer-basis eigenvalue gap {ens.gap:.3e}")
    return TheoremWitness(sqd, sbs, independence, consistent,
                          bool(reasons), tuple(reasons))


def objectivity_deficit(rho: DensityMatrix, system: str,
                        fragment: Sequence[str] | None = None,
                        pointer: ProjectiveMeasurement | None = None) -> float:
    """Normalized deficit (H(S) - chi + D) / 2H(S), clamped to [0, 1], at
    ``pointer`` (default the ensemble's pointer basis).

    Zero exactly on bipartite broadcast-structure states; undefined (raises)
    when the system entropy vanishes.
    """
    return _deficit(pointer_ensemble(rho, system, _fragment(rho, system, fragment), pointer))


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
    """Computable upper bound eta on the trace norm ||rho - sigma||_1 to the
    broadcast-structure set, twice the trace distance: the trace norm of
    (rho - dephased rho) plus 2 sqrt(p_i p_j) F(rho_i, rho_j) over pairs of branches,
    at ``pointer`` (default the ensemble's pointer basis)."""
    frag = _fragment(rho, system, fragment)
    return _distance_bound(pointer_ensemble(rho, system, frag, pointer))


def _distance_bound(ens: PointerEnsemble) -> float:
    # rho_SF minus its dephased self: the off-diagonal pointer blocks B_i B_j^dagger
    b, p = ens.range_factors, ens.probabilities
    off = np.tensordot(b, b.conj(), axes=(2, 2)) * (1.0 - np.eye(len(b)))[:, None, :, None]
    term1 = float(np.abs(np.linalg.eigvalsh(off.reshape(b.shape[0] * b.shape[1], -1))).sum())
    # 2 sqrt(p_i p_j) F(rho_i, rho_j), F clamped to 1, as 2 ||B_i^dagger B_j||_1
    term2 = sum(2.0 * min(float(np.linalg.svd(b[i].conj().T @ b[j], compute_uv=False).sum()),
                          math.sqrt(p[i] * p[j]))
                for i, j in itertools.combinations(np.flatnonzero(p > TOL_PROB), 2))
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
    r"""Count disjoint qualifying fragments and scan mean information per fraction.

    A fragment qualifies when chi >= (1 - delta) H(S^Pi) - eps_opt, fragments
    being unions of whole subenvironments.  ``exhaustive`` (default up to 12
    subenvironments) packs minimal qualifying fragments exactly; ``greedy``
    repeatedly takes the smallest qualifying fragment from the remaining
    subenvironments, breaking ties by label order.

    On a pure state (a one-column factor) the kernel reads one fragment of each
    pair (F, E\F) and the other is its complement: H(E\F) = H(SF), H(S, E\F) = H(F),
    and each branch's conditionals on F and on E\F share one spectrum, so
    I(S:F) + I(S:E\F) = 2 H(S) and both carry the same sum_i p_i H(rho_.|i).
    """
    if not (0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"delta must be in (0, 1), got {delta}")
    subenvs = [l for l in rho.layout.labels if l != system]
    if not subenvs:
        raise NeedTwoSubenvironments("redundancy needs at least one subenvironment")
    if strategy is None:
        strategy = "exhaustive" if len(subenvs) <= 12 else "greedy"
    if strategy not in ("exhaustive", "greedy"):
        raise InvalidConfig(f"unknown strategy {strategy!r}")
    if scan_samples < 1:
        raise InvalidConfig(f"scan_samples must be >= 1, got {scan_samples}")

    # one pointer basis, refined against every other factor, serves every
    # fragment; the whole environment's ensemble gives its distribution
    basis = pointer_basis(rho, system)
    cache = {tuple(subenvs): pointer_ensembles(rho, system, [subenvs], basis)[0]}
    h_pointer = entropy_bits(cache[tuple(subenvs)].probabilities)
    pure = rho.factor.shape[1] == 1
    threshold = (1.0 - delta) * h_pointer - opt.eps_opt

    # the curve's fragments of each size: all of them, or scan_samples seeded draws
    rng = np.random.default_rng(seed)
    samples: list[list[tuple[str, ...]]] = []
    for size in range(1, len(subenvs) + 1):
        if math.comb(len(subenvs), size) <= scan_samples:
            samples.append(list(itertools.combinations(subenvs, size)))
            continue
        chosen: set[tuple[str, ...]] = set()
        while len(chosen) < scan_samples:
            pick = sorted(rng.choice(len(subenvs), size=size, replace=False).tolist())
            chosen.add(tuple(subenvs[i] for i in pick))
        samples.append(sorted(chosen))

    def qualifying(frags: list[tuple[str, ...]]) -> list[bool]:
        # on a pure state the kernel reads one of each pair (F, E\F): the lesser if both
        rest = {f: tuple(l for l in subenvs if l not in f) if pure else ()
                for f in frags if f not in cache}
        new = [f for f in rest if rest[f] not in rest or f < rest[f]]
        for frag, ens in zip(new, pointer_ensembles(rho, system, new, basis) if new else ()):
            cache[frag] = ens
            if rest[frag]:
                cache[rest[frag]] = ens.complement(rest[frag])
        return [cache[frag].holevo >= threshold for frag in frags]

    # chi only grows with the fragment at a fixed basis (data processing), so
    # nothing qualifies unless the union of the subenvironments left does.  Size
    # by size, open candidates go to the kernel with the curve's samples; ``found``
    # holds minimal fragments (exhaustive) or witnesses (greedy: all earlier failed).
    found: list[tuple[str, ...]] = []
    remaining = list(subenvs)
    curve: list[ScanPoint] = []
    failures: list[DiscordBoundRecord] = []
    skipped = 0
    for size, sample in enumerate(samples, start=1):
        open_: list[tuple[str, ...]] = []
        if remaining and qualifying([tuple(remaining)])[0]:
            open_ = [f for f in itertools.combinations(remaining, size)
                     if not any(map(frozenset(f).issuperset, found))]
        for frag, ok in zip(open_, qualifying(open_ + sample)):
            if ok and set(frag) <= set(remaining):
                found.append(frag)
                if strategy == "greedy":
                    remaining = [l for l in remaining if l not in frag]
        values = [(e.holevo, e.mutual_information, e.discord) for e in map(cache.get, sample)]
        for frag, (chi, mi, d) in zip(sample, values):
            if chi >= (1.0 - delta) * h_pointer:
                if mi <= h_pointer + opt.eps_opt:
                    if d > delta * h_pointer + opt.eps_opt:
                        failures.append(DiscordBoundRecord(frag, chi, d, mi))
                else:
                    skipped += 1
        chis, mis, discords = zip(*values)
        curve.append(ScanPoint(size / len(subenvs), float(np.mean(chis)),
                               float(np.mean(discords)), float(np.mean(mis)),
                               len(sample)))
    witnesses = _max_disjoint_packing(found) if strategy == "exhaustive" else found
    f_delta_min = len(found[0]) / len(subenvs) if found else 0.0

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
            "accessible_information": None if self.sqd.acc is None else self.sqd.acc.to_dict(),
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
    ens, sqd, independence, sbs = _verdicts(rho, system, _fragment(rho, system, fragment),
                                            subfragments, opt, optimize_acc_lower=True)
    try:
        m_sqd: float | None = _deficit(ens)
        reason = None
    except DegenerateSystemEntropy as exc:
        m_sqd, reason = None, str(exc)
    eta = _distance_bound(ens)
    return ObjectivityReport(system, ens.fragment, sqd, sbs, independence,
                             m_sqd, reason, eta, opt, seed)
