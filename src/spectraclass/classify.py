"""Evaluate a rule base against spectra: membership vectors, hard labels, batches."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import NoClasses, SpectraClassError
from .fuzzy import eval_expr
from .rulebase import UNK, RuleBase
from .spectrum import Spectrum, parse_spectrum, peak_abundance, scale_factor


@dataclass(frozen=True)
class MembershipVector:
    """Per-class membership values plus the derived unknown membership."""

    values: dict
    unk: float

    @classmethod
    def from_values(cls, values: dict) -> "MembershipVector":
        if not values:
            raise NoClasses("membership vector needs at least one class")
        return cls(dict(values), 1.0 - max(values.values()))


@dataclass(frozen=True)
class Classification:
    label: str  # class code or UNK
    confidence: float


def memberships(s: Spectrum, rb: RuleBase) -> MembershipVector:
    """Full fuzzy evaluation of one spectrum.

    Every class expression is evaluated from windowed peak lookups
    through its membership terms, on the scale set by the rule base's
    normalization options. Each distinct ion is looked up once, on the
    raw points, and rescaled by scale_factor(): the same value, bit for
    bit, as a lookup in the normalized spectrum.
    """
    if not rb.classes:
        raise NoClasses("rule base has no classes")
    eps = rb.options.epsilon
    factor = scale_factor(s, rb.excluded_ions(), eps)
    abundance = {}  # ion m/z -> normalized windowed abundance
    values = {}
    for cr in rb.classes:
        env = {}
        for name, (ion, fn) in cr.terms.items():
            p = abundance.get(ion.mz)
            if p is None:
                p = abundance[ion.mz] = peak_abundance(s, ion, eps) * factor
            env[name] = fn(p)
        values[cr.code] = eval_expr(cr.expr, env)
    return MembershipVector.from_values(values)


def harden_values(values: dict, nu: float) -> tuple:
    """The hardening rule: ``(label, confidence)`` for ``{code: membership}``.

    The argmax class wins when its membership reaches nu (inclusive);
    otherwise the label is UNK with confidence 1 - max. Ties break by the
    dict's order, which callers keep in class declaration order.
    """
    if not values:
        raise NoClasses("empty membership vector")
    best_code = None
    best = -1.0
    for code, value in values.items():
        if value > best:
            best_code, best = code, value
    if best < nu:
        return UNK, 1.0 - best
    return best_code, best


def harden(mv: MembershipVector, nu: float, unk_if_second_above: Optional[float] = None) -> Classification:
    """Collapse a membership vector to a single label by harden_values().

    ``unk_if_second_above`` optionally forces UNK when a second class is
    also high (overlapping phases); off by default since no standard
    threshold exists.
    """
    label, confidence = harden_values(mv.values, nu)
    if label != UNK and unk_if_second_above is not None:
        runner_up = max((v for c, v in mv.values.items() if c != label), default=0.0)
        if runner_up >= unk_if_second_above:
            return Classification(UNK, 1.0 - confidence)
    return Classification(label, confidence)


@dataclass
class BatchResult:
    id: str
    membership: Optional[MembershipVector]
    classification: Optional[Classification]
    position: Optional[tuple] = None
    error: Optional[str] = None


def _source_id(source) -> str:
    """The id of a Spectrum, an (id, text) pair, or a file path (its stem)."""
    if isinstance(source, Spectrum):
        return source.id
    if isinstance(source, tuple):
        return source[0] if source else ""
    return Path(source).stem


def _resolve(source, sid: str) -> Spectrum:
    if isinstance(source, Spectrum):
        return source
    if isinstance(source, tuple):
        _, text = source
    else:
        text = Path(source).read_text(encoding="utf-8")
    return parse_spectrum(text, id=sid)


def classify_batch(sources, rb: RuleBase, workers: int = 1):
    """Classify many inputs; output order always matches input order.

    Per-item failures become error records instead of aborting the batch.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    nu = rb.options.nu

    def one(source):
        sid = _source_id(source)
        try:
            s = _resolve(source, sid)
            mv = memberships(s, rb)
            return BatchResult(sid, mv, harden(mv, nu), position=s.position)
        except (SpectraClassError, OSError, ValueError) as exc:
            return BatchResult(sid, None, None, error=str(exc))

    if workers == 1:
        return [one(s) for s in sources]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, sources))


def fmt(x: float) -> str:
    """Number format of every CSV output: up to six significant digits."""
    return format(x, ".6g")


def write_batch_csv(results, class_codes, stream) -> None:
    """Batch result CSV: id, x, y, label, confidence, one mu column per class."""
    header = ["id", "x", "y", "label", "confidence"] + [f"mu_{c}" for c in class_codes]
    stream.write(",".join(header) + "\n")
    for r in results:
        x = fmt(r.position[0]) if r.position else ""
        y = fmt(r.position[1]) if r.position else ""
        if r.error is not None:
            row = [r.id, x, y, "ERROR", ""] + [""] * len(class_codes)
        else:
            row = [r.id, x, y, r.classification.label, fmt(r.classification.confidence)]
            row += [fmt(r.membership.values[c]) for c in class_codes]
        stream.write(",".join(row) + "\n")
