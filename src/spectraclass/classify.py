"""Evaluate a rule base against spectra: membership vectors, hard labels, batches."""

from __future__ import annotations

import os
from itertools import islice, repeat
from typing import Optional

from .errors import NoClasses, SpectraClassError
from .files import read_text, stem
from .fuzzy import compile_expr, term_names
from .rulebase import UNK, RuleBase
from .spectrum import Spectrum, parse_spectrum, scale_factor, window_slice
from .value import Frozen, Value


class MembershipVector(Frozen):
    """Per-class membership values, each in [0,1], and the unknown membership derived from them."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: dict):
        object.__setattr__(self, "values", values)

    @property
    def unk(self) -> float:
        return 1.0 - max(self.values.values())

    @classmethod
    def from_values(cls, values: dict) -> "MembershipVector":
        """The vector of a copy of ``values``; a membership outside [0,1] or nan is rejected."""
        if not values:
            raise NoClasses("membership vector needs at least one class")
        for code, value in values.items():
            if not 0.0 <= value <= 1.0:  # also false for nan
                raise ValueError(f"membership of class {code!r} is {value}, outside [0,1]")
        return cls(dict(values))


class Classification(Frozen):
    __slots__ = _fields = ("label", "confidence")

    def __init__(self, label: str, confidence: float):
        object.__setattr__(self, "label", label)  # class code or UNK
        object.__setattr__(self, "confidence", confidence)


def compile_rules(rb: RuleBase):
    """Compile ``rb`` into a function ``(Spectrum, factor=None) -> MembershipVector``.

    Every class expression is evaluated from windowed peak lookups
    through its membership terms, on the scale set by the rule base's
    normalization options. Each distinct ion m/z used by an expression
    gets one window_slice(), looked up once per spectrum in the raw abundances
    and rescaled by scale_factor(): the same value, bit for bit, as a
    lookup in the normalized spectrum. A caller that already holds that
    factor, as stats does, passes it instead. Each term's membership is
    the piecewise-linear law MembershipFn states, and each expression is
    compiled by fuzzy.compile_expr(), which defines the connectives.

    Rule-base errors are raised here, once: no classes, and an expression
    naming a term its class does not declare. Options and MembershipFn
    check their own values when built, which keeps every term value in
    [0,1], so the compiled function checks none.
    """
    if not rb.classes:
        raise NoClasses("rule base has no classes")
    eps = rb.options.epsilon
    excluded = rb.excluded_ions()
    slots = {}  # ion m/z -> window index
    plan = []  # per used term: (window index, is high, l, h, h - l)
    exprs = []
    for cr in rb.classes:
        used = term_names(cr.expr)
        index = {}
        for name, (ion, fn) in cr.terms.items():
            if name not in used:
                continue
            index[name] = len(plan)
            plan.append((slots.setdefault(ion.mz, len(slots)), fn.polarity == "high",
                         fn.l, fn.h, fn.h - fn.l))
        exprs.append((cr.code, compile_expr(cr.expr, index)))

    def classify_spectrum(s: Spectrum, factor: Optional[float] = None) -> MembershipVector:
        if factor is None:
            factor = scale_factor(s, excluded, eps)
        mzs, abundances = s.mzs, s.abundances
        p = []
        for mz in slots:
            lo, hi = window_slice(mzs, mz, eps)
            if lo >= hi:
                p.append(0.0)
            elif hi - lo == 1:
                p.append(abundances[lo] * factor)
            else:
                p.append(max(abundances[lo:hi]) * factor)
        mu = []
        for slot, high, l, h, span in plan:
            x = p[slot]
            v = 0.0 if x < l else 1.0 if x >= h else (x - l) / span  # MembershipFn's law
            mu.append(v if high else 1.0 - v)
        return MembershipVector({code: expr(mu) for code, expr in exprs})

    return classify_spectrum


def memberships(s: Spectrum, rb: RuleBase) -> MembershipVector:
    """Full fuzzy evaluation of one spectrum: ``compile_rules(rb)(s)``."""
    return compile_rules(rb)(s)


def harden_list(mu, nu: float) -> tuple:
    """The hardening rule: ``(index, confidence)`` of the membership list ``mu``, in class order.

    The first best class wins if its membership reaches nu, with that
    membership; otherwise the index is -1, for UNK, with 1 - best.
    """
    best = max(mu)
    return (mu.index(best), best) if best >= nu else (-1, 1.0 - best)


def harden_spots(spots, nu: float) -> tuple:
    """harden_list() of each membership sequence in ``spots``: ``(labels, confidences)``.

    The two columns are built as lists directly: transposing with zip(*)
    makes tuples as long as ``spots``, and a short freed tuple stays on
    the interpreter's free list, so a map's traced heap grew with its rows.
    """
    pairs = list(map(harden_list, spots, repeat(nu)))
    return [k for k, _ in pairs], [conf for _, conf in pairs]


def harden(mv: MembershipVector, nu: float) -> Classification:
    """Collapse a membership vector to a single label by harden_list()."""
    index, confidence = harden_list(list(mv.values.values()), nu)
    return Classification([*mv.values, UNK][index], confidence)


class BatchResult(Value):
    __slots__ = _fields = ("id", "membership", "classification", "error")

    def __init__(self, id: str, membership: Optional[MembershipVector],
                 classification: Optional[Classification], error: Optional[str] = None):
        self.id = id
        self.membership = membership
        self.classification = classification
        self.error = error


def _source_id(source) -> str:
    """The id of a Spectrum, an (id, text) pair, or a file path (its stem)."""
    if isinstance(source, Spectrum):
        return source.id
    if isinstance(source, tuple):
        return source[0] if source else ""
    return stem(source)


def _resolve(source, sid: str) -> Spectrum:
    if isinstance(source, Spectrum):
        return source
    if isinstance(source, tuple):
        _, text = source
    else:
        text = read_text(source)
    return parse_spectrum(text, id=sid)


def classify_iter(sources, rb: RuleBase, workers: int = 1):
    """Classify many inputs: an iterator of one BatchResult per source, in input order.

    Each source is a Spectrum, an ``(id, text)`` pair or a file path. The
    rule base is compiled here, before any input is read, so its errors
    raise from this call and not from the first result; per-item failures
    become error records instead of aborting the batch. With one worker,
    each input is read and classified only when its result is asked for.
    No more threads than ``os.cpu_count()`` are started.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, os.cpu_count() or 1)
    classify_spectrum = compile_rules(rb)
    nu = rb.options.nu

    def one(source):
        if not isinstance(source, (Spectrum, tuple)):
            source = os.fspath(source)
        sid = _source_id(source)
        try:
            s = _resolve(source, sid)
            mv = classify_spectrum(s)
            return BatchResult(sid, mv, harden(mv, nu))
        except (SpectraClassError, OSError, ValueError) as exc:
            return BatchResult(sid, None, None, error=str(exc))

    if workers == 1:
        return map(one, sources)
    return _pooled(one, sources, workers)


_SLICE = 16  # sources submitted per worker at a time, so only that many results are held


def _pooled(one, sources, workers: int):
    """``map(one, sources)`` on ``workers`` threads, submitting ``_SLICE * workers`` sources at a time."""
    from concurrent.futures import ThreadPoolExecutor  # only here: it imports logging and threading

    sources = iter(sources)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while batch := list(islice(sources, _SLICE * workers)):
            yield from pool.map(one, batch)


def classify_batch(sources, rb: RuleBase, workers: int = 1) -> list:
    """Every result of ``classify_iter``, as a list."""
    return list(classify_iter(sources, rb, workers))


FMT_SPEC = ".6g"  # the format() spec of every number in a CSV output


def fmt(x: float) -> str:
    """Number format of every CSV output: up to six significant digits."""
    return format(x, FMT_SPEC)


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, each ``"`` doubled, if it holds , " CR or LF."""
    quote = "," in text or '"' in text or "\r" in text or "\n" in text
    return '"' + text.replace('"', '""') + '"' if quote else text


def write_batch_csv(results, class_codes, stream) -> None:
    """Batch result CSV: id, x, y, label, confidence, one mu column per class; x and y are written empty."""
    header = ["id", "x", "y", "label", "confidence"] + [f"mu_{c}" for c in class_codes]
    stream.write(",".join(header) + "\n")
    for r in results:
        if r.error is not None:
            row = [_csv_field(r.id), "", "", "ERROR", ""] + [""] * len(class_codes)
        else:
            row = [_csv_field(r.id), "", "", r.classification.label, fmt(r.classification.confidence)]
            row += [fmt(r.membership.values[c]) for c in class_codes]
        stream.write(",".join(row) + "\n")
