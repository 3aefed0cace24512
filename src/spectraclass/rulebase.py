"""Rule-base model, text DSL, validation, and the built-in basalt rules.

The DSL keeps classifier definitions close to the linguistic statements
they encode, e.g. "augite has high calcium, significant iron and little
titanium" becomes three terms and the expression ``fe and not_ti and ca``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import DuplicateName, ParseError, UnknownTerm
from .fuzzy import And, MembershipFn, Not, Or, Term, term_names
from .spectrum import IonTarget

UNK = "UNK"  # label of a spectrum no class claims; reserved as a class code


@dataclass
class Options:
    epsilon: float = 0.2  # m/z match window; implementation default, overridable per file
    nu: float = 0.5
    normalize_excluding: tuple = ()


@dataclass
class ClassRule:
    code: str
    display_name: str
    terms: dict  # term name -> (IonTarget, MembershipFn)
    expr: object


@dataclass
class RuleBase:
    name: str
    ions: dict  # symbol -> mz
    classes: list
    options: Options = field(default_factory=Options)

    def excluded_ions(self):
        return [IonTarget(sym, self.ions[sym]) for sym in self.options.normalize_excluding]

    def class_codes(self):
        return [c.code for c in self.classes]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str


# ---------------------------------------------------------------------------
# DSL tokenizer / parser

_TOKEN_RE = re.compile(
    r'"[^"\n]*"'
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    r"|[(){}\[\]=,]"
    r"|#.*"
    r"|\S"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # STRING | NUMBER | IDENT | PUNCT
    value: str
    line: int
    col: int


def _tokenize(source):
    tokens = []
    for lineno, raw in enumerate(source.splitlines(), 1):
        for m in _TOKEN_RE.finditer(raw):
            text = m.group(0)
            col = m.start() + 1
            if text.startswith("#"):  # a comment, since strings match first
                break
            if text.startswith('"'):
                kind = "STRING"
            elif text[0].isalpha() or text[0] == "_":
                kind = "IDENT"
            elif text in "(){}[]=,":
                kind = "PUNCT"
            else:
                try:
                    float(text)
                    kind = "NUMBER"
                except ValueError:
                    raise ParseError(f"bad token {text!r}", line=lineno, col=col) from None
            tokens.append(_Token(kind, text, lineno, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(
                "unexpected end of input",
                line=last.line if last else 1,
                col=last.col if last else 1,
            )
        self.pos += 1
        return tok

    def expect(self, value=None, kind=None):
        tok = self.next()
        if value is not None and tok.value != value:
            raise ParseError(f"expected {value!r}, got {tok.value!r}", tok.line, tok.col)
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, got {tok.value!r}", tok.line, tok.col)
        return tok

    # rulebase := "rulebase" STRING { option | ion | class }
    def rulebase(self):
        self.expect(value="rulebase")
        name = self.expect(kind="STRING").value[1:-1]
        rb = RuleBase(name=name, ions={}, classes=[], options=Options())
        seen_options = set()
        while self.peek() is not None:
            tok = self.next()
            if tok.value == "option":
                self.option(rb, seen_options)
            elif tok.value == "ion":
                self.ion(rb)
            elif tok.value == "class":
                self.class_rule(rb)
            else:
                raise ParseError(
                    f"expected 'option', 'ion' or 'class', got {tok.value!r}",
                    tok.line, tok.col,
                )
        return rb

    def option(self, rb, seen):
        name_tok = self.expect(kind="IDENT")
        name = name_tok.value
        if name in seen:
            raise DuplicateName(f"option {name!r} set twice")
        seen.add(name)
        self.expect(value="=")
        if name == "epsilon":
            val = float(self.expect(kind="NUMBER").value)
            if val <= 0:
                raise ParseError("epsilon must be > 0", name_tok.line, name_tok.col)
            rb.options.epsilon = val
        elif name == "nu":
            val = float(self.expect(kind="NUMBER").value)
            if not 0.0 <= val <= 1.0:
                raise ParseError("nu must be in [0,1]", name_tok.line, name_tok.col)
            rb.options.nu = val
        elif name == "normalize_excluding":
            self.expect(value="[")
            symbols = [self.expect(kind="IDENT").value]
            while self.peek() and self.peek().value == ",":
                self.next()
                symbols.append(self.expect(kind="IDENT").value)
            self.expect(value="]")
            rb.options.normalize_excluding = tuple(symbols)
        else:
            raise ParseError(f"unknown option {name!r}", name_tok.line, name_tok.col)

    def ion(self, rb):
        sym_tok = self.expect(kind="IDENT")
        if sym_tok.value in rb.ions:
            raise DuplicateName(f"ion {sym_tok.value!r} declared twice")
        self.expect(value="=")
        mz = float(self.expect(kind="NUMBER").value)
        if mz <= 0:
            raise ParseError("ion m/z must be positive", sym_tok.line, sym_tok.col)
        rb.ions[sym_tok.value] = mz

    def class_rule(self, rb):
        code_tok = self.expect(kind="IDENT")
        code = code_tok.value
        if any(c.code == code for c in rb.classes):
            raise DuplicateName(f"class {code!r} declared twice")
        display = self.expect(kind="STRING").value[1:-1]
        self.expect(value="{")
        terms = {}
        expr = None
        while True:
            tok = self.next()
            if tok.value == "}":
                break
            if tok.value == "term":
                name_tok = self.expect(kind="IDENT")
                if name_tok.value in terms:
                    raise DuplicateName(f"term {name_tok.value!r} declared twice in class {code!r}")
                self.expect(value="=")
                shape_tok = self.expect(kind="IDENT")
                if shape_tok.value == "medium":
                    # keyword reserved; only high/low shapes are defined
                    raise ParseError("'medium' membership shape is reserved and not yet supported",
                                     shape_tok.line, shape_tok.col)
                if shape_tok.value not in ("high", "low"):
                    raise ParseError(f"expected 'high' or 'low', got {shape_tok.value!r}",
                                     shape_tok.line, shape_tok.col)
                self.expect(value="(")
                ion_tok = self.expect(kind="IDENT")
                if ion_tok.value not in rb.ions:
                    raise ParseError(f"undeclared ion {ion_tok.value!r}", ion_tok.line, ion_tok.col)
                self.expect(value=",")
                self.expect(value="l")
                self.expect(value="=")
                l = float(self.expect(kind="NUMBER").value)
                self.expect(value=",")
                self.expect(value="h")
                self.expect(value="=")
                h = float(self.expect(kind="NUMBER").value)
                self.expect(value=")")
                ion = IonTarget(ion_tok.value, rb.ions[ion_tok.value])
                terms[name_tok.value] = (ion, MembershipFn(shape_tok.value, l, h))
            elif tok.value == "expr":
                self.expect(value="=")
                expr = self.expr()
            else:
                raise ParseError(f"expected 'term', 'expr' or '}}', got {tok.value!r}",
                                 tok.line, tok.col)
        if expr is None:
            raise ParseError(f"class {code!r} has no expr", code_tok.line, code_tok.col)
        for name in term_names(expr):
            if name not in terms:
                raise UnknownTerm(name)
        rb.classes.append(ClassRule(code=code, display_name=display, terms=terms, expr=expr))

    # expr := orexpr ; orexpr := andexpr { "or" andexpr }
    def expr(self):
        children = [self.andexpr()]
        while self.peek() and self.peek().value == "or":
            self.next()
            children.append(self.andexpr())
        return children[0] if len(children) == 1 else Or(tuple(_flatten(children, Or)))

    def andexpr(self):
        children = [self.unary()]
        while self.peek() and self.peek().value == "and":
            self.next()
            children.append(self.unary())
        return children[0] if len(children) == 1 else And(tuple(_flatten(children, And)))

    def unary(self):
        tok = self.next()
        if tok.value == "not":
            return Not(self.unary())
        if tok.value == "(":
            inner = self.expr()
            self.expect(value=")")
            return inner
        if tok.kind == "IDENT":
            return Term(tok.value)
        raise ParseError(f"expected term, 'not' or '(', got {tok.value!r}", tok.line, tok.col)


def _flatten(children, node_type):
    out = []
    for c in children:
        if isinstance(c, node_type):
            out.extend(c.children)
        else:
            out.append(c)
    return out


def parse_rulebase(source: str) -> RuleBase:
    """Parse and validate rule-base DSL text."""
    return require_valid(_Parser(_tokenize(source)).rulebase())


# ---------------------------------------------------------------------------
# Validation

def validate(rb: RuleBase):
    """Check structural invariants; returns diagnostics, never raises."""
    out = []
    if not 0.0 < rb.options.epsilon < math.inf:
        out.append(Diagnostic("error", f"epsilon must be finite and > 0, got {rb.options.epsilon}"))
    if not 0.0 <= rb.options.nu <= 1.0:
        out.append(Diagnostic("error", f"nu out of range [0,1]: {rb.options.nu}"))
    if not rb.classes:
        out.append(Diagnostic("error", "rule base has no classes"))
    for sym in rb.options.normalize_excluding:
        if sym not in rb.ions:
            out.append(Diagnostic("error", f"normalize_excluding names undeclared ion {sym!r}"))
    for sym, mz in rb.ions.items():
        if mz <= 0:
            out.append(Diagnostic("error", f"ion {sym!r} has non-positive m/z {mz}"))
        elif not mz < math.inf:
            out.append(Diagnostic("error", f"ion {sym!r} has non-finite m/z {mz}"))
    seen = set()
    for cr in rb.classes:
        if cr.code == UNK:
            out.append(Diagnostic("error", f"class code {UNK!r} is reserved for the unknown label"))
        if cr.code in seen:
            out.append(Diagnostic("error", f"duplicate class code {cr.code!r}"))
        seen.add(cr.code)
        try:
            used = term_names(cr.expr)
        except TypeError:
            out.append(Diagnostic("error", f"class {cr.code!r} has a malformed expression"))
            continue
        for name in used:
            if name not in cr.terms:
                out.append(Diagnostic("error", f"class {cr.code!r} expr references unknown term {name!r}"))
        for name, (ion, fn) in cr.terms.items():
            if ion.symbol not in rb.ions:
                out.append(Diagnostic("error", f"class {cr.code!r} term {name!r} uses undeclared ion {ion.symbol!r}"))
            if not (math.isfinite(fn.l) and math.isfinite(fn.h)):
                out.append(Diagnostic("error", f"class {cr.code!r} term {name!r} has a non-finite "
                                               f"threshold: l={fn.l}, h={fn.h}"))
            if name not in used:
                out.append(Diagnostic("warning", f"class {cr.code!r} declares unused term {name!r}"))
    return out


def require_valid(rb: RuleBase) -> RuleBase:
    """Return ``rb`` unchanged, or raise validate()'s errors as one ParseError."""
    errors = [d.message for d in validate(rb) if d.severity == "error"]
    if errors:
        raise ParseError("; ".join(errors))
    return rb


# ---------------------------------------------------------------------------
# Canonical serializer

def _fmt_num(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(x)


def serialize_expr(expr, parent_prec=0) -> str:
    # precedence: or=1, and=2, not=3
    if isinstance(expr, Term):
        return expr.name
    if isinstance(expr, Not):
        text = "not " + serialize_expr(expr.child, 3)
        return f"( {text} )" if parent_prec > 3 else text
    if isinstance(expr, And):
        text = " and ".join(serialize_expr(c, 2) for c in expr.children)
        return f"( {text} )" if parent_prec > 2 else text
    if isinstance(expr, Or):
        text = " or ".join(serialize_expr(c, 1) for c in expr.children)
        return f"( {text} )" if parent_prec > 1 else text
    raise TypeError(f"not an expression node: {expr!r}")


def serialize_rulebase(rb: RuleBase) -> str:
    lines = [f'rulebase "{rb.name}"', ""]
    lines.append(f"option epsilon = {_fmt_num(rb.options.epsilon)}")
    lines.append(f"option nu = {_fmt_num(rb.options.nu)}")
    if rb.options.normalize_excluding:
        lines.append("option normalize_excluding = [ "
                     + " , ".join(rb.options.normalize_excluding) + " ]")
    lines.append("")
    for sym, mz in rb.ions.items():
        lines.append(f"ion {sym} = {_fmt_num(mz)}")
    for cr in rb.classes:
        lines.append("")
        lines.append(f'class {cr.code} "{cr.display_name}" {{')
        for name, (ion, fn) in cr.terms.items():
            lines.append(f"  term {name} = {fn.polarity} ( {ion.symbol} , "
                         f"l = {_fmt_num(fn.l)} , h = {_fmt_num(fn.h)} )")
        lines.append(f"  expr = {serialize_expr(cr.expr)}")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in basalt rule base

def builtin_basalt() -> RuleBase:
    """Four-class basalt classifier: ilmenite, augite, plagioclase, olivine.

    Parsed from the shipped ``data/basalt.rules``, the one definition of
    these rules; each call returns a fresh, independently mutable copy.
    """
    text = resources.files(__package__).joinpath("data/basalt.rules").read_text(encoding="utf-8")
    return parse_rulebase(text)
