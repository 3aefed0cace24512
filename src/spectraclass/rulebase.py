"""Rule-base model, text DSL, validation, and the built-in basalt rules.

The DSL keeps classifier definitions close to the linguistic statements
they encode, e.g. "augite has high calcium, significant iron and little
titanium" becomes three terms and the expression ``fe and not_ti and ca``.
"""

from __future__ import annotations

import math
import re
from importlib import resources

from .errors import DomainError, DuplicateName, InvalidThresholds, ParseError, UnknownTerm
from .fuzzy import And, MembershipFn, Not, Or, Term, term_names
from .spectrum import IonTarget, number
from .value import Frozen, Value

UNK = "UNK"  # label of a spectrum no class claims; reserved as a class code


class Options(Frozen):
    """Rule-base options, checked when built; frozen, so change one with Options.replace()."""

    __slots__ = _fields = ("epsilon", "nu", "normalize_excluding")

    def __init__(self, epsilon: float = 0.2, nu: float = 0.5, normalize_excluding: tuple = ()):
        # epsilon is the m/z match window; an implementation default, overridable per file.
        errors = []
        if not 0.0 < epsilon < math.inf:
            errors.append(f"epsilon must be finite and > 0, got {epsilon}")
        if not 0.0 <= nu <= 1.0:
            errors.append(f"nu out of range [0,1]: {nu}")
        if errors:
            raise DomainError("; ".join(errors))
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "normalize_excluding", normalize_excluding)

    def replace(self, **changes) -> "Options":
        """A copy with ``changes`` applied, checked again; an unknown name raises TypeError."""
        return Options(**{name: getattr(self, name) for name in self._fields} | changes)


class ClassRule(Value):
    __slots__ = _fields = ("code", "display_name", "terms", "expr")

    def __init__(self, code: str, display_name: str, terms: dict, expr):
        self.code = code
        self.display_name = display_name
        self.terms = terms  # term name -> (IonTarget, MembershipFn)
        self.expr = expr


class RuleBase(Value):
    __slots__ = _fields = ("name", "ions", "classes", "options")

    def __init__(self, name: str, ions: dict, classes: list, options: Options = Options()):
        self.name = name
        self.ions = ions  # symbol -> mz
        self.classes = classes
        self.options = options  # immutable, so one default instance is shared safely

    def excluded_ions(self):
        return [IonTarget(sym, self.ions[sym]) for sym in self.options.normalize_excluding]

    def class_codes(self):
        return [c.code for c in self.classes]


class Diagnostic(Frozen):
    __slots__ = _fields = ("severity", "message")

    def __init__(self, severity: str, message: str):
        object.__setattr__(self, "severity", severity)  # "error" | "warning"
        object.__setattr__(self, "message", message)


# ---------------------------------------------------------------------------
# DSL tokenizer / parser

_TOKEN_RE = re.compile(
    r'"[^"\n]*"'
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
    r"|[(){}\[\]=,]"
    r"|#.*"
    r"|\S"
)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # STRING | NUMBER | IDENT | PUNCT
        self.value = value
        self.line = line
        self.col = col


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
                    number(text)
                    kind = "NUMBER"
                except ValueError:
                    raise ParseError(f"bad token {text!r}", line=lineno, col=col) from None
            tokens.append(_Token(kind, text, lineno, col))
    return tokens


_MAX_NESTING = 64  # "(" and "not" nested in one expression; every walk of the tree recurses once per level


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # the "(" and "not" open around the token being read
        self.excluded = []  # the ion tokens of normalize_excluding, checked once every ion is declared

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
        keyword = self.expect(value="rulebase")
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
        if not rb.classes:
            raise ParseError("rule base has no classes", keyword.line, keyword.col)
        for tok in self.excluded:  # checked last: an ion may be declared after the option
            if tok.value not in rb.ions:
                raise ParseError(f"normalize_excluding names undeclared ion {tok.value!r}", tok.line, tok.col)
        return rb

    def option(self, rb, seen):
        name_tok = self.expect(kind="IDENT")
        name = name_tok.value
        if name in seen:
            raise DuplicateName(f"option {name!r} set twice", name_tok.line, name_tok.col)
        seen.add(name)
        self.expect(value="=")
        if name in ("epsilon", "nu"):
            value = number(self.expect(kind="NUMBER").value)
        elif name == "normalize_excluding":
            self.expect(value="[")
            self.excluded = [self.expect(kind="IDENT")]
            while self.peek() and self.peek().value == ",":
                self.next()
                self.excluded.append(self.expect(kind="IDENT"))
            self.expect(value="]")
            value = tuple(tok.value for tok in self.excluded)
        else:
            raise ParseError(f"unknown option {name!r}", name_tok.line, name_tok.col)
        rb.options = _checked(name_tok, rb.options.replace, **{name: value})

    def ion(self, rb):
        sym_tok = self.expect(kind="IDENT")
        if sym_tok.value in rb.ions:
            raise DuplicateName(f"ion {sym_tok.value!r} declared twice", sym_tok.line, sym_tok.col)
        self.expect(value="=")
        mz = number(self.expect(kind="NUMBER").value)
        _checked(sym_tok, IonTarget, sym_tok.value, mz)
        rb.ions[sym_tok.value] = mz

    def class_rule(self, rb):
        code_tok = self.expect(kind="IDENT")
        code = code_tok.value
        if code == UNK:
            raise ParseError(f"class code {UNK!r} is reserved for the unknown label",
                             code_tok.line, code_tok.col)
        if any(c.code == code for c in rb.classes):
            raise DuplicateName(f"class {code!r} declared twice", code_tok.line, code_tok.col)
        display = self.expect(kind="STRING").value[1:-1]
        self.expect(value="{")
        terms = {}
        expr = expr_tok = None
        while True:
            tok = self.next()
            if tok.value == "}":
                break
            if tok.value == "term":
                name_tok = self.expect(kind="IDENT")
                if name_tok.value in terms:
                    raise DuplicateName(f"term {name_tok.value!r} declared twice in class {code!r}",
                                        name_tok.line, name_tok.col)
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
                l = number(self.expect(kind="NUMBER").value)
                self.expect(value=",")
                self.expect(value="h")
                self.expect(value="=")
                h = number(self.expect(kind="NUMBER").value)
                self.expect(value=")")
                ion = IonTarget(ion_tok.value, rb.ions[ion_tok.value])
                terms[name_tok.value] = (ion, _checked(tok, MembershipFn, shape_tok.value, l, h))
            elif tok.value == "expr":
                expr_tok = tok
                self.expect(value="=")
                expr = self.expr()
            else:
                raise ParseError(f"expected 'term', 'expr' or '}}', got {tok.value!r}",
                                 tok.line, tok.col)
        if expr is None:
            raise ParseError(f"class {code!r} has no expr", code_tok.line, code_tok.col)
        for name in term_names(expr):
            if name not in terms:
                raise UnknownTerm(name, expr_tok.line, expr_tok.col)
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
        if tok.value in ("not", "("):
            if self.depth == _MAX_NESTING:
                raise ParseError(f"expression nested more than {_MAX_NESTING} deep", tok.line, tok.col)
            self.depth += 1
            if tok.value == "not":
                inner = Not(self.unary())
            else:
                inner = self.expr()
                self.expect(value=")")
            self.depth -= 1
            return inner
        if tok.kind == "IDENT":
            return Term(tok.value)
        raise ParseError(f"expected term, 'not' or '(', got {tok.value!r}", tok.line, tok.col)


def _checked(tok, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a value it rejects raises as a ParseError at ``tok``."""
    try:
        return make(*args, **kwargs)
    except InvalidThresholds as exc:  # a ParseError, but without a position
        raise InvalidThresholds(exc.args[0], tok.line, tok.col) from None
    except DomainError as exc:
        raise ParseError(str(exc), tok.line, tok.col) from None


def _flatten(children, node_type):
    out = []
    for c in children:
        if isinstance(c, node_type):
            out.extend(c.children)
        else:
            out.append(c)
    return out


def parse_rulebase(source: str) -> RuleBase:
    """Parse rule-base DSL text; the first error met raises as a ParseError at its line and column."""
    return _Parser(_tokenize(source)).rulebase()


# ---------------------------------------------------------------------------
# Validation

def validate(rb: RuleBase):
    """Diagnostics, never raised, of how the values refer to each other; a parsed rule base has warnings only."""
    out = []
    if not rb.classes:
        out.append(Diagnostic("error", "rule base has no classes"))
    for sym in rb.options.normalize_excluding:
        if sym not in rb.ions:
            out.append(Diagnostic("error", f"normalize_excluding names undeclared ion {sym!r}"))
    declared = {}  # symbol -> m/z, for each ion whose m/z is valid
    for sym, mz in rb.ions.items():
        try:
            declared[sym] = IonTarget(sym, mz).mz
        except (DomainError, ValueError) as exc:
            out.append(Diagnostic("error", str(exc)))
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
            elif ion.symbol in declared and ion.mz != declared[ion.symbol]:
                # serialize_rulebase writes the symbol only, so a parsed copy would look elsewhere.
                out.append(Diagnostic("error", f"class {cr.code!r} term {name!r} looks at m/z {ion.mz}, "
                                               f"but ion {ion.symbol!r} is declared at {rb.ions[ion.symbol]}"))
            if name not in used:
                out.append(Diagnostic("warning", f"class {cr.code!r} declares unused term {name!r}"))
    return out


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
