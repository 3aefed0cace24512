"""Exception types shared across the package."""


class SpectraClassError(Exception):
    """Base class for all errors raised by spectraclass."""


class ParseError(SpectraClassError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)


class EmptySpectrum(SpectraClassError):
    pass


class DomainError(SpectraClassError):
    pass


class CannotNormalize(SpectraClassError):
    pass


class InvalidThresholds(ParseError):
    """Membership thresholds that are not finite with l < h; the DSL parser adds the term's line."""


class UnknownTerm(ParseError):
    """An expression names an undeclared term; the DSL parser adds the class's ``expr`` line."""

    def __init__(self, name, line=None, col=None):
        self.name = name
        super().__init__(f"unknown term: {name!r}", line, col)


class DuplicateName(ParseError):
    """An option, ion, class or term set twice; the DSL parser gives the second name's line."""


class NoClasses(SpectraClassError):
    pass


class EmptyEnsemble(SpectraClassError):
    pass


class IncompatibleDBs(SpectraClassError):
    pass
