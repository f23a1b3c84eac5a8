"""Exception hierarchy shared by all apate modules."""


class ApateError(Exception):
    """Base class for all errors raised by this package."""


class UnknownBuiltin(ApateError):
    """A program references a condition or action that is not registered."""


class SourceError(ApateError):
    """An error with a source location (file:line:col)."""

    def __init__(self, message, filename="<input>", line=0, col=0):
        super().__init__(message)
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col

    def __str__(self):
        return f"{self.filename}:{self.line}:{self.col}: {self.message}"


class ApateSyntaxError(SourceError):
    """Lexical or grammatical error in .apate source."""


class UnterminatedString(ApateSyntaxError):
    pass


class IllegalCharacter(ApateSyntaxError):
    pass


class SemanticError(SourceError):
    """Name/type/arity error found during analysis."""


class UndefinedName(SemanticError):
    pass


class TypeMismatch(SemanticError):
    pass


class ArityError(SemanticError):
    pass


class DuplicateBind(SemanticError):
    pass


class BadMagic(ApateError):
    """A serialized program file does not start with the expected header."""


class UnsupportedVersion(ApateError):
    pass


class CorruptRecord(ApateError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedManifestLine(ApateError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceError(ApateError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TooFewSamples(ApateError):
    pass
