"""Exception hierarchy shared by all apate modules."""

from itertools import compress, repeat

_BLANK = " \t\n\r\x0b\x0c"   # ASCII whitespace, as bytes.strip strips it


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


class LineError(ApateError):
    """An error at a numbered line of a line-oriented input."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no

    @classmethod
    def lines(cls, data: bytes, first: int = 1):
        """Read the UTF-8 lines of ``data``, numbered from ``first``.

        Returns an iterator over (n, text) of each non-blank line, and the
        number the line after ``data`` takes when every line decodes.
        ``data`` is decoded in one call, then cut where ``bytes.splitlines``
        cuts it, so a line ends only at ``\\n``, ``\\r\\n`` or ``\\r``.
        Blank is ASCII whitespace only.  When a line is not UTF-8, the
        iterator yields the lines before it and then raises ``cls`` at its
        number, with the reason that decoding that line on its own gives.
        """
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            start = max(data.rfind(b"\n", 0, exc.start),
                        data.rfind(b"\r", 0, exc.start)) + 1
            before, n = cls.lines(data[:start], first)
            return cls._up_to(before, n, data[start:].splitlines()[0]), n
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        texts = text.split("\n")
        end = first + len(texts) - (not texts[-1])   # no line after a last end
        return compress(enumerate(texts, first),
                        map(str.strip, texts, repeat(_BLANK))), end

    @classmethod
    def _up_to(cls, before, n, raw):
        """Yield what ``before`` yields, then raise ``cls`` at line ``n``,
        whose bytes ``raw`` are not UTF-8."""
        yield from before
        try:
            raw.decode()
        except UnicodeDecodeError as exc:
            raise cls(n, f"not UTF-8: {exc.reason} at byte "
                      f"{exc.start + 1}") from None


class CorruptRecord(LineError):
    """A bad record in a serialized program (.apc)."""


class MalformedManifestLine(LineError):
    """A bad line in a VFS manifest."""


class TraceError(LineError):
    """A bad line in a JSONL trace."""


class TooFewSamples(ApateError):
    pass
