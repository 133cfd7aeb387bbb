"""Exception hierarchy shared by all engine modules.

Every error carries a short machine-readable ``code`` and the CLI exit
code it ends in, ``exit_code``: parse errors 1, unsupported input 2,
internal consistency failures 3.
"""


class EngineError(Exception):
    code = "engine-error"
    exit_code = 2


class ParseError(EngineError):
    code = "parse-error"
    exit_code = 1


class UnsupportedVariety(EngineError):
    code = "unsupported-variety"


class UnsupportedPolarisation(EngineError):
    code = "unsupported-polarisation"


class NotAmple(EngineError):
    code = "not-ample"


class NotVeryAmple(EngineError):
    code = "not-very-ample"


class GenericModeUnsupported(EngineError):
    code = "generic-mode-unsupported"


class BoxTooLarge(EngineError):
    code = "box-too-large"


class BadTwist(EngineError):
    code = "bad-twist"


class NotSurjective(EngineError):
    code = "not-surjective"


class ScanBoxTooSmall(EngineError):
    """The character scan box was provably too small; a boundary shell
    character contributed nonzero cohomology."""

    code = "scan-box-too-small"
    exit_code = 3


class InternalInconsistency(EngineError):
    """Two independent computation routes disagreed.  This always signals
    a bug in the engine, never a mathematical fact."""

    code = "internal-inconsistency"
    exit_code = 3
