"""Exception types shared across the toolkit."""


class TaikoForgeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedFile(TaikoForgeError):
    """A chart file is missing required sections or has unparsable lines."""


class OverlapError(MalformedFile):
    """Two chart objects claim the same 23ms frame."""


class MultiBpmUnsupported(TaikoForgeError):
    """The .sm file declares more than one BPM."""


class EmptyChart(TaikoForgeError):
    """An operation was asked to run on a chart with no frames."""


class UnsupportedCodec(TaikoForgeError):
    """Audio file uses a format outside the supported WAV subset."""


class CorruptFile(TaikoForgeError):
    """Audio or binary file is structurally broken."""


class TooShort(TaikoForgeError):
    """Input has fewer frames than the operation requires."""


class EmptyCorpus(TaikoForgeError):
    """Normalization statistics requested over zero frames."""


class TooFewCharts(TaikoForgeError):
    """Dataset split needs at least two charts."""


class BadMagic(CorruptFile):
    """Binary file does not start with the expected magic bytes."""


class TruncatedFile(CorruptFile):
    """Binary file ends before its declared payload."""


class VersionMismatch(CorruptFile):
    """Binary file was written by an incompatible format version."""


class ChecksumMismatch(CorruptFile):
    """Binary file payload does not match its stored checksum."""


class ShapeMismatch(TaikoForgeError):
    """Stored or supplied arrays do not match the declared architecture."""


class NonFiniteActivation(TaikoForgeError):
    """A forward pass produced NaN or infinity."""


class NonFiniteGradient(TaikoForgeError):
    """A backward pass produced NaN or infinity."""
