"""taikoforge: learn to generate osu!Taiko charts from audio, and measure
how human-like the resulting note patterning is."""

__version__ = "0.1.0"
