"""verseforge: Czech poetic strophe generation and formal evaluation."""

__version__ = "0.1.0"
