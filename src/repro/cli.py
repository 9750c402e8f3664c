"""Argument types for the example scripts; only they import this
module, so importing the simulator does not import argparse."""

import argparse


def at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``, so
    a bad count is a usage error, not a traceback or an empty run."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return integer
