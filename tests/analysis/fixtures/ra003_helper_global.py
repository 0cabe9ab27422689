"""Fixture: violates RA003 only — an initializer's helper rebinds a global."""

from concurrent.futures import ThreadPoolExecutor

_STATE = None


def _install(value):
    global _STATE
    _STATE = value


def init(value):
    _install(value)


def run():
    with ThreadPoolExecutor(max_workers=1, initializer=init, initargs=(1,)):
        pass
