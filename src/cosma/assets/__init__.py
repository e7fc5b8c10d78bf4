"""Bundled benchmark models and their requirement suite."""

NAMES = ("tlc.csm", "tlc_car.csm", "tlc_queries.tq")


def text(name: str) -> str:
    if name not in NAMES:
        raise KeyError(f"unknown asset {name!r}; available: {NAMES}")
    # imported here, not by every command: it loads tempfile, shutil and zipfile
    from importlib import resources

    return resources.files(__name__).joinpath(name).read_text(encoding="utf-8")
