"""Import `affinebody` from the `src/` tree of the checkout that holds this
directory, never from an installed copy."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingSource(RuntimeError):
    pass


def use_checkout_source():
    """Put the checkout's `src/` first on the path and import the package
    from it.  Raises MissingSource when the checkout has no package."""
    if not os.path.isfile(os.path.join(SRC, "affinebody", "__init__.py")):
        raise MissingSource(f"no affinebody package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import affinebody
    where = os.path.dirname(os.path.abspath(affinebody.__file__))
    if where != os.path.join(SRC, "affinebody"):
        raise MissingSource(f"affinebody imported from {where}, not {SRC}")
    return affinebody
