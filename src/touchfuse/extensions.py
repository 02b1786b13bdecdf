"""Compiled scipy modules loaded from their files.

touchfuse calls three LAPACK routines (`gpis`) and one KD-tree class
(`metrics`) that live in scipy's extension modules. Importing them by
their public names (`scipy.linalg.lapack`, `scipy.spatial`) runs the
subpackage's `__init__`, and scipy.linalg's loads scipy's array-API layer,
which imports numpy.f2py, numpy.testing and numpy.ma: start-up time and
memory that no touchfuse call uses. `scipy_extension` loads the extension
module alone. What it returns is the module that the public names point to,
so a later `import scipy.linalg` or `import scipy.spatial` in the same
process finds it in sys.modules and hands out the very same objects.
"""

import importlib.machinery
import importlib.util
import os
import sys


def scipy_extension(name):
    """The scipy extension module `scipy.<name>`, `name` a dotted path such
    as "linalg._flapack", loaded from its file without running the
    `__init__` of the subpackages on that path.

    The top-level `scipy` is imported first: it is cheap, loads no
    array-API layer and runs scipy's `_distributor_init`, which a wheel may
    need before any of its extension modules loads. A module already in
    sys.modules (its subpackage imported it, or an earlier call did) is
    returned as it is. Raises ImportError naming the paths it looked for
    when no file of an extension suffix exists.
    """
    import scipy

    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    base = os.path.join(scipy.__path__[0], *name.split("."))
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no extension module {full}: none of {', '.join(paths)} exists",
                          name=full)
    loader = importlib.machinery.ExtensionFileLoader(full, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(full, loader))
    sys.modules[full] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module
