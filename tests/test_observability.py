import functools
import importlib
import inspect
import pkgutil

import affineqe
from affineqe import scalars, surface
from affineqe.surface import AffineConnection2


def _package_lru_caches():
    """Every lru_cache the package defines, by module-qualified name: at
    module level and in the classes of each module."""
    found = {}
    for info in pkgutil.iter_modules(affineqe.__path__):
        module = importlib.import_module(f"affineqe.{info.name}")
        owners = [(info.name, module)] + [
            (f"{info.name}.{name}", cls)
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for prefix, owner in owners:
            for name, value in vars(owner).items():
                if (isinstance(value, functools._lru_cache_wrapper)
                        and value.__module__ == module.__name__):
                    found[f"{prefix}.{name}"] = value
    return found


def test_cache_stats_names_every_bounded_cache():
    caches = _package_lru_caches()
    assert {"surface.ricci", "surface._gamma_function"} <= set(caches)
    stats = affineqe.cache_stats()
    assert set(stats) == set(caches) | {"scalars._CTX_ROOTS"}
    for name, fn in caches.items():
        assert fn.cache_info().maxsize is not None, name
        assert stats[name] == fn.cache_info(), name
    assert stats["scalars._CTX_ROOTS"] == len(scalars._CTX_ROOTS)


def test_cache_stats_follows_the_caches():
    surface._gamma_function.cache_clear()
    assert affineqe.cache_stats()["surface._gamma_function"].currsize == 0
    surface.christoffel(AffineConnection2.type_a(c111=5, c222=-3))
    info = affineqe.cache_stats()["surface._gamma_function"]
    assert (info.currsize, info.misses) == (1, 1)
    surface._gamma_function.cache_clear()


def test_all_lists_every_public_name():
    """`__all__` is exactly the package's public names that are not modules,
    with no name twice, so `from affineqe import *` exports what the package
    imports and nothing it no longer has."""
    public = {name for name, value in vars(affineqe).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(affineqe.__all__) == sorted(public)
