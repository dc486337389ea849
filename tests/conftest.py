import pathlib
import sys

# The tests run on this checkout's package: ./src goes first on the path,
# ahead of any installed affineqe, and anything else that resolves stops
# the run at once.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if sys.path[:1] != [str(_SRC)]:
    sys.path.insert(0, str(_SRC))

import affineqe  # noqa: E402

if pathlib.Path(affineqe.__file__).resolve().parent != _SRC / "affineqe":
    raise ImportError(f"affineqe resolves to {affineqe.__file__}, not to "
                      f"this checkout's {_SRC / 'affineqe'}")
