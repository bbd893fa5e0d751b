"""Package metadata (src layout; the library needs nothing but the stdlib).

`pip install .` is the whole install.  numpy is an optional accelerator
for the hashing hot paths (`pip install .[fast]`).  Offline environments
without the `wheel` package can use the legacy path:
`pip install -e . --no-build-isolation --no-use-pep517`.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'Informed Content Delivery Across Adaptive "
        "Overlay Networks' (Byers, Considine, Mitzenmacher, Rost; SIGCOMM 2002)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[],
    extras_require={"fast": ["numpy"]},
)
