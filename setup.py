"""Packaging metadata for the ``repro`` distribution.

The package lives under ``src/``.  ``pip install -e .`` installs it
editable; where the ``wheel`` package is missing, add
``--no-build-isolation --no-use-pep517``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: the version line is all setup needs from repro.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
