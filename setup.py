"""Package metadata.

``pip install -e .`` installs the ``repro`` package from ``src/`` with
its single runtime dependency; ``pip install -e .[fast]`` adds numpy,
which unlocks the ``array`` simulation kernel; ``pip install -e
.[dev]`` adds the test and benchmark toolchain (the tier-1 suite and
``benchmarks/`` need nothing else).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One version string: ``repro.__version__``, which every run record
# stamps as ``package_version``.  Read as text, not imported, so
# building needs none of the runtime dependencies.
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    Path(__file__).with_name("src").joinpath("repro", "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-elkin-mst",
    version=VERSION,
    description=(
        "Reproduction of Elkin's deterministic distributed MST algorithm "
        "(PODC 2017) on a synchronous CONGEST(b log n) simulator"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "networkx>=2.6",
    ],
    extras_require={
        "fast": [
            "numpy>=1.22",
        ],
        "dev": [
            "pytest>=7",
            "hypothesis>=6",
            "pytest-benchmark>=4",
            "pytest-cov>=4",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-mst=repro.cli:main",
        ],
    },
)
