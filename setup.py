"""Package metadata for ``pip install .`` / ``pip install -e .``.

There is no ``pyproject.toml``; everything setuptools needs is here.
The version mirrors ``repro.__version__`` (``tests/test_public_api.py``
pins the latter).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Staircase join reproduction: XPath over pre/post-encoded XML",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
