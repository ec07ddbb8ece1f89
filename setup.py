"""Legacy-friendly packaging: ``pip install -e . --no-build-isolation``
(and plain ``python setup.py develop``) work on offline hosts whose
setuptools lacks the ``wheel`` package.

The library needs only numpy.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=2.0"],  # np.bitwise_count (the gossip plane's row counts)
)
