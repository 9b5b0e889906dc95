"""Sideband-cooling simulator and Raman-ratio thermometry toolkit.

Models Stokes/anti-Stokes scattering of a red-detuned drive in an
optomechanical cavity, synthesizes heterodyne sideband spectra with
realistic averaging noise, and runs the ratio-thermometry pipeline that
recovers phonon occupation, bath temperature and the backaction limit.
"""

__version__ = "0.1.0"
