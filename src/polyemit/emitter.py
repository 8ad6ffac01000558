"""Multipole emitters and their generalized-moment contractions.

A two-level emitter couples to the field through its electric dipole d, a
magnetic dipole m, and an electric quadrupole Q. The three moments combine
into one frequency-dependent differential operator acting on Green-tensor
arguments: row index mu, derivative index k,

    coeff(w)[mu, k] = Q[mu, k] + (i/w) * sum_p eps[p, k, mu] m[p]

so a pairing of two emitters with a Green jet needs the jet value, both
first-derivative blocks, and the mixed second derivative. The left (bra)
emitter enters conjugated and pairs with the first tensor index and the
field-point derivatives; the right (ket) emitter pairs with the second
index and the source-point derivatives.

Frequency structure: products of two such operators depend on frequency as
F(w) = f0 + f1/w + f2/w^2 with constant tensors f0, f1, f2. That polynomial
structure in 1/w is what the spectral-integral machinery relies on, so this
module exposes it directly (CoefficientBundle). Every rate and shift of the
package contracts a bundle; bilinear_form, the pairing at one frequency, is
on no package path and serves as the tests' entry-by-entry reference.
moment_product_stack stacks the bundles of many pairs on a leading axis,
over which every contraction broadcasts, row p to the bits of its pair's
bundle alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .constants import (ATOMIC_DIPOLE, ATOMIC_QUADRUPOLE, BOHR_MAGNETON, C0,
                        EPS0, HBAR)
from .errors import (InputError, MissingDerivativeError, finite_array,
                     finite_point, is_number, positive_number)
from .jets import GreensJet

__all__ = ["CHANNELS", "MultipoleEmitter", "bilinear_form",
           "CoefficientBundle", "moment_product_bundle",
           "moment_product_stack", "normalize_channels"]

CHANNELS = ("ED", "MD", "EQ")

# Levi-Civita symbol, eps[i, j, k]
_EPS = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
    _EPS[_i, _j, _k] = _s

# 1 / (hbar pi eps0 c^2): normalization of the spectral coefficient tensors
SPECTRAL_NORM = 1.0 / (HBAR * np.pi * EPS0 * C0 ** 2)


def _magnetic(m: np.ndarray) -> np.ndarray:
    """M[mu, k] = sum_p eps[p, k, mu] m_p, over any leading axes of m (the
    i/w factor lives in _CHANNEL_TABLE)."""
    return np.einsum('pkm,...p->...mk', _EPS, m)


# channel -> (derivative order, power of 1/w, ket tensor of the moments d,
# m, Q, which may carry a leading emitter axis): D = d + (Q + (i/w) M) .
# grad, with the derivative acting on the Green argument the emitter sits at
_CHANNEL_TABLE = {
    "ED": (0, 0, lambda d, m, Q: d),
    "EQ": (1, 0, lambda d, m, Q: Q),
    "MD": (1, 1, lambda d, m, Q: 1j * _magnetic(m)),
}

# (bra derivative order, ket derivative order) -> jet block, and the outer
# product of bra and ket tensors laid out like that block (over any
# leading pair axes)
_PRODUCT = {(0, 0): ("value", '...m,...n->...mn'),
            (1, 0): ("d_obs", '...mk,...n->...mnk'),
            (0, 1): ("d_src", '...m,...nl->...mnl'),
            (1, 1): ("d_mixed", '...mk,...nl->...mnkl')}

def normalize_channels(channels) -> frozenset:
    if channels is None:
        return frozenset(CHANNELS)
    if isinstance(channels, str):
        channels = [channels]
    out = frozenset(str(c).upper() for c in channels)
    bad = out - set(CHANNELS)
    if bad:
        raise InputError(f"unknown channels {sorted(bad)}; valid: {CHANNELS}")
    if not out:
        raise InputError("channel selection must be non-empty")
    return out


def _parse_complex(x, name: str) -> complex:
    """One entry of the JSON complex encoding: a number, or an [re, im]
    pair of numbers (is_number)."""
    try:
        if is_number(x):
            return complex(x)
        if (isinstance(x, (list, tuple)) and len(x) == 2
                and all(is_number(t) for t in x)):
            return complex(x[0], x[1])
    except OverflowError:
        raise InputError(f"{name}: integer too large for a float") from None
    raise InputError(f"{name} must be numeric, got entry {x!r}")


def _parse_complex_array(node, shape, name):
    """JSON complex encoding (_parse_complex entries) nested in lists of
    exactly shape: a missing or extra entry or level is refused."""
    def walk(x, dims):
        if not dims:
            return _parse_complex(x, name)
        if not isinstance(x, (list, tuple)) or len(x) != dims[0]:
            raise InputError(f"{name}: wrong shape, expected {shape}")
        return [walk(v, dims[1:]) for v in x]
    return np.array(walk(node, shape), dtype=complex)


@dataclass(frozen=True)
class MultipoleEmitter:
    """Position (m), transition frequency (rad/s), and transition moments.

    Units: d in C m, m in J/T, Q in C m^2. Q is used exactly as supplied;
    no symmetrization or trace removal happens behind the caller's back.
    """

    position: np.ndarray
    omega0: float
    d: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=complex))
    m: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=complex))
    Q: np.ndarray = field(default_factory=lambda: np.zeros((3, 3), dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "position",
                           finite_point(self.position, "emitter position"))
        object.__setattr__(self, "omega0", positive_number(
            self.omega0, "transition frequency omega0"))
        for name, shape in (("d", (3,)), ("m", (3,)), ("Q", (3, 3))):
            object.__setattr__(self, name, finite_array(
                getattr(self, name), f"moment {name}", shape))

    # -- derived quantities ------------------------------------------------

    def restricted(self, channels) -> "MultipoleEmitter":
        """This emitter with the moments of every channel outside channels
        set to zero: the one way to deselect a channel. channels are names
        as normalize_channels reads them (None keeps every channel)."""
        keep = normalize_channels(channels)
        return replace(
            self, d=self.d if "ED" in keep else np.zeros_like(self.d),
            m=self.m if "MD" in keep else np.zeros_like(self.m),
            Q=self.Q if "EQ" in keep else np.zeros_like(self.Q))

    def active_channels(self) -> frozenset:
        out = set()
        if np.any(self.d != 0):
            out.add("ED")
        if np.any(self.m != 0):
            out.add("MD")
        if np.any(self.Q != 0):
            out.add("EQ")
        return frozenset(out)

    # -- construction from files -------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "MultipoleEmitter":
        if "position_m" not in data or "omega0_rad_per_s" not in data:
            raise InputError("emitter description needs position_m and "
                             "omega0_rad_per_s")
        pos = finite_point(data["position_m"], "position_m")
        omega0 = positive_number(data["omega0_rad_per_s"], "omega0_rad_per_s")

        def moment(si_key, atomic_key, shape, unit):
            given_si = si_key in data
            given_at = atomic_key in data
            if given_si and given_at:
                raise InputError(f"give {si_key} or {atomic_key}, not both")
            if given_si:
                return _parse_complex_array(data[si_key], shape, si_key)
            if given_at:
                return unit * _parse_complex_array(data[atomic_key], shape,
                                                   atomic_key)
            return np.zeros(shape, dtype=complex)

        d = moment("d_Cm", "d_atomic", (3,), ATOMIC_DIPOLE)
        m = moment("m_J_per_T", "m_bohr_magnetons", (3,), BOHR_MAGNETON)
        Q = moment("Q_Cm2", "Q_atomic", (3, 3), ATOMIC_QUADRUPOLE)
        known = {"position_m", "omega0_rad_per_s", "d_Cm", "d_atomic",
                 "m_J_per_T", "m_bohr_magnetons", "Q_Cm2", "Q_atomic"}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown emitter fields {sorted(unknown)}")
        return cls(position=pos, omega0=omega0, d=d, m=m, Q=Q)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "MultipoleEmitter":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from exc
        except OSError as exc:
            raise InputError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"{path}: emitter file must hold a JSON object")
        return cls.from_dict(data)


def bilinear_form(a: MultipoleEmitter, b: MultipoleEmitter, jet: GreensJet,
                  omega: float):
    """Pair two emitters through a Green jet: sum over tensor entries of
    conj(D_a) x D_b applied to the jet blocks.

    Conjugation sits on the a side. A full jet contracts the complex Green
    blocks, an imaginary-part jet its stored Im values; a batched jet gives
    an array over its batch shape. Requires omega > 0 and real (complex
    frequencies go through coefficient bundles by analytic continuation).
    """
    omega = positive_number(omega, "bilinear_form frequency omega")
    bundle = moment_product_bundle(a, b)
    # np.divide rounds a single point as it rounds each batch entry;
    # Python's complex division by a float rounds differently
    return np.divide(bundle.contract(jet.blocks, bundle.at(omega)),
                     SPECTRAL_NORM)


@dataclass(frozen=True)
class CoefficientBundle:
    """Frequency decomposition F(w) = f0 + f1/w + f2/w^2 of the normalized
    moment product conj(D_a) x D_b / (hbar pi eps0 c^2).

    Each field maps block name (value/d_obs/d_src/d_mixed) to a constant
    complex tensor shaped like the block. Real and imaginary parts of F(w)
    are the spectral coefficient tensors commonly written R_mn and I_mn.
    contract is the one place where coefficient tensors meet jet blocks,
    and it sums them in BLOCK_SHAPES order, whichever blocks a bundle has.
    """

    f0: dict
    f1: dict
    f2: dict

    # coefficients and blocks may each carry leading axes; they broadcast
    _SUM = {"value": '...mn,...mn->...', "d_obs": '...mnk,...mnk->...',
            "d_src": '...mnl,...mnl->...', "d_mixed": '...mnkl,...mnkl->...'}

    def at(self, omega: complex) -> dict:
        """F(omega) per block present, by analytic continuation in 1/omega."""
        out = {}
        for power, coeffs in enumerate((self.f0, self.f1, self.f2)):
            for name, tensor in coeffs.items():
                term = tensor / omega ** power
                out[name] = out[name] + term if name in out else term
        return out

    def required_blocks(self) -> set:
        names = set()
        for coeffs in (self.f0, self.f1, self.f2):
            for name, tensor in coeffs.items():
                if np.any(tensor != 0):
                    names.add(name)
        return names

    def contract(self, blocks: Mapping, coeffs: Mapping):
        """sum over blocks of coeff tensor (conjugate-free) dot block array.

        complex for unbatched blocks and coefficients; otherwise a complex
        array over the broadcast of their leading shapes (one contraction
        per batch entry, e.g. coefficients of shape (s, 1, ...) against
        blocks batched over n frequencies give an (s, n) array).
        """
        total = 0.0 + 0.0j
        for name, spec in self._SUM.items():
            if name not in coeffs:
                continue
            blk = blocks.get(name)
            if blk is None:
                raise MissingDerivativeError(
                    f"jet lacks the {name} block needed by the enabled "
                    f"channels")
            total += np.einsum(spec, coeffs[name], blk)
        return complex(total) if np.ndim(total) == 0 else total

    def spectral_density(self, jet: GreensJet, omega: float):
        """Z(omega) = sum F(omega) dot Im-part jet blocks."""
        return self.contract(jet.imag_part().blocks, self.at(omega))


def _channel_terms(d, m, Q) -> list:
    """(derivative order, power of 1/w, ket tensor) of each channel whose
    tensor is not all zero, for the moments d, m, Q of one emitter or of a
    stack of them."""
    out = []
    for order, power, ket in _CHANNEL_TABLE.values():
        tensor = ket(d, m, Q)
        if tensor.any():
            out.append((order, power, tensor))
    return out


def _moment_products(bras: list, kets: list) -> CoefficientBundle:
    """The bundle of the channel terms of a bra and a ket side (see
    moment_product_bundle), one einsum per channel pairing; stacked terms
    give a bundle stacked alike. Every tensor is C-ordered (an einsum
    reduction follows its operands' layout), so contract rounds alike."""
    powers = ({}, {}, {})
    for order_a, power_a, ta in bras:
        bra = ta.conj()
        for order_b, power_b, tb in kets:
            name, spec = _PRODUCT[(order_a, order_b)]
            term = SPECTRAL_NORM * np.einsum(spec, bra, tb, order="C")
            acc = powers[power_a + power_b]
            acc[name] = acc[name] + term if name in acc else term
    f0, f1, f2 = ({name: t for name, t in acc.items() if t.any()}
                  for acc in powers)
    return CoefficientBundle(f0=f0, f1=f1, f2=f2)


def moment_product_bundle(a: MultipoleEmitter,
                          b: MultipoleEmitter) -> CoefficientBundle:
    """Coefficient tensors of conj(D_a) x D_b / (hbar pi eps0 c^2).

    Every pairing of a channel of a with a channel of b contributes
    conj(bra tensor) x ket tensor to the block fixed by the two derivative
    orders, at the power of 1/w the two channels sum to: f0 collects d and
    Q, f1 single magnetic factors, f2 the double magnetic factor. Channels
    with zero moments contribute nothing, so a restricted emitter selects
    channels; all-zero products are dropped.
    """
    return _moment_products(_channel_terms(a.d, a.m, a.Q),
                            _channel_terms(b.d, b.m, b.Q))


def moment_product_stack(emitters, bra_index, ket_index) -> CoefficientBundle:
    """moment_product_bundle of every pair (emitters[bra_index[p]],
    emitters[ket_index[p]]), stacked on a leading pair axis p: one einsum
    per channel pairing for all pairs. A channel that no emitter of a side
    drives is left out of that side, and a product that is zero for every
    pair is dropped; where a pair lacks a channel that others drive, its
    coefficients are exact zeros. Row p contracts as its pair's own bundle."""
    terms = _channel_terms(*(np.array([getattr(e, name) for e in emitters])
                             for name in ("d", "m", "Q")))

    def side(index):
        # the channels this side drives, as moment_product_bundle takes them
        rows = [(order, power, t[index]) for order, power, t in terms]
        return [term for term in rows if term[2].any()]
    return _moment_products(side(bra_index), side(ket_index))
