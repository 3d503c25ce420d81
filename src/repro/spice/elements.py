"""Circuit elements and their MNA stamps.

Every element contributes to the Newton system ``J dx = -r`` at the
candidate solution ``x`` through one declaration and one numeric method
per analysis:

* :meth:`Element.stamp_coords` returns the ordered ``(row, col)`` matrix
  coordinates the element may write: the union over DC, transient and
  AC and, for the MOSFET, over the drain/source swap. A solver backend
  resolves every coordinate once, at construction, to a *slot* of its
  flat value buffer; a coordinate on ground (index ``-1``) resolves to
  a discarded sink slot.
* :meth:`Element.load` adds the Newton Jacobian/residual contribution at
  ``x``: ``jac[s[k]] += value`` for its ``k``-th declared coordinate and
  ``res[i] += value`` for residual row ``i``. :meth:`Element.ac_load`
  does the same for the small-signal ``G``/``C`` matrices and the
  excitation phasor.

The vectors a load reads and writes (solution, previous timepoint,
residual, phasor) are Python lists with one trailing sink entry that
ground's index ``-1`` addresses (see :func:`padded`): reads give 0.0,
writes are discarded. Loads run in element order and every slot sums
its values left to right from 0.0, so an assembled matrix is bit-for-bit
the per-element ``M[row, col] += value`` loop.

The residual convention is Kirchhoff's current law per non-ground node —
``r[k]`` accumulates the current *leaving* node ``k`` — plus one
branch-voltage equation per voltage-defined element (voltage sources and
inductors).

Reactive elements use companion models: backward-Euler for the first
transient step and startup, trapezoidal afterwards, with per-element
state carried in the :class:`StampContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StampContext",
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
    "MOSFET",
    "SineWave",
    "PulseWave",
    "padded",
]

#: Exponent clamp for the diode/subthreshold exponential.
_EXP_LIMIT = 40.0


@dataclass
class StampContext:
    """Per-solve information shared with every load call.

    Attributes
    ----------
    mode:
        ``"dc"``, ``"tran"`` or ``"ac"``.
    time:
        Current simulation time (transient only).
    dt:
        Current step size (transient only).
    method:
        Integration method, ``"be"`` or ``"trap"``.
    x_prev:
        Converged solution of the previous timepoint.
    states:
        Mutable per-element companion state, keyed by element name.
    gmin:
        Convergence conductance added across nonlinear junctions.
    """

    mode: str = "dc"
    time: float = 0.0
    dt: float = 0.0
    method: str = "be"
    x_prev: np.ndarray | None = None
    states: dict = field(default_factory=dict)
    gmin: float = 1e-12


def padded(vector: np.ndarray) -> list:
    """``vector`` as a list of floats plus a trailing 0.0 for ground (-1)."""
    values = vector.tolist()
    values.append(0.0)
    return values


def _across(vector: np.ndarray, i1: int, i2: int) -> float:
    """``vector[i1] - vector[i2]`` of an unpadded vector, ground read as 0.0."""
    v1 = float(vector[i1]) if i1 >= 0 else 0.0
    v2 = float(vector[i2]) if i2 >= 0 else 0.0
    return v1 - v2


def _limited_exp(arg: np.ndarray | float):
    """Exponential with linear extrapolation above ``_EXP_LIMIT``.

    Returns ``(value, derivative)`` of a C1 extension of ``exp`` that
    keeps Newton iterations finite for large junction voltages.
    """
    if arg <= _EXP_LIMIT:
        value = np.exp(arg)
        return value, value
    peak = np.exp(_EXP_LIMIT)
    return peak * (1.0 + (arg - _EXP_LIMIT)), peak


class Element:
    """Base class for all circuit elements.

    A subclass implements :meth:`stamp_coords` and :meth:`load` (plus
    :meth:`ac_load` for AC analysis); a backend refuses, at
    construction, an element that lacks either of the first two.
    """

    #: True for elements whose current is an MNA unknown.
    needs_branch_current: bool = False

    def __init__(self, name: str, nodes: tuple[str, ...]):
        if not name:
            raise ValueError("element name must be non-empty")
        self.name = name
        self.nodes = tuple(nodes)
        self.node_indices: tuple[int, ...] = ()
        self.branch_index: int | None = None

    # ------------------------------------------------------------------
    def stamp_coords(self) -> tuple[tuple[int, int], ...]:
        """Ordered matrix coordinates this element may write.

        The tuple is the union over every analysis and internal state;
        :meth:`load` and :meth:`ac_load` receive the resolved slots in
        the same order. Ground coordinates (index ``-1``) may appear.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement stamp_coords/load"
        )

    def load(
        self,
        s: tuple[int, ...],
        jac: list,
        res: list,
        x: list,
        prev: list | None,
        ctx: StampContext,
    ) -> None:
        """Add the Newton Jacobian/residual contribution at ``x``.

        ``s`` holds the slots of :meth:`stamp_coords` in ``jac``; ``x``
        and ``prev`` (the previous timepoint, ``None`` outside a
        transient) are padded solution lists and ``res`` the padded
        residual.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement stamp_coords/load"
        )

    def ac_load(
        self,
        s: tuple[int, ...],
        g: list,
        c: list,
        rhs: list,
        x_op: list,
        ctx: StampContext,
    ) -> None:
        """Add the small-signal system linearized at ``x_op``.

        The AC MNA system is ``(G + j omega C) X = B``: an element adds
        its frequency-independent conductances to ``g`` (``G``), the
        omega-proportional part to ``c`` (``C``), both by slot, and its
        AC excitation phasor to the padded complex ``rhs`` (``B``).
        Nonlinear devices load the conductances of their linearization
        at the DC operating point ``x_op``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support AC small-signal analysis"
        )

    def update_state(self, x: np.ndarray, ctx: StampContext) -> None:
        """Hook called after a transient step is accepted.

        ``x`` and ``ctx.x_prev`` are the unpadded solution arrays.
        """

    def validate(self, system_size: int) -> None:
        """Sanity check after elaboration."""
        if self.needs_branch_current and self.branch_index is None:
            raise RuntimeError(f"{self.name}: branch index not assigned")

    def card(self) -> str:
        """One-line SPICE-style netlist card."""
        return f"* {self.name} {' '.join(self.nodes)}"


def _pairwise(i: int, j: int) -> tuple[tuple[int, int], ...]:
    """The standard two-terminal conductance block, in load order."""
    return ((i, i), (i, j), (j, i), (j, j))


# ----------------------------------------------------------------------
# waveforms
# ----------------------------------------------------------------------
class SineWave:
    """``offset + amplitude * sin(2 pi freq (t - delay) + phase)``."""

    def __init__(
        self,
        offset: float = 0.0,
        amplitude: float = 1.0,
        frequency: float = 1.0,
        delay: float = 0.0,
        phase: float = 0.0,
    ):
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.delay = float(delay)
        self.phase = float(phase)

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.offset
        return self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.frequency * (t - self.delay) + self.phase
        )


class PulseWave:
    """SPICE PULSE waveform: v1 -> v2 with rise/fall/width/period."""

    def __init__(
        self,
        v1: float,
        v2: float,
        delay: float = 0.0,
        rise: float = 1e-9,
        fall: float = 1e-9,
        width: float = 1e-6,
        period: float = 2e-6,
    ):
        if rise <= 0 or fall <= 0:
            raise ValueError("rise and fall must be positive")
        if period <= rise + fall + width:
            raise ValueError("period must exceed rise + width + fall")
        self.v1, self.v2 = float(v1), float(v2)
        self.delay = float(delay)
        self.rise, self.fall = float(rise), float(fall)
        self.width, self.period = float(width), float(period)

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1


# ----------------------------------------------------------------------
# linear two-terminal elements
# ----------------------------------------------------------------------
class Resistor(Element):
    """Linear resistor."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float):
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive")
        super().__init__(name, (n1, n2))
        self.resistance = float(resistance)

    def stamp_coords(self):
        return _pairwise(*self.node_indices)

    def load(self, s, jac, res, x, prev, ctx):
        i1, i2 = self.node_indices
        g = 1.0 / self.resistance
        current = g * (x[i1] - x[i2])
        res[i1] += current
        res[i2] -= current
        jac[s[0]] += g
        jac[s[1]] -= g
        jac[s[2]] -= g
        jac[s[3]] += g

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        conductance = 1.0 / self.resistance
        g[s[0]] += conductance
        g[s[1]] -= conductance
        g[s[2]] -= conductance
        g[s[3]] += conductance

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.resistance:g}"


class Capacitor(Element):
    """Linear capacitor (open in DC, companion model in transient)."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float):
        if capacitance <= 0:
            raise ValueError(f"{name}: capacitance must be positive")
        super().__init__(name, (n1, n2))
        self.capacitance = float(capacitance)

    def stamp_coords(self):
        return _pairwise(*self.node_indices)

    def load(self, s, jac, res, x, prev, ctx):
        if ctx.mode == "dc":
            return
        i1, i2 = self.node_indices
        v_now = x[i1] - x[i2]
        v_prev = prev[i1] - prev[i2]
        if ctx.method == "trap":
            geq = 2.0 * self.capacitance / ctx.dt
            i_prev = ctx.states.get(self.name, 0.0)
            current = geq * (v_now - v_prev) - i_prev
        else:  # backward Euler
            geq = self.capacitance / ctx.dt
            current = geq * (v_now - v_prev)
        res[i1] += current
        res[i2] -= current
        jac[s[0]] += geq
        jac[s[1]] -= geq
        jac[s[2]] -= geq
        jac[s[3]] += geq

    def update_state(self, x, ctx):
        i1, i2 = self.node_indices
        v_now = _across(x, i1, i2)
        v_prev = _across(ctx.x_prev, i1, i2)
        if ctx.method == "trap":
            geq = 2.0 * self.capacitance / ctx.dt
            i_prev = ctx.states.get(self.name, 0.0)
            ctx.states[self.name] = geq * (v_now - v_prev) - i_prev
        else:
            ctx.states[self.name] = (
                self.capacitance / ctx.dt * (v_now - v_prev)
            )

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        # Admittance j omega C: pure susceptance.
        capacitance = self.capacitance
        c[s[0]] += capacitance
        c[s[1]] -= capacitance
        c[s[2]] -= capacitance
        c[s[3]] += capacitance

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.capacitance:g}"


class Inductor(Element):
    """Linear inductor (short in DC); its current is an MNA unknown."""

    needs_branch_current = True

    def __init__(self, name: str, n1: str, n2: str, inductance: float):
        if inductance <= 0:
            raise ValueError(f"{name}: inductance must be positive")
        super().__init__(name, (n1, n2))
        self.inductance = float(inductance)

    def stamp_coords(self):
        i1, i2 = self.node_indices
        bi = self.branch_index
        return ((i1, bi), (i2, bi), (bi, i1), (bi, i2), (bi, bi))

    def load(self, s, jac, res, x, prev, ctx):
        i1, i2 = self.node_indices
        bi = self.branch_index
        current = x[bi]
        # KCL: branch current leaves n1, enters n2.
        res[i1] += current
        res[i2] -= current
        jac[s[0]] += 1.0
        jac[s[1]] -= 1.0
        v_now = x[i1] - x[i2]
        if ctx.mode == "dc":
            res[bi] += v_now  # v = 0 (DC short)
            jac[s[2]] += 1.0
            jac[s[3]] -= 1.0
            return
        i_prev = prev[bi]
        if ctx.method == "trap":
            v_prev = prev[i1] - prev[i2]
            req = 2.0 * self.inductance / ctx.dt
            res[bi] += v_now + v_prev - req * (current - i_prev)
        else:
            req = self.inductance / ctx.dt
            res[bi] += v_now - req * (current - i_prev)
        jac[s[2]] += 1.0
        jac[s[3]] -= 1.0
        jac[s[4]] -= req

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        # Branch equation v1 - v2 - j omega L i = 0.
        g[s[0]] += 1.0
        g[s[1]] -= 1.0
        g[s[2]] += 1.0
        g[s[3]] -= 1.0
        c[s[4]] -= self.inductance

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.inductance:g}"


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
class VoltageSource(Element):
    """Independent voltage source with optional time waveform.

    ``ac`` / ``ac_phase`` set the small-signal excitation phasor used by
    :func:`repro.spice.solve_ac` (magnitude in volts, phase in degrees);
    they do not affect DC or transient analysis.
    """

    needs_branch_current = True

    def __init__(self, name: str, n_pos: str, n_neg: str, dc: float = 0.0,
                 waveform=None, ac: float = 0.0, ac_phase: float = 0.0):
        super().__init__(name, (n_pos, n_neg))
        self.dc = float(dc)
        self.waveform = waveform
        self.ac = float(ac)
        self.ac_phase = float(ac_phase)

    @property
    def ac_value(self) -> complex:
        """Small-signal excitation phasor."""
        return self.ac * np.exp(1j * np.deg2rad(self.ac_phase))

    def value(self, ctx: StampContext) -> float:
        if ctx.mode == "tran" and self.waveform is not None:
            return float(self.waveform(ctx.time))
        if self.waveform is not None and ctx.mode == "dc":
            return float(self.waveform(0.0))
        return self.dc

    def stamp_coords(self):
        i1, i2 = self.node_indices
        bi = self.branch_index
        return ((i1, bi), (i2, bi), (bi, i1), (bi, i2))

    def load(self, s, jac, res, x, prev, ctx):
        i1, i2 = self.node_indices
        bi = self.branch_index
        current = x[bi]
        res[i1] += current
        res[i2] -= current
        jac[s[0]] += 1.0
        jac[s[1]] -= 1.0
        res[bi] += x[i1] - x[i2] - self.value(ctx)
        jac[s[2]] += 1.0
        jac[s[3]] -= 1.0

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        g[s[0]] += 1.0
        g[s[1]] -= 1.0
        g[s[2]] += 1.0
        g[s[3]] -= 1.0
        rhs[self.branch_index] += self.ac_value

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} DC {self.dc:g}"


class CurrentSource(Element):
    """Independent current source (positive current flows n+ -> n-).

    ``ac`` / ``ac_phase`` set the small-signal excitation phasor used by
    :func:`repro.spice.solve_ac` (magnitude in amperes, phase in degrees).
    """

    def __init__(self, name: str, n_pos: str, n_neg: str, dc: float = 0.0,
                 waveform=None, ac: float = 0.0, ac_phase: float = 0.0):
        super().__init__(name, (n_pos, n_neg))
        self.dc = float(dc)
        self.waveform = waveform
        self.ac = float(ac)
        self.ac_phase = float(ac_phase)

    @property
    def ac_value(self) -> complex:
        """Small-signal excitation phasor."""
        return self.ac * np.exp(1j * np.deg2rad(self.ac_phase))

    def value(self, ctx: StampContext) -> float:
        if self.waveform is not None:
            t = ctx.time if ctx.mode == "tran" else 0.0
            return float(self.waveform(t))
        return self.dc

    def stamp_coords(self):
        return ()  # pure source: residual/rhs only, no matrix entries

    def load(self, s, jac, res, x, prev, ctx):
        i1, i2 = self.node_indices
        current = self.value(ctx)
        res[i1] += current
        res[i2] -= current

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        # KCL convention: residual accumulates current leaving the node,
        # so the source phasor enters the rhs with the opposite sign.
        i1, i2 = self.node_indices
        value = self.ac_value
        rhs[i1] -= value
        rhs[i2] += value

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} DC {self.dc:g}"


class VCVS(Element):
    """Voltage-controlled voltage source (SPICE ``E`` element)."""

    needs_branch_current = True

    def __init__(self, name: str, n_pos: str, n_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gain: float):
        super().__init__(name, (n_pos, n_neg, ctrl_pos, ctrl_neg))
        self.gain = float(gain)

    def stamp_coords(self):
        i1, i2, c1, c2 = self.node_indices
        bi = self.branch_index
        return ((i1, bi), (i2, bi), (bi, i1), (bi, i2), (bi, c1), (bi, c2))

    def load(self, s, jac, res, x, prev, ctx):
        i1, i2, c1, c2 = self.node_indices
        bi = self.branch_index
        current = x[bi]
        res[i1] += current
        res[i2] -= current
        jac[s[0]] += 1.0
        jac[s[1]] -= 1.0
        res[bi] += x[i1] - x[i2] - self.gain * (x[c1] - x[c2])
        jac[s[2]] += 1.0
        jac[s[3]] -= 1.0
        jac[s[4]] -= self.gain
        jac[s[5]] += self.gain

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        g[s[0]] += 1.0
        g[s[1]] -= 1.0
        g[s[2]] += 1.0
        g[s[3]] -= 1.0
        g[s[4]] -= self.gain
        g[s[5]] += self.gain

    def card(self):
        return f"{self.name} {' '.join(self.nodes)} {self.gain:g}"


class VCCS(Element):
    """Voltage-controlled current source (SPICE ``G`` element)."""

    def __init__(self, name: str, n_pos: str, n_neg: str,
                 ctrl_pos: str, ctrl_neg: str, transconductance: float):
        super().__init__(name, (n_pos, n_neg, ctrl_pos, ctrl_neg))
        self.transconductance = float(transconductance)

    def stamp_coords(self):
        i1, i2, c1, c2 = self.node_indices
        return ((i1, c1), (i1, c2), (i2, c1), (i2, c2))

    def load(self, s, jac, res, x, prev, ctx):
        i1, i2, c1, c2 = self.node_indices
        gm = self.transconductance
        current = gm * (x[c1] - x[c2])
        res[i1] += current
        res[i2] -= current
        jac[s[0]] += gm
        jac[s[1]] -= gm
        jac[s[2]] -= gm
        jac[s[3]] += gm

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        gm = self.transconductance
        g[s[0]] += gm
        g[s[1]] -= gm
        g[s[2]] -= gm
        g[s[3]] += gm

    def card(self):
        return f"{self.name} {' '.join(self.nodes)} {self.transconductance:g}"


# ----------------------------------------------------------------------
# nonlinear devices
# ----------------------------------------------------------------------
class Diode(Element):
    """Shockley diode with exponent limiting and gmin."""

    def __init__(self, name: str, anode: str, cathode: str,
                 saturation_current: float = 1e-14, emission: float = 1.0,
                 thermal_voltage: float = 0.02585):
        if saturation_current <= 0 or emission <= 0 or thermal_voltage <= 0:
            raise ValueError(f"{name}: diode parameters must be positive")
        super().__init__(name, (anode, cathode))
        self.saturation_current = float(saturation_current)
        self.emission = float(emission)
        self.thermal_voltage = float(thermal_voltage)

    def current_and_conductance(self, v: float) -> tuple[float, float]:
        nvt = self.emission * self.thermal_voltage
        value, derivative = _limited_exp(v / nvt)
        current = self.saturation_current * (value - 1.0)
        conductance = self.saturation_current * derivative / nvt
        return current, conductance

    def stamp_coords(self):
        return _pairwise(*self.node_indices)

    def load(self, s, jac, res, x, prev, ctx):
        i1, i2 = self.node_indices
        v = x[i1] - x[i2]
        current, g = self.current_and_conductance(v)
        g += ctx.gmin
        current += ctx.gmin * v
        res[i1] += current
        res[i2] -= current
        jac[s[0]] += g
        jac[s[1]] -= g
        jac[s[2]] -= g
        jac[s[3]] += g

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        # Small-signal junction conductance at the DC operating point.
        i1, i2 = self.node_indices
        _, conductance = self.current_and_conductance(x_op[i1] - x_op[i2])
        conductance += ctx.gmin
        g[s[0]] += conductance
        g[s[1]] -= conductance
        g[s[2]] -= conductance
        g[s[3]] += conductance

    def card(self):
        return (
            f"{self.name} {self.nodes[0]} {self.nodes[1]} "
            f"IS={self.saturation_current:g} N={self.emission:g}"
        )


class MOSFET(Element):
    """Level-1 (square-law) MOSFET with channel-length modulation.

    Terminals are (drain, gate, source); the body is tied to the source
    (no body effect — acceptable for the single-well testbenches here and
    documented in DESIGN.md). ``vds < 0`` is handled by internally
    swapping drain and source, so the device conducts symmetrically.

    Parameters
    ----------
    kp:
        Process transconductance ``k' = mu Cox`` in A/V^2.
    vth:
        Threshold voltage (positive for NMOS, negative for PMOS).
    lambda_:
        Channel-length modulation in 1/V.
    w, l:
        Channel width/length in metres.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 polarity: str = "nmos", w: float = 1e-6, l: float = 1e-6,
                 kp: float = 2e-4, vth: float = 0.5, lambda_: float = 0.05):
        if polarity not in ("nmos", "pmos"):
            raise ValueError(f"{name}: polarity must be 'nmos' or 'pmos'")
        if w <= 0 or l <= 0 or kp <= 0:
            raise ValueError(f"{name}: w, l and kp must be positive")
        super().__init__(name, (drain, gate, source))
        self.polarity = polarity
        self.w, self.l = float(w), float(l)
        self.kp = float(kp)
        self.vth = float(vth)
        self.lambda_ = float(lambda_)

    @property
    def beta(self) -> float:
        return self.kp * self.w / self.l

    def _ids(self, vgs: float, vds: float) -> tuple[float, float, float]:
        """Square-law drain current and (gm, gds) for vds >= 0 (NMOS frame)."""
        vov = vgs - abs(self.vth)
        lam = self.lambda_
        if vov <= 0.0:
            return 0.0, 0.0, 0.0
        if vds < vov:  # triode
            ids = self.beta * (vov * vds - 0.5 * vds * vds) * (1 + lam * vds)
            gm = self.beta * vds * (1 + lam * vds)
            gds = (
                self.beta * (vov - vds) * (1 + lam * vds)
                + self.beta * (vov * vds - 0.5 * vds * vds) * lam
            )
        else:  # saturation
            ids = 0.5 * self.beta * vov * vov * (1 + lam * vds)
            gm = self.beta * vov * (1 + lam * vds)
            gds = 0.5 * self.beta * vov * vov * lam
        return ids, gm, gds

    def operating_point(self, x: np.ndarray) -> dict:
        """Named small-signal quantities at the solution ``x``."""
        ids, gm, gds, _ = self._evaluate(padded(x))
        return {"ids": ids, "gm": gm, "gds": gds}

    def _evaluate(self, x: list) -> tuple[float, float, float, bool]:
        """Drain current (drain->source positive) at the padded ``x``.

        Returns ``(id, gm, gds, swapped)`` where the derivatives are with
        respect to the *effective* (possibly swapped) terminals.
        """
        d, g, s = self.node_indices
        vd, vg, vs = x[d], x[g], x[s]
        if self.polarity == "pmos":
            # Analyze the PMOS in the NMOS frame by mirroring voltages.
            vd, vg, vs = -vd, -vg, -vs
        swapped = vd < vs
        if swapped:
            vd, vs = vs, vd
        vgs, vds = vg - vs, vd - vs
        ids, gm, gds = self._ids(vgs, vds)
        return ids, gm, gds, swapped

    def stamp_coords(self):
        # Union over the normal and drain/source-swapped footprints (the
        # same six coordinates): the effective drain/source roles may flip
        # between Newton iterations. The gmin block is a subset.
        d, g, s = self.node_indices
        return ((d, g), (d, d), (d, s), (s, g), (s, d), (s, s))

    @staticmethod
    def _effective_slots(s, swapped):
        """Slots of the gm/gds block in effective-terminal load order.

        The order is ``(eff_d, g), (eff_d, eff_d), (eff_d, eff_s),
        (eff_s, g), (eff_s, eff_d), (eff_s, eff_s)``.
        """
        if swapped:
            return s[3], s[5], s[4], s[0], s[2], s[1]
        return s[0], s[1], s[2], s[3], s[4], s[5]

    def load(self, s, jac, res, x, prev, ctx):
        d_idx, g_idx, s_idx = self.node_indices
        ids, gm, gds, swapped = self._evaluate(x)
        sign = -1.0 if self.polarity == "pmos" else 1.0
        if swapped:
            eff_d, eff_s = s_idx, d_idx
        else:
            eff_d, eff_s = d_idx, s_idx
        current = sign * ids
        # KCL: current flows from effective drain to effective source.
        res[eff_d] += current
        res[eff_s] -= current
        # In the mirrored/swapped frame, d(current)/d(node voltage) picks
        # up the same sign twice (once for the current sign, once for the
        # mirrored voltages), so the conductances stamp positively.
        dg, dd, ds, sg, sd, ss = self._effective_slots(s, swapped)
        jac[dg] += gm
        jac[dd] += gds
        jac[ds] -= gm + gds
        jac[sg] -= gm
        jac[sd] -= gds
        jac[ss] += gm + gds
        # gmin across drain-source for convergence
        leak = ctx.gmin * (x[d_idx] - x[s_idx])
        res[d_idx] += leak
        res[s_idx] -= leak
        jac[s[1]] += ctx.gmin
        jac[s[2]] -= ctx.gmin
        jac[s[4]] -= ctx.gmin
        jac[s[5]] += ctx.gmin

    def ac_load(self, s, g, c, rhs, x_op, ctx):
        """Small-signal gm/gds at the DC operating point.

        The conductances match the DC Jacobian of :meth:`load` evaluated
        at ``x_op`` — that Jacobian *is* the device linearization (the
        level-1 model carries no charge storage, so the susceptance
        contribution is zero).
        """
        _, gm, gds, swapped = self._evaluate(x_op)
        dg, dd, ds, sg, sd, ss = self._effective_slots(s, swapped)
        g[dg] += gm
        g[dd] += gds
        g[ds] -= gm + gds
        g[sg] -= gm
        g[sd] -= gds
        g[ss] += gm + gds
        g[s[1]] += ctx.gmin
        g[s[2]] -= ctx.gmin
        g[s[4]] -= ctx.gmin
        g[s[5]] += ctx.gmin

    def card(self):
        return (
            f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.nodes[2]} "
            f"{self.polarity.upper()} W={self.w:g} L={self.l:g}"
        )
