"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured values. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3's half-revival entry is checked against its exact
finite-spread value, not the sigma -> 0 clone height of 1. At
t = T_rev/2 + s a quadratic ladder gives, with k = n - n0,
A = sum_k w_k exp(-2 pi i k (s + T_cl/2)/T_cl) exp(-2 pi i k^2 s/T_rev),
so the lone clone is phase-aligned at s = +-T_cl/2, half a classical
period from T_rev/2. The quadratic phase left there caps |A|^2 at
|sum_k w_k exp(2 pi i k^2 (T_cl/2)/T_rev)|^2. For Gaussian weights
w_k ~ exp(-k^2/(2 sigma^2)) the continuum Gaussian integral gives the
closed form (1 + (2 pi sigma^2 T_cl/T_rev)^2)^(-1/2), which is 0.96228 for
sigma = 6, T_cl = 2, T_rev = 1600. The test asserts the windowed maximum
against the clone prediction times this factor, and the discrete sum over
the builder's weights against the closed form.
"""

import math

import numpy as np
import pytest

from revival import analogs, billiards, dynamics, fractional, packets, spectra, wavefields

UNITS = spectra.DEFAULT_UNITS
L = 1.0


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ----------------------------------------------------------------------


def test_criterion_01_time_scale_table():
    a = spectra.time_scales(spectra.Spectrum1D.case_a(), 400)
    b = spectra.time_scales(spectra.Spectrum1D.case_b(), 400)
    checks = [
        abs(a.t_classical - 2.0) < 5e-4 * 2.0,
        abs(a.t_revival - 1600.0) < 5e-4 * 1600.0,
        abs(b.t_classical - 1.515) < 5e-4 * 1.515,
        abs(b.t_revival - 4444.4) < 5e-4 * 4444.4,
    ]
    report(
        1,
        all(checks),
        f"quadratic/cubic ladder scales: ({a.t_classical:.6g}, {a.t_revival:.6g}) "
        f"and ({b.t_classical:.6g}, {b.t_revival:.6g}) vs (2, 1600), (1.515, 4444.4) at 4 sig figs",
    )


@pytest.fixture(scope="module")
def case_a_series():
    c = packets.gaussian_model_coefficients(400, 6, 1e-8)
    s = spectra.Spectrum1D.case_a()
    grid = dynamics.uniform_grid(1600.0, 2.0, 60)
    return c, s, dynamics.autocorrelation(c, s, grid)


def test_criterion_02_exact_revival_and_symmetry(case_a_series):
    c, s, series = case_a_series
    revival = abs(dynamics.autocorrelation(c, s, [1600.0]).values[0])
    dev_revival = abs(revival - (1.0 - c.norm_deficit))
    grid = np.linspace(0.0, 1600.0, 3201)
    vals = np.abs(dynamics.autocorrelation(c, s, grid).values)
    dev_sym = float(np.max(np.abs(vals - vals[::-1])))
    ok = dev_revival <= 1e-10 and dev_sym <= 1e-10
    report(
        2,
        ok,
        f"|A(T_rev)| off by {dev_revival:.2e} (tol 1e-10); "
        f"|A| symmetry about T_rev/2 off by {dev_sym:.2e} (tol 1e-10)",
    )


def test_criterion_03_fractional_peaks(case_a_series):
    c, s, series = case_a_series
    reports = {(r.p, r.q): r for r in fractional.detect_peaks(series, 2.0, 1600.0, 40)}
    half = reports[(1, 2)].measured_peak
    third = reports[(1, 3)].measured_peak
    quarter = reports[(1, 4)].measured_peak
    plateau_mean = reports[(14, 37)].window_mean
    # Finite-spread factor of the half-time clone: closed form from sigma,
    # T_cl and T_rev alone, cross-checked by the discrete phase sum over the
    # builder's weights.
    sigma, t_cl, t_rev = 6.0, 2.0, 1600.0
    ceiling = (1.0 + (2.0 * math.pi * sigma**2 * t_cl / t_rev) ** 2) ** -0.5
    k = (c.indices - 400).astype(float)
    cap = abs(np.sum(c.weights() * np.exp(2j * np.pi * k**2 * (t_cl / 2) / t_rev))) ** 2
    expected_half = reports[(1, 2)].predicted_peak * ceiling
    checks = {
        "third": abs(third - 1.0 / 3.0) <= 0.03,
        "quarter": abs(quarter - 0.5) <= 0.03,
        "37th mean in +-50% of 0.047": 0.5 * 0.047 <= plateau_mean <= 1.5 * 0.047,
        "37th not the clone value": plateau_mean > 1.3 / 37.0,
        "half": abs(half - expected_half) <= 1e-5,
        "half cap = closed form": abs(cap - ceiling) <= 1e-9,
    }
    detail = (
        f"windowed maxima: 1/2 -> {half:.10f} (clone x finite-spread ceiling "
        f"{expected_half:.10f}, tol 1e-5; discrete-sum cap {cap:.10f}; "
        f"difference {half - expected_half:.1e}), 1/3 -> {third:.4f}, "
        f"1/4 -> {quarter:.4f}, 14/37 mean -> {plateau_mean:.4f}"
    )
    failed = [name for name, ok in checks.items() if not ok]
    report(3, not failed, detail + (f"; failed: {failed}" if failed else ""))


def test_criterion_04_clone_amplitude_algebra():
    worst_parseval = 0.0
    worst_recon = 0.0
    ok_structure = True
    for q in range(1, 51):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            tab = fractional.gauss_coefficients(p, q)
            l = tab.period_l
            worst_parseval = max(worst_parseval, abs(np.sum(np.abs(tab.b) ** 2) - 1.0))
            k = np.arange(l)
            recon = tab.b @ np.exp(-2j * np.pi * np.outer(np.arange(l), k) / l)
            target = np.exp(-2j * np.pi * p * (k**2 % (2 * q)) / q)
            worst_recon = max(worst_recon, float(np.max(np.abs(recon - target))))
            if q % 2 == 1 and np.max(np.abs(np.abs(tab.b) ** 2 - 1.0 / q)) > 1e-12:
                ok_structure = False
            if q % 4 == 2 and np.max(np.abs(tab.b[::2])) > 1e-12:
                ok_structure = False
    t3 = fractional.gauss_coefficients(1, 3)
    t4 = fractional.gauss_coefficients(1, 4).amplitudes_mod_q()
    explicit = (
        abs(t3.b[0] - (-1j / math.sqrt(3.0))) < 1e-12
        and abs(t4[0] - np.exp(-1j * np.pi / 4) / math.sqrt(2)) < 1e-12
        and abs(t4[1]) < 1e-12
        and abs(t4[2] - np.exp(1j * np.pi / 4) / math.sqrt(2)) < 1e-12
    )
    ok = worst_parseval < 1e-12 and worst_recon < 1e-12 and ok_structure and explicit
    report(
        4,
        ok,
        f"all coprime q <= 50: parseval off {worst_parseval:.1e}, reconstruction off "
        f"{worst_recon:.1e} (tol 1e-12); odd/even structure and explicit (1,3), (1,4) values hold",
    )


WELL_PACKET = packets.PacketParams1D(x0=2.0 / 3.0, p0=400 * math.pi, width_b=0.05 * math.sqrt(2.0))


@pytest.fixture(scope="module")
def well_cset():
    return packets.infinite_well_coefficients(WELL_PACKET, L, 600)


def test_criterion_05_mirror_revival(well_cset):
    c = well_cset
    basis = wavefields.InfiniteWellBasis(L)
    t_rev = spectra.time_scales(spectra.Spectrum1D.infinite_well(L), 400).t_revival
    x = np.linspace(0.0, L, 1001)
    initial = np.abs(wavefields.psi_xt(c, basis, x, 0.0)) ** 2
    half = np.abs(wavefields.psi_xt(c, basis, x[::-1], t_rev / 2.0)) ** 2
    dev = float(np.max(np.abs(half - initial)))
    obs = wavefields.observables(c, basis, [0.0, t_rev / 2.0])
    flip = abs(obs.mean_p[1] + obs.mean_p[0]) / abs(obs.mean_p[0])
    ok = dev <= 1e-6 and flip <= 1e-3
    report(
        5,
        ok,
        f"|psi(x, T_rev/2)|^2 vs mirrored initial: max dev {dev:.2e} (tol 1e-6); "
        f"<p> sign flip preserved to {flip:.2e} relative (tol 1e-3)",
    )


def test_criterion_06_collapsed_observables(well_cset):
    c = well_cset
    basis = wavefields.InfiniteWellBasis(L)
    t_rev = spectra.time_scales(spectra.Spectrum1D.infinite_well(L), 400).t_revival
    t_cl = t_rev / 800.0
    grid = np.linspace(0.35 * t_rev, 0.45 * t_rev, 700)
    keep = np.ones(len(grid), dtype=bool)
    for q in range(1, 9):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                keep &= np.abs(grid - (p / q) * t_rev) > t_cl
    obs = wavefields.observables(c, basis, grid[keep])
    sd_x = float(np.mean(obs.sd_x))
    mean_x = float(np.mean(obs.mean_x))
    mean_p = float(np.mean(obs.mean_p))
    sd_p = float(np.mean(obs.sd_p))
    p0 = WELL_PACKET.p0
    checks = [
        abs(sd_x - L / math.sqrt(12.0)) <= 0.02 * L / math.sqrt(12.0),
        abs(mean_x - L / 2.0) <= 0.02 * L / 2.0,
        abs(mean_p) <= 0.02 * p0,
        abs(sd_p - p0) <= 0.03 * p0,
    ]
    report(
        6,
        all(checks),
        f"collapsed window means: sd_x {sd_x:.4f} (L/sqrt12 = {L/math.sqrt(12):.4f} +-2%), "
        f"<x> {mean_x:.4f} (L/2 +-2%), <p> {mean_p:.2f} (0 +- 0.02 p0), "
        f"sd_p {sd_p:.1f} (p0 = {p0:.1f} +-3%)",
    )


def test_criterion_07_closed_form_cross_checks():
    omega, nbar = 2.0, 7.3
    c = packets.poisson_coefficients(nbar, 1e-14)
    grid = np.linspace(0.0, 2.0 * 2.0 * math.pi / omega, 600)
    series = np.abs(dynamics.autocorrelation(c, spectra.Spectrum1D.harmonic(omega), grid).values)
    beta0 = math.sqrt(UNITS.hbar / (UNITS.mass * omega))
    closed = np.abs(
        dynamics.sho_A(
            grid, "min_uncertainty", {"omega": omega, "x0": math.sqrt(2 * nbar) * beta0, "p0": 0.0}
        )
    )
    dev_sho = float(np.max(np.abs(series - closed)))
    p = packets.PacketParams1D(x0=0.4, p0=7.0, width_b=0.3)
    ts = np.linspace(0.0, 30.0, 500)
    dev_free = float(
        np.max(np.abs(dynamics.accelerating_A(ts, p, 0.0) - dynamics.free_particle_A(ts, p)))
    )
    ok = dev_sho <= 1e-8 and dev_free <= 1e-14
    report(
        7,
        ok,
        f"eigenbasis |A| vs oscillator closed form off {dev_sho:.1e} (tol 1e-8); "
        f"uniform-force form at F=0 vs free form off {dev_free:.1e} (tol 1e-14)",
    )


def test_criterion_08_wigner_validity():
    p = packets.PacketParams1D(x0=0.5, p0=40 * math.pi, width_b=0.05 * math.sqrt(2.0))
    c = packets.infinite_well_coefficients(p, L, 160)
    basis = wavefields.InfiniteWellBasis(L)
    t = 0.3 / (40.0 * math.pi)  # 0.3 classical periods
    span = wavefields.default_momentum_span(p.p0, p.dp0)
    pg = np.linspace(-span, span, 256)

    # momentum marginal on the full-width grid (the x-integral needs the
    # whole box)
    x_full = np.linspace(L / 257, L * (1 - 1 / 257), 256)
    grid_full = wavefields.wigner_infinite_well(c, L, x_full, pg, t)
    _, mom = wavefields.wigner_marginals(grid_full)
    dens = wavefields.momentum_density(c, basis, pg, t)
    dev_mom = float(np.max(np.abs(mom - dens))) / float(dens.max())

    # position marginal on an interior grid (rows hugging a wall carry
    # 1/(x p) momentum tails no finite span can integrate)
    x_in = np.linspace(0.04 * L, 0.96 * L, 256)
    grid_in = wavefields.wigner_infinite_well(c, L, x_in, pg, t)
    pos, _ = wavefields.wigner_marginals(grid_in)
    psi2 = np.abs(wavefields.psi_xt(c, basis, x_in, t)) ** 2
    dev_pos = float(np.max(np.abs(pos - psi2))) / float(psi2.max())

    # reality of the ordered complex assembly (no Hermitian shortcut)
    idx = c.indices[c.weights() > 1e-6]
    avals = c.coefficients[c.weights() > 1e-6]
    xs = np.linspace(0.15, 0.85, 18)
    ps = np.linspace(-180.0, 180.0, 19)
    total = np.zeros((len(xs), len(ps)), dtype=complex)
    for i, m in enumerate(idx):
        for j, n in enumerate(idx):
            total += np.conj(avals[i]) * avals[j] * wavefields.wigner_term(int(m), int(n), L, xs, ps)
    max_imag = float(np.max(np.abs(total.imag)))

    ok = max_imag <= 1e-10 and dev_pos <= 1e-3 and dev_mom <= 1e-3
    report(
        8,
        ok,
        f"assembled imag residue {max_imag:.1e} (tol 1e-10); position marginal off "
        f"{dev_pos:.1e}, momentum marginal off {dev_mom:.1e} (tol 1e-3, each on its own "
        f"256x256 grid)",
    )


def test_criterion_09_carpet_identity_and_symmetry():
    t_rev = spectra.time_scales(spectra.Spectrum1D.infinite_well(L), 400).t_revival
    moving = packets.infinite_well_coefficients(WELL_PACKET, L, 600)
    # the total raster is the sum of the two parts; it is checked at every time
    tot = sum(g.values for g in wavefields.carpet(moving, L, 128, 128, t_rev / 2.0))
    basis = wavefields.InfiniteWellBasis(L)
    x = np.linspace(0.0, L, 128)
    dev_psi = 0.0
    for j, t in enumerate(np.linspace(0.0, t_rev / 2.0, 128)):
        psi2 = np.abs(wavefields.psi_xt(moving, basis, x, t)) ** 2
        dev_psi = max(dev_psi, float(np.max(np.abs(tot[:, j] - psi2))))
    resting = packets.infinite_well_coefficients(
        packets.PacketParams1D(x0=0.4, p0=0.0, width_b=0.05 * math.sqrt(2.0)), L, 200
    )
    tot0 = sum(g.values for g in wavefields.carpet(resting, L, 128, 128, t_rev / 2.0))
    dev_sym = float(np.max(np.abs(tot0 - tot0[::-1, ::-1])))
    ok = dev_psi <= 1e-10 and dev_sym <= 1e-8
    report(
        9,
        ok,
        f"traveling/interference split recombines to |psi|^2 within {dev_psi:.1e} "
        f"(tol 1e-10); zero-momentum raster symmetric under (x,t) -> (L-x, T_rev/2 - t) "
        f"within {dev_sym:.1e} (tol 1e-8)",
    )


def test_criterion_10_bouncer():
    wkb = spectra.Spectrum1D.bouncer_wkb(1.0)
    airy = spectra.Spectrum1D.bouncer_airy(1.0)
    worst = max(
        abs(spectra.eval_energy(wkb, n) - spectra.eval_energy(airy, n))
        / spectra.eval_energy(airy, n)
        for n in range(10, 201, 5)
    )
    z0 = 25.0
    n0 = 2.0 / (3.0 * math.pi) * z0**1.5 - 0.75
    ts = spectra.time_scales(wkb, n0)
    t_cl_target = 2.0 * math.sqrt(2.0 * UNITS.mass * z0 / 1.0)
    dev_tcl = abs(ts.t_classical - t_cl_target) / t_cl_target
    c = packets.bouncer_coefficients(z0=z0, width_b=math.sqrt(2.0), n_max=60)
    basis = wavefields.BouncerBasis(F=1.0)
    grid = np.linspace(0.35 * ts.t_revival, 0.45 * ts.t_revival, 400)
    keep = np.ones(len(grid), dtype=bool)
    for q in range(1, 9):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                keep &= np.abs(grid - (p / q) * ts.t_revival) > ts.t_classical
    obs = wavefields.observables(c, basis, grid[keep])
    mean_z = float(np.mean(obs.mean_x))
    sd_z = float(np.mean(obs.sd_x))
    checks = [
        worst < 1e-3,
        dev_tcl <= 0.005,
        abs(mean_z - 2 * z0 / 3) <= 0.03 * (2 * z0 / 3),
        abs(sd_z - 2 * z0 / math.sqrt(45.0)) <= 0.05 * (2 * z0 / math.sqrt(45.0)),
    ]
    report(
        10,
        all(checks),
        f"semiclassical vs exact levels off {worst:.1e} for n >= 10 (tol 1e-3); "
        f"T_cl = {ts.t_classical:.4f} vs 10 (+-0.5%); collapsed <z> {mean_z:.2f} "
        f"(2 z0/3 +-3%), dz {sd_z:.2f} (2 z0/sqrt45 +-5%)",
    )


def test_criterion_11_circular_billiard():
    R = 1.0
    b = 1.0 / (10.0 * math.sqrt(2.0))
    t0, t4, _ = billiards.circle_scales(R)
    c0 = packets.circular_coefficients(0.0, 0.0, 0.0, 0.0, b, R, 4, 28)
    s_small = billiards.circular_spectrum(R, 4, 28)
    central_ok = True
    central_detail = []
    for k in (1, 2, 3):
        val = billiards.autocorrelation_2d(c0, s_small, [k * t4]).values[0]
        phase_resid = abs(np.angle(val * np.exp(-1j * k * math.pi * billiards.CIRCLE_REVIVAL_PHASE_F)))
        central_ok &= abs(val) >= 0.95 and phase_resid <= k * math.pi * 0.005
        central_detail.append(f"k={k}: |A|={abs(val):.4f}, phase off {phase_resid:.4f}")
    c_off = packets.circular_coefficients(0.25 * R, 0.0, 0.0, 0.0, b, R, 16, 30)
    s_big = billiards.circular_spectrum(R, 16, 30)
    grid = np.linspace(0.0, 22.0 * t0, 22 * 260 + 1)
    vals = np.abs(billiards.autocorrelation_2d(c_off, s_big, grid).values)
    suppressed = [
        float(np.max(vals[np.abs(grid - k * t4) <= t0])) for k in (1, 2, 3, 4)
    ]
    window = (grid >= 18.0 * t0) & (grid <= 22.0 * t0)
    persistent = float(np.max(vals[window]))
    off_ok = all(v < 0.5 for v in suppressed) and persistent >= 0.5
    report(
        11,
        central_ok and off_ok,
        "; ".join(central_detail)
        + f"; off-center peaks at 4kT0 {['%.3f' % v for v in suppressed]} (< 0.5), "
        f"20T0-window peak {persistent:.3f} (>= 0.5)",
    )


def test_criterion_12_jaynes_cummings():
    jc = analogs.JCParams(nbar=36.0, coupling=0.01)
    t_max = 30.0 * math.pi / jc.coupling
    grid = np.linspace(0.0, t_max, 30 * 220 + 1)
    pe = analogs.jc_inversion(jc, grid).values.real
    tau = grid * jc.coupling / math.pi
    dev = np.abs(pe - 0.5)
    peaks_ok = True
    peak_info = []
    for k in (1, 2):
        window = (tau > 12 * k - 2.0) & (tau < 12 * k + 2.0)
        peak_tau = float(tau[window][np.argmax(dev[window])])
        peaks_ok &= abs(peak_tau - 12 * k) <= 0.5
        peak_info.append(f"{peak_tau:.2f}")
    lower, upper = analogs.jc_bound(jc, grid)
    bounds_ok = bool(np.all(pe >= lower - 0.02) and np.all(pe <= upper + 0.02))
    short = grid[grid <= 1.0 / jc.coupling]
    pe_short = pe[: len(short)]
    env = analogs.jc_gaussian_envelope(jc, short)
    rabi_period = math.pi / (jc.coupling * math.sqrt(jc.nbar))
    worst_env = 0.0
    for lo in np.arange(0.0, short[-1] - rabi_period, rabi_period):
        sel = (short >= lo) & (short <= lo + rabi_period)
        worst_env = max(worst_env, abs(2.0 * np.max(np.abs(pe_short[sel] - 0.5)) - env[sel].max()))
    env_ok = worst_env <= 0.02
    report(
        12,
        peaks_ok and bounds_ok and env_ok,
        f"revival envelope maxima at tau = {', '.join(peak_info)} (12k +- 0.5); samples inside "
        f"the envelope bounds +-0.02: {bounds_ok}; short-time dephasing envelope off "
        f"{worst_env:.3f} (tol 0.02)",
    )


def test_criterion_13_condensate_revivals():
    worst_fid = 0.0
    for alpha in (0.5, 2.0, 3.0 + 0.0j, 4.5 * np.exp(0.3j), 6.0):
        n_cap = max(130, int(abs(alpha) ** 2 + 10 * abs(alpha)) + 10)
        cs = analogs.CoherentState(alpha=alpha, u0_over_hbar=1.0, n_cap=n_cap)
        worst_fid = max(worst_fid, abs(analogs.bec_cat_fidelity(cs) - 1.0))
    cs = analogs.CoherentState(alpha=4.0, u0_over_hbar=2 * math.pi / 8.0, n_cap=120)
    peaks = analogs.bec_overlap_peaks(cs, cs.t_revival / 3.0)
    heights = [h for _, h in peaks]
    ok = worst_fid <= 1e-8 and len(peaks) == 3 and max(heights) - min(heights) <= 1e-6
    report(
        13,
        ok,
        f"cat fidelity off {worst_fid:.1e} for |alpha| <= 6 (tol 1e-8); third-period overlap "
        f"shows {len(peaks)} maxima, height spread {max(heights) - min(heights):.1e} (tol 1e-6)",
    )


def test_criterion_14_physical_unit_formulas():
    t85 = spectra.rydberg_times(85)
    t72 = spectra.rydberg_times(72)
    checks = [
        abs(t85[0] - 93.5e-12) <= 0.01 * 93.5e-12,
        abs(t85[1] - 5.3e-9) <= 0.02 * 5.3e-9,
        abs(t72[0] - 57e-12) <= 0.01 * 57e-12,
        abs(t72[1] - 2.7e-9) <= 0.02 * 2.7e-9,
    ]
    report(
        14,
        all(checks),
        f"n0=85 -> ({t85[0]*1e12:.1f} ps, {t85[1]*1e9:.2f} ns) vs (93.5 ps +-1%, 5.3 ns +-2%); "
        f"n0=72 -> ({t72[0]*1e12:.1f} ps, {t72[1]*1e9:.2f} ns) vs (57 ps +-1%, 2.7 ns +-2%)",
    )
