//! Regenerates every table and figure of the paper (see DESIGN.md §4).
//!
//! ```text
//! harness [--threads <n>] [experiment]
//!   fig1       model development steps (definition card → diagram → code → simulation)
//!   fig2       input stage: diagram + extracted Rin/Cin
//!   fig3       output stage: diagram + extracted Rout/Ilim
//!   fig4       power supply: current balance sheet of the comparator
//!   fig5       slew rate: extracted rise/fall slopes
//!   listing42  the generated §4.2 ELDO-FAS listing
//!   fig6       comparator functional diagram
//!   fig7       triggered-comparator transient, behavioural vs 11-MOS CMOS
//!   table1     CPU-cost comparison (the paper's 4.9 s vs 15.2 s result)
//!   modelcheck extracted vs assigned parameters (§2.4)
//!   validity   range-of-validity scan (§2.4)
//!   ablation   transient tolerance / integration-method cost sweep
//!   bode       open-loop Bode of the behavioural opamp vs the analytic pole
//!   fasvm      FAS interpreter vs bytecode VM vs CMOS (writes BENCH_fasvm.json)
//!   parchar    parallel characterization + LU reuse (writes BENCH_parchar.json)
//!   traceov    tracing overhead: disabled-probe cost on the comparator
//!              transient + a fully traced all-layer run (writes
//!              BENCH_traceov.json and TRACE_traceov.json)
//!   all        everything above (default)
//! ```
//!
//! `--threads <n>` (or env `GABM_THREADS`) sizes the worker pool used by
//! the parallel characterization flows. `--trace <out.json>` (or env
//! `GABM_TRACE`) records a Chrome trace-event file of the whole
//! invocation and `--trace-summary` prints the hierarchical text summary;
//! both use the same shared flag parser as `gabm`. SVG renderings of the
//! diagrams are written to `figures/`.

use gabm_bench::experiments::comparator_bench::{
    behavioural_comparator_circuit, behavioural_comparator_circuit_with, cmos_comparator_circuit,
    ComparatorStimulus,
};
use gabm_bench::experiments::constructs_bench::{diagram_dut, SlewBufferSpec};
use gabm_charac::{check_model_rigs, rigs, validity, Bias, RigCheck};
use gabm_codegen::{generate, Backend};
use gabm_core::check::check_diagram;
use gabm_core::constructs::{InputStageSpec, OutputStageSpec, PowerSupplySpec, SlewRateSpec};
use gabm_core::diagram::FunctionalDiagram;
use gabm_models::comparator::ComparatorSpec;
use gabm_schematic::{render_ascii, render_svg};
use gabm_sim::analysis::tran::TranSpec;
use std::time::Instant;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // The flag parsers are shared with `gabm` (gabm_trace::cli) so both
    // binaries reject bad values with identical flag-naming messages.
    let trace_cfg = match gabm_trace::cli::take_trace_flags(&mut argv) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let threads = match gabm_trace::cli::take_threads_flag(&mut argv) {
        Ok(Some(n)) => Some(n),
        Ok(None) => match gabm_par::env_threads() {
            Ok(n) => n,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    if let Some(n) = threads {
        gabm_par::set_global_threads(n);
    }
    gabm_trace::cli::maybe_enable(&trace_cfg);
    let which = argv.into_iter().next().unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    std::fs::create_dir_all("figures").ok();
    let mut ran = false;
    if all || which == "fig1" {
        fig1();
        ran = true;
    }
    if all || which == "fig2" {
        fig2();
        ran = true;
    }
    if all || which == "fig3" {
        fig3();
        ran = true;
    }
    if all || which == "fig4" {
        fig4();
        ran = true;
    }
    if all || which == "fig5" {
        fig5();
        ran = true;
    }
    if all || which == "listing42" {
        listing42();
        ran = true;
    }
    if all || which == "fig6" {
        fig6();
        ran = true;
    }
    if all || which == "fig7" {
        fig7();
        ran = true;
    }
    if all || which == "table1" {
        table1();
        ran = true;
    }
    if all || which == "modelcheck" {
        modelcheck();
        ran = true;
    }
    if all || which == "validity" {
        validity_scan();
        ran = true;
    }
    if all || which == "ablation" {
        ablation();
        ran = true;
    }
    if all || which == "bode" {
        bode();
        ran = true;
    }
    if all || which == "fasvm" {
        fasvm();
        ran = true;
    }
    if all || which == "parchar" {
        parchar();
        ran = true;
    }
    if all || which == "traceov" {
        traceov();
        ran = true;
    }
    if !ran {
        eprintln!("unknown experiment '{which}' — see the module docs for the list");
        std::process::exit(2);
    }
    if let Err(msg) = gabm_trace::cli::finalize(&trace_cfg) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}

fn banner(title: &str) {
    println!("\n==================================================================");
    println!("  {title}");
    println!("==================================================================");
}

fn save_svg(d: &FunctionalDiagram, file: &str) {
    let svg = render_svg(d);
    let path = format!("figures/{file}");
    if std::fs::write(&path, svg).is_ok() {
        println!("  [svg written to {path}]");
    }
}

/// E1 / Fig. 1 — the model development steps.
fn fig1() {
    banner("Fig. 1 — model development steps: card -> diagram -> code -> simulation");
    let spec = InputStageSpec::new("in", 1.0e-6, 5.0e-12);
    let card = spec.card().expect("card builds");
    println!("{card}");
    let diagram = spec.diagram().expect("diagram builds");
    let report = check_diagram(&diagram);
    println!(
        "consistency check: {} errors, {} warnings",
        report.error_count(),
        report.warning_count()
    );
    print!("{}", render_ascii(&diagram));
    let code = generate(&diagram, Backend::Fas).expect("code generates");
    println!("{}", code.text);
    // Simulate: the model must load a 1 V source with 1 µA.
    let dut = diagram_dut(&diagram).expect("dut builds");
    let rin = rigs::input_resistance(&dut, "in", &[]).expect("rig runs");
    println!("simulated: {rin} (assigned 1e6 ohm)");
}

/// E2 / Fig. 2 — input stage.
fn fig2() {
    banner("Fig. 2 — input stage: functional diagram and extraction");
    let assigned_rin = 1.0e6;
    let assigned_cin = 5.0e-12;
    let spec = InputStageSpec::new("in", 1.0 / assigned_rin, assigned_cin);
    let diagram = spec.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig2_input_stage.svg");
    let dut = diagram_dut(&diagram).expect("dut builds");
    let rin = rigs::input_resistance(&dut, "in", &[]).expect("rin rig");
    let cin = rigs::input_capacitance(&dut, "in", &[], assigned_cin).expect("cin rig");
    println!("{:<12} {:>14} {:>14}", "parameter", "assigned", "extracted");
    println!(
        "{:<12} {:>14.4e} {:>14.4e}",
        "rin [ohm]", assigned_rin, rin.value
    );
    println!(
        "{:<12} {:>14.4e} {:>14.4e}",
        "cin [F]", assigned_cin, cin.value
    );
}

/// E3 / Fig. 3 — output stage.
fn fig3() {
    banner("Fig. 3 — output stage: functional diagram and extraction");
    let gout = 1.0e-3;
    let ilim = 10.0e-3;
    let spec = OutputStageSpec::new("out", gout).with_current_limit(ilim);
    let diagram = spec.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig3_output_stage.svg");
    let dut = diagram_dut(&diagram).expect("dut builds");
    let rout = rigs::output_resistance(&dut, "out", &[], 1.0e-4).expect("rout rig");
    let ilim_x = rigs::output_current_limit(&dut, "out", &[], 0.1, 0.5).expect("ilim rig");
    println!("{:<12} {:>14} {:>14}", "parameter", "assigned", "extracted");
    println!(
        "{:<12} {:>14.4e} {:>14.4e}",
        "rout [ohm]",
        1.0 / gout,
        rout.value
    );
    println!("{:<12} {:>14.4e} {:>14.4e}", "ilim [A]", ilim, ilim_x.value);
}

/// E4 / Fig. 4 — power supply balance sheet.
fn fig4() {
    banner("Fig. 4 — power supply: current balance sheet");
    let psu = PowerSupplySpec::new("vdd", "vss", 1.0e-5, 1.0e-4, 2);
    let diagram = psu.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig4_power_supply.svg");
    // Measure the balance on the full comparator model.
    let spec = ComparatorSpec::default();
    let model = gabm_fas::compile(&spec.fas_code().expect("code")).expect("compiles");
    let dut = gabm_models::dut::fas_dut(model, Default::default()).expect("dut");
    let xs = rigs::supply_currents(
        &dut,
        "vdd",
        "vss",
        &[
            ("inp", Bias::Voltage(0.2)),
            ("inn", Bias::Voltage(-0.2)),
            ("strobe", Bias::Voltage(1.0)),
            ("vdd", Bias::Voltage(2.5)),
            ("vss", Bias::Voltage(-2.5)),
        ],
    )
    .expect("supply rig");
    for x in &xs {
        println!("  {x}");
    }
    let analytic = spec.gpol * 5.0 + spec.iloss;
    println!("  analytic i_vdd ~ gpol*(vdd-vss) + iloss = {analytic:.4e} A (plus stage currents)");
}

/// E5 / Fig. 5 — slew rate.
fn fig5() {
    banner("Fig. 5 — slew-rate block: diagram and extracted slopes");
    let slew = SlewRateSpec::new(1.0e6, 0.5e6);
    let diagram = slew.diagram().expect("diagram builds");
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig5_slew_rate.svg");
    let buffer = SlewBufferSpec::default();
    let dut = diagram_dut(&buffer.diagram().expect("buffer diagram")).expect("dut");
    let (rise, fall) =
        rigs::slew_rates(&dut, "in", "out", &[], -1.0, 1.0, 40.0e-6).expect("slew rig");
    println!("{:<14} {:>14} {:>14}", "parameter", "assigned", "extracted");
    println!(
        "{:<14} {:>14.4e} {:>14.4e}",
        "srise [V/s]", buffer.slew_rise, rise.value
    );
    println!(
        "{:<14} {:>14.4e} {:>14.4e}",
        "sfall [V/s]", buffer.slew_fall, fall.value
    );
}

/// E6 / §4.2 — the generated FAS listing.
fn listing42() {
    banner("Section 4.2 — generated ELDO-FAS code of the input stage");
    let diagram = InputStageSpec::new("in", 1.0e-6, 5.0e-12)
        .diagram()
        .expect("diagram builds");
    let code = generate(&diagram, Backend::Fas).expect("generates");
    println!("{}", code.text);
    println!("--- the same diagram in VHDL-AMS ---");
    println!(
        "{}",
        generate(&diagram, Backend::VhdlAms).expect("vhdl").text
    );
    println!("--- and in MAST ---");
    println!("{}", generate(&diagram, Backend::Mast).expect("mast").text);
}

/// E7 / Fig. 6 — the comparator functional diagram.
fn fig6() {
    banner("Fig. 6 — functional diagram of the triggered comparator");
    let spec = ComparatorSpec::default();
    println!("{}", spec.card().expect("card builds"));
    let diagram = spec.diagram().expect("diagram builds");
    let report = check_diagram(&diagram);
    println!(
        "symbols: {}, nets: {}, consistency: {} errors / {} warnings",
        diagram.symbol_count(),
        diagram.nets().count(),
        report.error_count(),
        report.warning_count()
    );
    print!("{}", render_ascii(&diagram));
    save_svg(&diagram, "fig6_comparator.svg");
}

/// E8 / Fig. 7 — transient waveforms, behavioural vs transistor-level.
fn fig7() {
    banner("Fig. 7 — simulation of the triggered comparator (60 us)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    let (mut beh, bn) = behavioural_comparator_circuit(&stim).expect("behavioural bench");
    let rb = beh.tran(&TranSpec::new(tstop)).expect("behavioural tran");
    let w_beh = rb.voltage_waveform(bn[3]).expect("waveform");
    let w_in = rb.voltage_waveform(bn[0]).expect("waveform");
    let w_stb = rb.voltage_waveform(bn[2]).expect("waveform");
    let (mut cmos, cn) = cmos_comparator_circuit(&stim).expect("cmos bench");
    let rc = cmos.tran(&TranSpec::new(tstop)).expect("cmos tran");
    let w_cmos = rc.voltage_waveform(cn[3]).expect("waveform");

    // Terminal oscillogram, like the paper's figure.
    let opts = gabm_numeric::plot::PlotOptions {
        width: 96,
        height: 14,
        y_range: Some((-2.8, 2.8)),
    };
    if let Ok(plot) = gabm_numeric::plot::ascii_plot(
        &[
            ("input (inp)", &w_in),
            ("out behavioural", &w_beh),
            ("out CMOS", &w_cmos),
        ],
        &opts,
    ) {
        println!("{plot}");
    }
    println!("time_us,vin_p,strobe,out_behavioural,out_cmos");
    let n = 120;
    for k in 0..=n {
        let t = tstop * k as f64 / n as f64;
        println!(
            "{:8.3},{:8.4},{:8.3},{:8.4},{:8.4}",
            t * 1e6,
            w_in.value_at(t).unwrap_or(0.0),
            w_stb.value_at(t).unwrap_or(0.0),
            w_beh.value_at(t).unwrap_or(0.0),
            w_cmos.value_at(t).unwrap_or(0.0)
        );
    }
    // Decision agreement inside strobe windows.
    let mut agree = 0;
    let mut total = 0;
    for (lo, hi) in stim.strobe_windows(tstop) {
        let t = 0.5 * (lo + hi);
        let vb = w_beh.value_at(t).unwrap_or(0.0);
        let vc = w_cmos.value_at(t).unwrap_or(0.0);
        if vb.abs() > 0.5 && vc.abs() > 0.5 {
            total += 1;
            if vb.signum() == vc.signum() {
                agree += 1;
            }
        }
    }
    println!("decision agreement inside strobe windows: {agree}/{total}");
    std::fs::write(
        "figures/fig7_behavioural.csv",
        w_beh.to_csv("out_behavioural"),
    )
    .ok();
    std::fs::write("figures/fig7_cmos.csv", w_cmos.to_csv("out_cmos")).ok();
    println!("  [series written to figures/fig7_*.csv]");
}

/// E9 / the §5 timing table. Each transient is repeated and the fastest
/// run reported (the runs are milliseconds long, so scheduling noise
/// otherwise dominates).
fn table1() {
    banner("Table — CPU cost: FAS model vs transistor circuit (paper: 4.9 s vs 15.2 s)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    const REPS: usize = 7;

    let mut t_beh = f64::INFINITY;
    let mut rb = None;
    let mut beh_unknowns = 0;
    for _ in 0..REPS {
        let (mut beh, _) = behavioural_comparator_circuit(&stim).expect("behavioural bench");
        beh_unknowns = beh.n_unknowns();
        let t0 = Instant::now();
        let r = beh.tran(&TranSpec::new(tstop)).expect("behavioural tran");
        t_beh = t_beh.min(t0.elapsed().as_secs_f64());
        rb = Some(r);
    }
    let rb = rb.expect("at least one repetition");

    let mut t_cmos = f64::INFINITY;
    let mut rc = None;
    let mut cmos_unknowns = 0;
    for _ in 0..REPS {
        let (mut cmos, _) = cmos_comparator_circuit(&stim).expect("cmos bench");
        cmos_unknowns = cmos.n_unknowns();
        let t0 = Instant::now();
        let r = cmos.tran(&TranSpec::new(tstop)).expect("cmos tran");
        t_cmos = t_cmos.min(t0.elapsed().as_secs_f64());
        rc = Some(r);
    }
    let rc = rc.expect("at least one repetition");

    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>10} {:>10}",
        "model", "unknowns", "steps", "NR iters", "time [s]", "vs paper"
    );
    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>10.3} {:>10}",
        "FAS behavioural",
        beh_unknowns,
        rb.stats.accepted_steps,
        rb.stats.newton_iterations,
        t_beh,
        "4.9 s"
    );
    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>10.3} {:>10}",
        "CMOS circuit (11 MOS)",
        cmos_unknowns,
        rc.stats.accepted_steps,
        rc.stats.newton_iterations,
        t_cmos,
        "15.2 s"
    );
    println!(
        "speedup: measured {:.2}x — paper reports 15.2/4.9 = 3.1x (Sun Sparc 10/30)",
        t_cmos / t_beh
    );
}

/// E10 / §2.4 — the model check. Each rig is a [`RigCheck`]; the rigs of
/// one model run concurrently on the worker pool.
fn modelcheck() {
    banner("Section 2.4 — model check: extracted vs assigned parameters");
    // Input stage.
    let rin = 1.0e6;
    let cin = 5.0e-12;
    let in_spec = InputStageSpec::new("in", 1.0 / rin, cin);
    let dut = diagram_dut(&in_spec.diagram().expect("diagram")).expect("dut");
    let report = check_model_rigs(
        "input_stage",
        &[
            RigCheck {
                parameter: "rin",
                assigned: rin,
                extract: &|| rigs::input_resistance(&dut, "in", &[]),
            },
            RigCheck {
                parameter: "cin",
                assigned: cin,
                extract: &|| rigs::input_capacitance(&dut, "in", &[], cin),
            },
        ],
        0.15,
    )
    .expect("input-stage rigs run");
    println!("{report}\n");
    // Slew buffer. The slew rig extracts both slopes in one transient; the
    // rise/fall checks each pick their half.
    let buffer = SlewBufferSpec::default();
    let dut = diagram_dut(&buffer.diagram().expect("diagram")).expect("dut");
    let slew = |pick_rise: bool| {
        let (rise, fall) = rigs::slew_rates(&dut, "in", "out", &[], -1.0, 1.0, 40.0e-6)?;
        Ok(if pick_rise { rise } else { fall })
    };
    let report = check_model_rigs(
        "slew_buffer",
        &[
            RigCheck {
                parameter: "srise",
                assigned: buffer.slew_rise,
                extract: &|| slew(true),
            },
            RigCheck {
                parameter: "sfall",
                assigned: buffer.slew_fall,
                extract: &|| slew(false),
            },
            RigCheck {
                parameter: "rout",
                assigned: 1.0 / buffer.gout,
                extract: &|| rigs::output_resistance(&dut, "out", &[], 1.0e-4),
            },
        ],
        0.2,
    )
    .expect("slew-buffer rigs run");
    println!("{report}");
}

/// §2.4 — range of validity: the slew buffer tracks a sine only while the
/// demanded slope stays below its slew limit.
fn validity_scan() {
    banner("Section 2.4 — range of validity of the slew buffer vs input frequency");
    let buffer = SlewBufferSpec::default();
    let diagram = buffer.diagram().expect("diagram");
    let amplitude = 1.0;
    let result = validity::scan_validity("frequency [Hz]", 1.0e3, 3.0e6, 13, 0.2, |f| {
        let dut = diagram_dut(&diagram).map_err(gabm_charac::CharacError::BadRig)?;
        let (mut ckt, nodes) = gabm_charac_scaffold(&dut)?;
        ckt.add_vsource(
            "VIN",
            nodes.0,
            gabm_sim::Circuit::GROUND,
            gabm_sim::devices::SourceWave::sine(0.0, amplitude, f),
        );
        let periods = 3.0;
        let r = ckt
            .tran(&TranSpec::new(periods / f))
            .map_err(gabm_charac::CharacError::Sim)?;
        let w_out = r
            .voltage_waveform(nodes.1)
            .map_err(gabm_charac::CharacError::Sim)?;
        let w_in = r
            .voltage_waveform(nodes.0)
            .map_err(gabm_charac::CharacError::Sim)?;
        let rms = w_out
            .rms_difference(&w_in)
            .map_err(|e| gabm_charac::CharacError::ExtractionFailed(e.to_string()))?;
        Ok(rms / amplitude)
    })
    .expect("scan runs");
    let predicted = buffer.slew_fall / (2.0 * std::f64::consts::PI * amplitude);
    println!(
        "valid from {:.3e} Hz to {:.3e} Hz ({} runs); slew-limit prediction ~{:.3e} Hz",
        result.lo, result.hi, result.evaluations, predicted
    );
}

/// Extension: open-loop Bode plot of the behavioural opamp, extracted with
/// the transient frequency-response rig and compared against the analytic
/// single-pole law A0/√(1+(f/fp)²) — the transfer-function GBS (§3.1b) made
/// measurable.
fn bode() {
    banner("Extension — open-loop Bode of the behavioural opamp (single pole)");
    let a0 = 100.0;
    let pole_hz = 1.0e3;
    let spec = gabm_models::OpampSpec {
        a0,
        pole_hz,
        ..gabm_models::OpampSpec::default()
    };
    let model = gabm_fas::compile(&spec.fas_code().expect("code")).expect("compiles");
    let dut = gabm_models::dut::fas_dut(model, Default::default()).expect("dut");
    let freqs = [
        pole_hz / 100.0,
        pole_hz / 10.0,
        pole_hz,
        pole_hz * 10.0,
        pole_hz * 30.0,
    ];
    let pts = rigs::frequency_response(
        &dut,
        "inp",
        "out",
        &[("inn", Bias::Ground)],
        &freqs,
        1.0e-3,
        3,
    )
    .expect("frequency response");
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "f [Hz]", "gain meas", "gain analytic", "phase [deg]"
    );
    for p in &pts {
        let analytic = a0 / (1.0 + (p.freq / pole_hz).powi(2)).sqrt();
        println!(
            "{:>12.3e} {:>12.3} {:>12.3} {:>10.1}",
            p.freq, p.gain, analytic, p.phase_deg
        );
    }
}

/// Ablation: accuracy vs cost of the transient engine on the behavioural
/// comparator — LTE tolerance and integration method sweeps. Quantifies the
/// "variable time intervals" design point of §3.3 and the discontinuity
/// handling of §4.
fn ablation() {
    banner("Ablation — transient tolerance & integration method (behavioural comparator)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    // Reference: tight tolerance.
    let reference = {
        let (mut ckt, n) = behavioural_comparator_circuit(&stim).expect("bench builds");
        ckt.options.tran_tol = 1e-5;
        let r = ckt.tran(&TranSpec::new(tstop)).expect("reference tran");
        r.voltage_waveform(n[3]).expect("waveform")
    };
    println!(
        "{:<26} {:>8} {:>10} {:>14}",
        "configuration", "steps", "NR iters", "RMS vs ref [V]"
    );
    for (label, tol, method) in [
        ("tol=1e-2, trapezoidal", 1e-2, None),
        ("tol=1e-3, trapezoidal", 1e-3, None),
        ("tol=1e-4, trapezoidal", 1e-4, None),
        (
            "tol=1e-3, backward Euler",
            1e-3,
            Some(gabm_numeric::integrate::Method::BackwardEuler),
        ),
        (
            "tol=1e-3, Gear-2",
            1e-3,
            Some(gabm_numeric::integrate::Method::Gear2),
        ),
    ] {
        let (mut ckt, n) = behavioural_comparator_circuit(&stim).expect("bench builds");
        ckt.options.tran_tol = tol;
        let mut spec = TranSpec::new(tstop);
        if let Some(m) = method {
            spec = spec.with_method(m);
        }
        let r = ckt.tran(&spec).expect("tran runs");
        let w = r.voltage_waveform(n[3]).expect("waveform");
        let rms = w.rms_difference(&reference).unwrap_or(f64::NAN);
        println!(
            "{label:<26} {:>8} {:>10} {:>14.4e}",
            r.stats.accepted_steps, r.stats.newton_iterations, rms
        );
    }
}

/// Tiny local scaffold for the validity scan: DUT with in/out nodes.
fn gabm_charac_scaffold(
    dut: &impl gabm_charac::Dut,
) -> Result<(gabm_sim::Circuit, (gabm_sim::NodeId, gabm_sim::NodeId)), gabm_charac::CharacError> {
    let mut ckt = gabm_sim::Circuit::new();
    let n_in = ckt.node("in");
    let n_out = ckt.node("out");
    dut.instantiate(&mut ckt, "DUT", &[n_in, n_out])
        .map_err(gabm_charac::CharacError::Sim)?;
    ckt.add_resistor("RL", n_out, gabm_sim::Circuit::GROUND, 10.0e3)
        .map_err(gabm_charac::CharacError::Sim)?;
    Ok((ckt, (n_in, n_out)))
}

/// E8/E9 perf row — FAS interpreter vs bytecode VM vs CMOS baseline on
/// the comparator transient, with the speedup recorded in
/// `BENCH_fasvm.json` for the performance trajectory.
fn fasvm() {
    use gabm_fasvm::FasBackend;

    banner("FAS execution backends — interpreter vs bytecode VM (comparator transient)");
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    const REPS: usize = 7;

    // The VM must agree with the interpreter before its time matters:
    // compare the output waveform of one run of each.
    let spec = gabm_models::comparator::ComparatorSpec::default();
    let model = spec.model().expect("comparator model compiles");
    let prog = gabm_fasvm::compile_program(&model).expect("comparator bytecode compiles");
    let st = prog.stats();
    println!(
        "bytecode: {} ops, {} regs ({} vinsts lowered; {} folded, {} selects, {} dce'd)",
        prog.op_count(),
        prog.reg_count(),
        st.vinsts,
        st.folded,
        st.selects,
        st.dce_removed
    );

    let run = |backend: FasBackend| {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..REPS {
            let (mut ckt, nodes) =
                behavioural_comparator_circuit_with(&stim, backend).expect("bench builds");
            let t0 = Instant::now();
            let r = ckt.tran(&TranSpec::new(tstop)).expect("tran runs");
            best = best.min(t0.elapsed().as_secs_f64());
            let outp = nodes[3];
            out = Some((r.stats, r.voltage_waveform(outp).expect("outp waveform")));
        }
        let (stats, w) = out.expect("at least one repetition");
        (best, stats, w)
    };
    let (t_interp, s_interp, w_interp) = run(FasBackend::Interp);
    let (t_vm, s_vm, w_vm) = run(FasBackend::Vm);
    let (nr_interp, nr_vm) = (s_interp.newton_iterations, s_vm.newton_iterations);
    assert_eq!(
        nr_interp, nr_vm,
        "backends must take the same Newton trajectory"
    );
    let rms = w_interp.rms_difference(&w_vm).unwrap_or(f64::NAN);
    assert!(
        rms < 1.0e-9,
        "interpreter and VM transient outputs diverge: rms {rms:e}"
    );

    let mut t_cmos = f64::INFINITY;
    for _ in 0..REPS {
        let (mut ckt, _) = cmos_comparator_circuit(&stim).expect("cmos bench");
        let t0 = Instant::now();
        ckt.tran(&TranSpec::new(tstop)).expect("cmos tran");
        t_cmos = t_cmos.min(t0.elapsed().as_secs_f64());
    }

    let speedup = t_interp / t_vm;
    println!("{:<24} {:>10} {:>12}", "engine", "NR iters", "time [s]");
    println!(
        "{:<24} {:>10} {:>12.4}",
        "FAS interpreter", nr_interp, t_interp
    );
    println!("{:<24} {:>10} {:>12.4}", "FAS bytecode VM", nr_vm, t_vm);
    println!("{:<24} {:>10} {:>12.4}", "CMOS (11 MOS)", "-", t_cmos);
    println!("VM speedup over interpreter: {speedup:.2}x (outputs agree, rms {rms:.1e})");

    let json = format!(
        "{{\n  \"experiment\": \"fasvm\",\n  \"tstop\": {tstop:e},\n  \"reps\": {REPS},\n  \
         \"ops\": {},\n  \"regs\": {},\n  \"interp_s\": {t_interp:.6},\n  \"vm_s\": {t_vm:.6},\n  \
         \"cmos_s\": {t_cmos:.6},\n  \"newton_iterations\": {nr_interp},\n  \
         \"accepted_steps\": {},\n  \"rejected_steps\": {},\n  \"vm_tran_wall_s\": {:.6},\n  \
         \"speedup_vm_over_interp\": {speedup:.4},\n  \"waveform_rms_diff\": {rms:e}\n}}\n",
        prog.op_count(),
        prog.reg_count(),
        s_vm.accepted_steps,
        s_vm.rejected_steps,
        s_vm.wall_s
    );
    if std::fs::write("BENCH_fasvm.json", &json).is_ok() {
        println!("  [written to BENCH_fasvm.json]");
    }
}

/// Perf row for the parallel characterization engine: Monte-Carlo over the
/// comparator's strobe-to-decision delay at several pool sizes (bitwise
/// identical by construction), plus the sparse-LU refactorization-reuse
/// speedup on the 60 µs comparator transient. Writes `BENCH_parchar.json`.
fn parchar() {
    use gabm_charac::monte_carlo::{monte_carlo_on, Distribution, Scatter};
    use gabm_charac::{CharacError, ThreadPool};
    use gabm_fasvm::FasBackend;
    use std::collections::BTreeMap;

    banner("Parallel characterization + sparse-LU refactorization reuse");
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "hardware threads: {hardware_threads}, global pool: {} workers",
        gabm_par::global().threads()
    );

    // --- Monte-Carlo: slew-rate scatter -> response-time distribution. ---
    const SAMPLES: usize = 24;
    const SEED: u64 = 1994;
    const REPS: usize = 3;
    let nominal = ComparatorSpec::default();
    let mut scatters = BTreeMap::new();
    scatters.insert("srise".to_string(), Scatter::new(nominal.slew_rise, 0.1));
    scatters.insert("sfall".to_string(), Scatter::new(nominal.slew_fall, 0.1));
    let measure = |p: &BTreeMap<String, f64>| -> Result<f64, CharacError> {
        let spec = ComparatorSpec {
            slew_rise: p["srise"],
            slew_fall: p["sfall"],
            ..ComparatorSpec::default()
        };
        let model = spec
            .model()
            .map_err(|e| CharacError::BadRig(e.to_string()))?;
        let dut = gabm_models::dut::fas_dut(model, BTreeMap::new())
            .map_err(|e| CharacError::BadRig(e.to_string()))?;
        let bias = [
            ("inp", Bias::Voltage(0.3)),
            ("inn", Bias::Voltage(-0.3)),
            ("outp", Bias::Open),
            ("outn", Bias::Open),
            ("vdd", Bias::Voltage(2.5)),
            ("vss", Bias::Voltage(-2.5)),
        ];
        Ok(rigs::response_time(&dut, "strobe", "outp", &bias, -1.0, 1.0, 1.0, 40.0e-6)?.value)
    };
    let mc_run = |pool: &ThreadPool| {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let r = monte_carlo_on(pool, &scatters, SAMPLES, SEED, measure).expect("MC runs");
            best = best.min(t0.elapsed().as_secs_f64());
            result = Some(r);
        }
        let (dist, failures) = result.expect("at least one repetition");
        (best, dist, failures)
    };
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>9}",
        "threads", "time [s]", "mean [s]", "std [s]", "failures"
    );
    let mut times: BTreeMap<usize, f64> = BTreeMap::new();
    let mut reference: Option<(Distribution, usize)> = None;
    let assert_same = |a: &(Distribution, usize), b: &(Distribution, usize), threads: usize| {
        assert_eq!(a.0.n, b.0.n, "sample count changed at {threads} threads");
        assert_eq!(a.1, b.1, "failure count changed at {threads} threads");
        for (name, x, y) in [
            ("mean", a.0.mean, b.0.mean),
            ("std", a.0.std_dev, b.0.std_dev),
            ("min", a.0.min, b.0.min),
            ("max", a.0.max, b.0.max),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name} not bitwise identical at {threads} threads"
            );
        }
    };
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let (t, dist, failures) = mc_run(&pool);
        println!(
            "{threads:<8} {t:>10.4} {:>12.4e} {:>12.4e} {failures:>9}",
            dist.mean, dist.std_dev
        );
        match &reference {
            None => reference = Some((dist, failures)),
            Some(r) => assert_same(r, &(dist, failures), threads),
        }
        times.insert(threads, t);
    }
    // One run on the global pool (sized by --threads / GABM_THREADS): the
    // PARCHAR-DIST fingerprint below is what ci.sh diffs across thread
    // settings, so it must come from the pool those settings control.
    let (_, dist, failures) = mc_run(gabm_par::global());
    let reference = reference.expect("fixed-size runs happened");
    assert_same(
        &reference,
        &(dist.clone(), failures),
        gabm_par::global().threads(),
    );
    println!(
        "PARCHAR-DIST n={} failures={} mean={:016x} std={:016x} min={:016x} max={:016x}",
        dist.n,
        failures,
        dist.mean.to_bits(),
        dist.std_dev.to_bits(),
        dist.min.to_bits(),
        dist.max.to_bits()
    );
    let speedup_mc_4t = times[&1] / times[&4];
    println!(
        "4-thread speedup: {speedup_mc_4t:.2}x over serial \
         (meaningful only when hardware threads >= 4; this host has {hardware_threads})"
    );

    // --- Sparse-LU refactorization reuse on the comparator transient. ---
    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    const LU_REPS: usize = 7;
    let lu_run = |reuse: bool| {
        let mut best = f64::INFINITY;
        let mut stats = None;
        for _ in 0..LU_REPS {
            let (mut ckt, _) =
                behavioural_comparator_circuit_with(&stim, FasBackend::Vm).expect("bench builds");
            ckt.options.reuse_lu = reuse;
            let t0 = Instant::now();
            let r = ckt.tran(&TranSpec::new(tstop)).expect("tran runs");
            best = best.min(t0.elapsed().as_secs_f64());
            stats = Some(r.stats);
        }
        (best, stats.expect("at least one repetition"))
    };
    let (t_off, s_off) = lu_run(false);
    let (t_on, s_on) = lu_run(true);
    assert_eq!(
        s_off.newton_iterations, s_on.newton_iterations,
        "LU reuse must not change the Newton trajectory"
    );
    let speedup_lu = t_off / t_on;
    println!(
        "\n{:<30} {:>10} {:>8} {:>10}",
        "sparse LU", "time [s]", "factor", "refactor"
    );
    println!(
        "{:<30} {:>10.4} {:>8} {:>10}",
        "full factorization each iter", t_off, s_off.factorizations, s_off.refactorizations
    );
    println!(
        "{:<30} {:>10.4} {:>8} {:>10}",
        "numeric refactorization reuse", t_on, s_on.factorizations, s_on.refactorizations
    );
    println!(
        "LU-reuse speedup: {speedup_lu:.2}x ({} Newton iterations)",
        s_on.newton_iterations
    );

    let json = format!(
        "{{\n  \"experiment\": \"parchar\",\n  \"hardware_threads\": {hardware_threads},\n  \
         \"samples\": {SAMPLES},\n  \"seed\": {SEED},\n  \"reps\": {REPS},\n  \
         \"mc_serial_s\": {:.6},\n  \"mc_2t_s\": {:.6},\n  \"mc_4t_s\": {:.6},\n  \
         \"mc_8t_s\": {:.6},\n  \"speedup_mc_4t\": {speedup_mc_4t:.4},\n  \
         \"mc_mean_s\": {:.6e},\n  \"mc_std_s\": {:.6e},\n  \"mc_failures\": {failures},\n  \
         \"lu_reuse_off_s\": {t_off:.6},\n  \"lu_reuse_on_s\": {t_on:.6},\n  \
         \"speedup_lu_reuse\": {speedup_lu:.4},\n  \"factorizations\": {},\n  \
         \"refactorizations\": {},\n  \"newton_iterations\": {},\n  \
         \"accepted_steps\": {},\n  \"rejected_steps\": {},\n  \"tran_wall_s\": {:.6}\n}}\n",
        times[&1],
        times[&2],
        times[&4],
        times[&8],
        dist.mean,
        dist.std_dev,
        s_on.factorizations,
        s_on.refactorizations,
        s_on.newton_iterations,
        s_on.accepted_steps,
        s_on.rejected_steps,
        s_on.wall_s
    );
    if std::fs::write("BENCH_parchar.json", &json).is_ok() {
        println!("  [written to BENCH_parchar.json]");
    }
}

/// Tracing-overhead gate: the compiled-in instrumentation must cost no
/// more than 2% of the comparator transient while tracing is disabled.
/// The disabled probe cost is measured directly (a tight span loop) and
/// scaled by the number of probe sites one run passes; a fully traced
/// all-layer run (sim + fasvm + charac + par) is then recorded and its
/// Chrome JSON written to `TRACE_traceov.json` for CI validation.
/// Writes `BENCH_traceov.json`.
fn traceov() {
    use gabm_charac::monte_carlo::{monte_carlo_on, Scatter};
    use gabm_charac::{CharacError, ThreadPool};
    use gabm_fasvm::FasBackend;
    use std::collections::BTreeMap;

    banner("Tracing overhead — disabled-probe cost and a fully traced run");
    let was_enabled = gabm_trace::enabled();
    if was_enabled {
        println!("  [note: traceov drives tracing itself; the --trace file restarts here]");
    }
    gabm_trace::disable();

    let stim = ComparatorStimulus::default();
    let tstop = 60.0e-6;
    const REPS: usize = 5;
    let (mut t_disabled, mut stats) = (f64::INFINITY, None);
    for _ in 0..REPS {
        let (mut ckt, _) =
            behavioural_comparator_circuit_with(&stim, FasBackend::Vm).expect("bench builds");
        let t0 = Instant::now();
        let r = ckt.tran(&TranSpec::new(tstop)).expect("tran runs");
        t_disabled = t_disabled.min(t0.elapsed().as_secs_f64());
        stats = Some(r.stats);
    }
    let stats = stats.expect("at least one repetition");

    // Disabled probe cost: constructing and dropping a span with tracing
    // off is the exact code the hot paths execute.
    const PROBES: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..PROBES {
        let _ = std::hint::black_box(gabm_trace::span("traceov.probe"));
    }
    let ns_per_probe = t0.elapsed().as_nanos() as f64 / f64::from(PROBES);

    // Probe sites one disabled transient passes: the tran/step/newton
    // spans plus every counter bump in the engine (the OP pre-solve adds
    // one more step-less Newton solve).
    let attempts = stats.accepted_steps + stats.rejected_steps;
    let probes_per_run = (1
        + attempts                                      // sim.tran.step spans
        + 2 * (attempts + 1)                            // sim.newton spans + iteration counters
        + stats.factorizations + stats.refactorizations // LU counters
        + stats.factorizations // pattern-growth counter (at most one per full LU)
        + attempts) as f64; // accepted/rejected counters
    let overhead_disabled_pct = probes_per_run * ns_per_probe / (t_disabled * 1e9) * 100.0;

    // The traced phase drives every instrumented layer once: bytecode
    // compilation (fasvm), the comparator transient (sim), and a small
    // Monte-Carlo on a 2-worker pool (charac + par).
    gabm_trace::enable();
    let spec = ComparatorSpec::default();
    let model = spec.model().expect("comparator model compiles");
    gabm_fasvm::compile_program(&model).expect("comparator bytecode compiles");
    let (mut ckt, _) =
        behavioural_comparator_circuit_with(&stim, FasBackend::Vm).expect("bench builds");
    let t0 = Instant::now();
    ckt.tran(&TranSpec::new(tstop)).expect("traced tran runs");
    let t_enabled = t0.elapsed().as_secs_f64();
    let mut scatters = BTreeMap::new();
    scatters.insert("r".to_string(), Scatter::new(1.0e3, 0.05));
    let pool = ThreadPool::new(2);
    let measure = |p: &BTreeMap<String, f64>| -> Result<f64, CharacError> {
        let mut ckt = gabm_sim::Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            gabm_sim::Circuit::GROUND,
            gabm_sim::devices::SourceWave::dc(1.0),
        );
        ckt.add_resistor("R1", a, b, p["r"])
            .map_err(CharacError::Sim)?;
        ckt.add_resistor("R2", b, gabm_sim::Circuit::GROUND, 1.0e3)
            .map_err(CharacError::Sim)?;
        let op = ckt.op().map_err(CharacError::Sim)?;
        Ok(op.voltage(b))
    };
    monte_carlo_on(&pool, &scatters, 8, 1994, measure).expect("MC runs");
    let trace = gabm_trace::finish();
    let spans = trace.span_count();
    if std::fs::write("TRACE_traceov.json", trace.to_chrome_json(false)).is_ok() {
        println!("  [traced all-layer run written to TRACE_traceov.json]");
    }
    print!("{}", trace.summary());
    if was_enabled {
        gabm_trace::enable();
    }

    let overhead_enabled_pct = (t_enabled / t_disabled - 1.0) * 100.0;
    println!(
        "\ncomparator transient: disabled {t_disabled:.4} s, traced {t_enabled:.4} s \
         ({overhead_enabled_pct:+.1}% measured, noisy)"
    );
    println!(
        "disabled probe: {ns_per_probe:.2} ns x {probes_per_run:.0} sites/run \
         = {overhead_disabled_pct:.4}% of the transient"
    );
    assert!(
        overhead_disabled_pct <= 2.0,
        "disabled tracing overhead {overhead_disabled_pct:.3}% exceeds the 2% budget"
    );
    println!("TRACEOV-OK overhead_disabled_pct={overhead_disabled_pct:.4}");

    let json = format!(
        "{{\n  \"experiment\": \"traceov\",\n  \"tstop\": {tstop:e},\n  \"reps\": {REPS},\n  \
         \"tran_disabled_s\": {t_disabled:.6},\n  \"tran_enabled_s\": {t_enabled:.6},\n  \
         \"ns_per_disabled_probe\": {ns_per_probe:.3},\n  \"probes_per_run\": {probes_per_run},\n  \
         \"overhead_disabled_pct\": {overhead_disabled_pct:.4},\n  \
         \"overhead_enabled_pct\": {overhead_enabled_pct:.4},\n  \"traced_spans\": {spans},\n  \
         \"accepted_steps\": {},\n  \"rejected_steps\": {},\n  \"tran_wall_s\": {:.6}\n}}\n",
        stats.accepted_steps, stats.rejected_steps, stats.wall_s
    );
    if std::fs::write("BENCH_traceov.json", &json).is_ok() {
        println!("  [written to BENCH_traceov.json]");
    }
}
