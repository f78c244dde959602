//! The operations the benchmark times, each with its output check.
//!
//! Every operation runs on production defaults: the interpreter FAS
//! backend, `Options::default()` and its dense/sparse threshold. FAS model
//! instances are wrapped in [`ProbedModel`] so the benchmark counts (and,
//! when traced, times) their evaluations from outside the program.

use crate::inputs::{CharacJob, ComparatorInput, Input, LadderInput, Workload, LADDER_STAGES};
use crate::probe::{busy, timed_build, ProbedModel, Probes};
use gabm_bench::{cmos_comparator_circuit, ComparatorStimulus, SlewBufferSpec};
use gabm_charac::model_check::check_model_rigs_on;
use gabm_charac::monte_carlo::{monte_carlo_on, Distribution, Scatter};
use gabm_charac::validity::{scan_validity_on, ValidityRange};
use gabm_charac::{rigs, Bias, CharacError, Dut, FnDut, RigCheck, ThreadPool};
use gabm_codegen::{generate, Backend};
use gabm_core::constructs::InputStageSpec;
use gabm_core::FunctionalDiagram;
use gabm_fas::CompiledModel;
use gabm_fasvm::FasBackend;
use gabm_models::comparator::OffState;
use gabm_models::ComparatorSpec;
use gabm_numeric::waveform::Waveform;
use gabm_sim::analysis::tran::TranSpec;
use gabm_sim::circuit::{Circuit, NodeId};
use gabm_sim::devices::SourceWave;
use gabm_sim::options::SimStats;
use gabm_sim::SimError;
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated length of one comparator transient (s), as in §5.
const COMPARATOR_TSTOP: f64 = 60.0e-6;
/// Simulated length of one ladder transient (s).
const LADDER_TSTOP: f64 = 40.0e-6;
/// Monte-Carlo samples per characterization job.
const MC_SAMPLES: usize = 16;
/// Grid points of the validity scan per characterization job.
const VALIDITY_POINTS: usize = 13;
/// Extraction rigs of the model check per characterization job.
const MODEL_CHECK_RIGS: usize = 5;

/// Machine-independent work counts of one or more operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Newton iterations.
    pub newton_iters: u64,
    /// Device evaluation sweeps.
    pub device_evals: u64,
    /// Full LU factorizations.
    pub lu_full: u64,
    /// Numeric-only LU refactorizations.
    pub lu_refactor: u64,
    /// Accepted time steps.
    pub steps_accepted: u64,
    /// Rejected time steps.
    pub steps_rejected: u64,
    /// FAS `eval` calls.
    pub fas_eval_calls: u64,
    /// FAS `eval_with_jacobian` calls.
    pub fas_jac_calls: u64,
    /// Characterization rig evaluations.
    pub charac_evals: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.newton_iters += other.newton_iters;
        self.device_evals += other.device_evals;
        self.lu_full += other.lu_full;
        self.lu_refactor += other.lu_refactor;
        self.steps_accepted += other.steps_accepted;
        self.steps_rejected += other.steps_rejected;
        self.fas_eval_calls += other.fas_eval_calls;
        self.fas_jac_calls += other.fas_jac_calls;
        self.charac_evals += other.charac_evals;
    }

    fn from_run(stats: &SimStats, probes: &Probes) -> Counts {
        Counts {
            newton_iters: stats.newton_iterations as u64,
            device_evals: stats.device_evals as u64,
            lu_full: stats.factorizations as u64,
            lu_refactor: stats.refactorizations as u64,
            steps_accepted: stats.accepted_steps as u64,
            steps_rejected: stats.rejected_steps as u64,
            fas_eval_calls: probes.fas_eval_calls,
            fas_jac_calls: probes.fas_jac_calls,
            charac_evals: 0,
        }
    }

    /// The count fingerprint: Newton iterations, accepted and rejected
    /// steps, full and refactor LU, device evaluations and FAS calls,
    /// summed. Two runs of one seed must print the same value.
    pub fn fingerprint(&self) -> u64 {
        self.newton_iters
            + self.steps_accepted
            + self.steps_rejected
            + self.lu_full
            + self.lu_refactor
            + self.device_evals
            + self.fas_eval_calls
            + self.fas_jac_calls
    }
}

/// What one operation did.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// Host seconds of the timed call: one `Circuit::tran` on the
    /// transient workloads, the whole job on `charac`.
    pub op_s: f64,
    /// Work counts. On `charac` the simulator counts are not visible from
    /// outside; only FAS calls and rig evaluations are filled in.
    pub counts: Counts,
    /// `Err` with the reason when the output check failed.
    pub check: Result<(), String>,
    /// Bit patterns of the operation's numeric results, compared across
    /// passes and pool sizes.
    pub signature: Vec<u64>,
    /// Host seconds of the Monte-Carlo, validity and model-check phases
    /// (`charac` only).
    pub phase_s: [f64; 3],
}

/// A workload ready to run: its input list and what set-up built.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The input list; operation `k` runs `inputs[k]`.
    pub inputs: Vec<Input>,
    /// The behavioural comparator model (`tran-behavioural`).
    model: Option<CompiledModel>,
    /// The characterization pool (`charac`).
    pool: Option<ThreadPool>,
}

/// The comparator of the behavioural test bench: `Hold` while un-strobed,
/// rails 0.5 V inside the supplies, as in the transistor circuit.
fn bench_comparator_spec(stim: &ComparatorStimulus) -> ComparatorSpec {
    ComparatorSpec {
        v_high: stim.supply - 0.5,
        v_low: -(stim.supply - 0.5),
        off_state: OffState::Hold,
        ..ComparatorSpec::default()
    }
}

fn stimulus(input: &ComparatorInput) -> ComparatorStimulus {
    ComparatorStimulus {
        amplitude: input.amplitude,
        input_freq: input.freq,
        ..ComparatorStimulus::default()
    }
}

fn bad(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Bench {
    /// Set-up: generates the input list and builds what every operation
    /// shares — the compiled comparator model, or the pool of `workers`
    /// threads.
    ///
    /// # Errors
    ///
    /// A model that fails to build.
    pub fn setup(
        workload: Workload,
        seed: u64,
        len: usize,
        workers: usize,
    ) -> Result<Bench, String> {
        let inputs = crate::inputs::input_list(workload, seed, len);
        let model = match workload {
            Workload::TranBehavioural => {
                let spec = bench_comparator_spec(&ComparatorStimulus::default());
                Some(timed_build(|| spec.model()).map_err(bad)?)
            }
            _ => None,
        };
        let pool = (workload == Workload::Charac).then(|| ThreadPool::new(workers));
        Ok(Bench {
            workload,
            inputs,
            model,
            pool,
        })
    }

    /// Workers of the characterization pool (1 on the other workloads).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(1, ThreadPool::threads)
    }

    /// Runs operation `k`: builds its circuit or job, makes the timed call
    /// and checks the output.
    ///
    /// # Errors
    ///
    /// A circuit that cannot be built or a simulation that fails.
    pub fn run_op(&self, k: usize) -> Result<OpOutcome, String> {
        match &self.inputs[k] {
            Input::Comparator(input) => self.comparator_op(input),
            Input::Ladder(input) => ladder_op(input),
            Input::Charac(job) => {
                let pool = self.pool.as_ref().expect("charac set-up builds the pool");
                charac_op(job, pool)
            }
        }
    }

    /// Runs characterization job `k` on `pool` instead of the set-up pool.
    ///
    /// # Errors
    ///
    /// As [`Bench::run_op`].
    pub fn run_charac_on(&self, k: usize, pool: &ThreadPool) -> Result<OpOutcome, String> {
        match &self.inputs[k] {
            Input::Charac(job) => charac_op(job, pool),
            _ => Err("not a characterization job".into()),
        }
    }

    /// The test bench of `gabm_bench::behavioural_comparator_circuit`,
    /// rebuilt here so the FAS instance can be wrapped in [`ProbedModel`].
    /// Returns the circuit and its `outp` node.
    fn behavioural_circuit(&self, stim: &ComparatorStimulus) -> Result<(Circuit, NodeId), String> {
        let model = self.model.as_ref().expect("set-up compiles the model");
        let machine = FasBackend::Interp
            .instantiate(model, &BTreeMap::new())
            .map_err(bad)?;
        let mut ckt = Circuit::new();
        let nodes: Vec<NodeId> = ComparatorSpec::pin_order()
            .iter()
            .map(|p| ckt.node(p))
            .collect();
        let (inp, inn, strobe, outp, outn, vdd, vss) = (
            nodes[0], nodes[1], nodes[2], nodes[3], nodes[4], nodes[5], nodes[6],
        );
        ckt.add_behavioral("XCMP", &nodes, Box::new(ProbedModel::new(machine)))
            .map_err(bad)?;
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(stim.supply));
        ckt.add_vsource("VSS", vss, Circuit::GROUND, SourceWave::dc(-stim.supply));
        add_comparator_sources(stim, &mut ckt, inp, inn, strobe);
        ckt.add_resistor("RLP", outp, Circuit::GROUND, 10.0e3)
            .map_err(bad)?;
        ckt.add_resistor("RLN", outn, Circuit::GROUND, 10.0e3)
            .map_err(bad)?;
        Ok((ckt, outp))
    }

    fn comparator_op(&self, input: &ComparatorInput) -> Result<OpOutcome, String> {
        let stim = stimulus(input);
        let (mut ckt, out) = match self.workload {
            Workload::TranBehavioural => self.behavioural_circuit(&stim)?,
            _ => {
                let (ckt, nodes) = cmos_comparator_circuit(&stim).map_err(bad)?;
                (ckt, nodes[3])
            }
        };
        let (result, op_s, probes) = timed_tran(&mut ckt, COMPARATOR_TSTOP);
        let result = result.map_err(bad)?;
        let wave = result.voltage_waveform(out).map_err(bad)?;
        Ok(OpOutcome {
            op_s,
            counts: Counts::from_run(&result.stats, &probes),
            check: check_decisions(input, &wave),
            signature: Vec::new(),
            phase_s: [0.0; 3],
        })
    }
}

/// The differential sine and strobe pulse train of the §5 stimulus (the
/// same sources `gabm_bench` puts on the transistor circuit).
fn add_comparator_sources(
    stim: &ComparatorStimulus,
    ckt: &mut Circuit,
    inp: NodeId,
    inn: NodeId,
    strobe: NodeId,
) {
    ckt.add_vsource(
        "VINP",
        inp,
        Circuit::GROUND,
        SourceWave::sine(0.0, stim.amplitude / 2.0, stim.input_freq),
    );
    ckt.add_vsource(
        "VINN",
        inn,
        Circuit::GROUND,
        SourceWave::Sine {
            offset: 0.0,
            ampl: stim.amplitude / 2.0,
            freq: stim.input_freq,
            delay: 0.0,
            phase: std::f64::consts::PI,
        },
    );
    ckt.add_vsource(
        "VSTB",
        strobe,
        Circuit::GROUND,
        SourceWave::pulse(
            -stim.supply,
            stim.supply,
            stim.strobe_period / 4.0,
            50.0e-9,
            50.0e-9,
            stim.strobe_width,
            stim.strobe_period,
        ),
    );
}

/// One `Circuit::tran` call inside a `bench.tran` span: the result, its
/// host seconds and the FAS calls it made.
fn timed_tran(
    ckt: &mut Circuit,
    tstop: f64,
) -> (
    Result<gabm_sim::analysis::tran::TranResult, SimError>,
    f64,
    Probes,
) {
    let spec = TranSpec::new(tstop);
    let before = Probes::now();
    let t0 = Instant::now();
    let result = {
        let _span = gabm_trace::span("bench.tran");
        ckt.tran(&spec)
    };
    let op_s = t0.elapsed().as_secs_f64();
    (result, op_s, Probes::now().since(before))
}

/// Shortest time the differential input must keep its sign before a
/// strobe window's end for the decision to be checked there (s): longer
/// than a full-rail slew of either comparator.
const DECISION_SETTLE: f64 = 3.0e-6;

/// Comparator output check: at the end of every strobe window where the
/// differential input kept one sign for [`DECISION_SETTLE`] and is at least
/// 5 % of its amplitude, the output must be decided (|v| ≥ 0.5 V) with the
/// input's sign. At least two windows must qualify.
fn check_decisions(input: &ComparatorInput, out: &Waveform) -> Result<(), String> {
    let stim = stimulus(input);
    let vd = |t: f64| input.amplitude * (2.0 * std::f64::consts::PI * input.freq * t).sin();
    let mut checked = 0;
    for (_, hi) in stim.strobe_windows(COMPARATOR_TSTOP) {
        let sign = vd(hi).signum();
        let steady = (0..=32).all(|j| {
            let t = hi - DECISION_SETTLE * f64::from(j) / 32.0;
            t >= 0.0 && vd(t).signum() == sign
        });
        if !steady || vd(hi).abs() < 0.05 * input.amplitude {
            continue;
        }
        let v = out.value_at(hi).map_err(bad)?;
        if v.abs() < 0.5 || v.signum() != sign {
            return Err(format!(
                "decision at t = {hi:.3e} s is {v:.3} V for input {:.3} V",
                vd(hi)
            ));
        }
        checked += 1;
    }
    if checked < 2 {
        return Err(format!("only {checked} strobe windows could be checked"));
    }
    Ok(())
}

/// Builds the RC ladder: a 0 → 1 V pulse into `LADDER_STAGES` series
/// resistors, each node with its capacitor to ground. Returns the circuit
/// and the ladder nodes, nearest the source first.
fn ladder_circuit(input: &LadderInput) -> Result<(Circuit, Vec<NodeId>), String> {
    let mut ckt = Circuit::new();
    let src = ckt.node("in");
    ckt.add_vsource(
        "VIN",
        src,
        Circuit::GROUND,
        SourceWave::pulse(0.0, 1.0, 1.0e-6, 100.0e-9, 100.0e-9, 1.0, 0.0),
    );
    let mut nodes = Vec::with_capacity(LADDER_STAGES);
    let mut prev = src;
    for (k, (&r, &c)) in input.r.iter().zip(&input.c).enumerate() {
        let n = ckt.node(&format!("n{k}"));
        ckt.add_resistor(&format!("R{k}"), prev, n, r)
            .map_err(bad)?;
        ckt.add_capacitor(&format!("C{k}"), n, Circuit::GROUND, c);
        nodes.push(n);
        prev = n;
    }
    Ok((ckt, nodes))
}

fn ladder_op(input: &LadderInput) -> Result<OpOutcome, String> {
    let (mut ckt, nodes) = ladder_circuit(input)?;
    let (result, op_s, probes) = timed_tran(&mut ckt, LADDER_TSTOP);
    let result = result.map_err(bad)?;
    let check = check_ladder(&result, &nodes);
    Ok(OpOutcome {
        op_s,
        counts: Counts::from_run(&result.stats, &probes),
        check,
        signature: Vec::new(),
        phase_s: [0.0; 3],
    })
}

/// Ladder output check: every node voltage stays within [0, 1] V, give or
/// take the transient's local-truncation-error tolerance, at every time
/// point, and the far end rises over the second half of the run to above
/// half the source level.
fn check_ladder(
    result: &gabm_sim::analysis::tran::TranResult,
    nodes: &[NodeId],
) -> Result<(), String> {
    let slack = gabm_sim::Options::default().tran_tol;
    for idx in 0..result.len() {
        for &n in nodes {
            let v = result.voltage_at(idx, n);
            if !(-slack..=1.0 + slack).contains(&v) {
                return Err(format!(
                    "node {} at t = {:.3e} s is {v} V",
                    n.index(),
                    result.times()[idx]
                ));
            }
        }
    }
    let far = *nodes.last().expect("the ladder has stages");
    let last = result.len() - 1;
    let mid = result.times().partition_point(|&t| t < LADDER_TSTOP / 2.0);
    let (v_mid, v_end) = (result.voltage_at(mid, far), result.voltage_at(last, far));
    if !(v_end > v_mid && v_end > 0.5) {
        return Err(format!(
            "far end does not settle toward 1 V: {v_mid:.4} V at tstop/2, {v_end:.4} V at tstop"
        ));
    }
    Ok(())
}

/// Diagram → FAS code → compiled model, timed as a model build.
fn build_model(diagram: &FunctionalDiagram) -> Result<CompiledModel, CharacError> {
    timed_build(|| {
        let code =
            generate(diagram, Backend::Fas).map_err(|e| CharacError::BadRig(e.to_string()))?;
        gabm_fas::compile(&code.text).map_err(|e| CharacError::BadRig(e.to_string()))
    })
}

/// A DUT instantiating `model` on the interpreter backend, wrapped in
/// [`ProbedModel`]. Every rig circuit gets a fresh instance.
fn probed_dut(model: CompiledModel) -> impl Dut {
    let pins: Vec<String> = model.pins().iter().map(|p| p.to_string()).collect();
    let pin_refs: Vec<&str> = pins.iter().map(String::as_str).collect();
    FnDut::new(
        &pin_refs,
        move |ckt: &mut Circuit, name: &str, nodes: &[NodeId]| {
            let machine = FasBackend::Interp
                .instantiate(&model, &BTreeMap::new())
                .map_err(|e| SimError::BadAnalysis(e.to_string()))?;
            ckt.add_behavioral(name, nodes, Box::new(ProbedModel::new(machine)))
        },
    )
}

/// One Monte-Carlo sample: rebuilds the comparator with the scattered
/// slew rates and measures its strobe-to-decision delay.
fn strobe_delay(p: &BTreeMap<String, f64>) -> Result<f64, CharacError> {
    busy(|| {
        let spec = ComparatorSpec {
            slew_rise: p["srise"],
            slew_fall: p["sfall"],
            ..ComparatorSpec::default()
        };
        let model = timed_build(|| spec.model()).map_err(|e| CharacError::BadRig(e.to_string()))?;
        let dut = probed_dut(model);
        let bias = [
            ("inp", Bias::Voltage(0.3)),
            ("inn", Bias::Voltage(-0.3)),
            ("outp", Bias::Open),
            ("outn", Bias::Open),
            ("vdd", Bias::Voltage(2.5)),
            ("vss", Bias::Voltage(-2.5)),
        ];
        Ok(rigs::response_time(&dut, "strobe", "outp", &bias, -1.0, 1.0, 1.0, 40.0e-6)?.value)
    })
}

/// Relative deviation of the slew buffer's output from a sine of
/// `amplitude` at `freq`, over three periods into a 10 kΩ load.
fn tracking_error(dut: &impl Dut, amplitude: f64, freq: f64) -> Result<f64, CharacError> {
    busy(|| {
        let mut ckt = Circuit::new();
        let (n_in, n_out) = (ckt.node("in"), ckt.node("out"));
        dut.instantiate(&mut ckt, "DUT", &[n_in, n_out])?;
        ckt.add_resistor("RL", n_out, Circuit::GROUND, 10.0e3)?;
        ckt.add_vsource(
            "VIN",
            n_in,
            Circuit::GROUND,
            SourceWave::sine(0.0, amplitude, freq),
        );
        let r = ckt.tran(&TranSpec::new(3.0 / freq))?;
        let rms = r
            .voltage_waveform(n_out)?
            .rms_difference(&r.voltage_waveform(n_in)?)
            .map_err(|e| CharacError::ExtractionFailed(e.to_string()))?;
        Ok(rms / amplitude)
    })
}

/// Lowest and highest frequency of the validity scan (Hz).
const VALIDITY_RANGE_HZ: (f64, f64) = (1.0e3, 3.0e6);
/// Largest relative tracking error still counted as valid.
const VALIDITY_TOL: f64 = 0.2;

struct CharacResult {
    dist: Distribution,
    mc_failures: usize,
    validity: ValidityRange,
    passed: bool,
    extracted: Vec<f64>,
    /// Host seconds of the Monte-Carlo, validity and model-check phases.
    phase_s: [f64; 3],
}

fn charac_job(job: &CharacJob, pool: &ThreadPool) -> Result<CharacResult, CharacError> {
    let t0 = Instant::now();
    let (dist, mc_failures) = {
        let _span = gabm_trace::span("bench.charac.mc");
        let nominal = ComparatorSpec::default();
        let mut scatters = BTreeMap::new();
        scatters.insert("srise".to_string(), Scatter::new(nominal.slew_rise, 0.1));
        scatters.insert("sfall".to_string(), Scatter::new(nominal.slew_fall, 0.1));
        monte_carlo_on(pool, &scatters, MC_SAMPLES, job.mc_seed, strobe_delay)?
    };
    let t1 = Instant::now();
    let buffer = SlewBufferSpec::default();
    let buffer_dut = probed_dut(build_model(
        &buffer
            .diagram()
            .map_err(|e| CharacError::BadRig(e.to_string()))?,
    )?);
    let validity = {
        let _span = gabm_trace::span("bench.charac.validity");
        let (lo, hi) = VALIDITY_RANGE_HZ;
        scan_validity_on(
            pool,
            "frequency",
            lo,
            hi,
            VALIDITY_POINTS,
            VALIDITY_TOL,
            |f| tracking_error(&buffer_dut, job.amplitude, f),
        )?
    };
    let t2 = Instant::now();
    let (input_report, buffer_report) = {
        let _span = gabm_trace::span("bench.charac.modelcheck");
        let input_dut = probed_dut(build_model(
            &InputStageSpec::new("in", 1.0 / job.rin, job.cin)
                .diagram()
                .map_err(|e| CharacError::BadRig(e.to_string()))?,
        )?);
        let input_report = check_model_rigs_on(
            pool,
            "input_stage",
            &[
                RigCheck {
                    parameter: "rin",
                    assigned: job.rin,
                    extract: &|| busy(|| rigs::input_resistance(&input_dut, "in", &[])),
                },
                RigCheck {
                    parameter: "cin",
                    assigned: job.cin,
                    extract: &|| busy(|| rigs::input_capacitance(&input_dut, "in", &[], job.cin)),
                },
            ],
            0.15,
        )?;
        let slew = |pick_rise: bool| {
            busy(|| {
                let (rise, fall) =
                    rigs::slew_rates(&buffer_dut, "in", "out", &[], -1.0, 1.0, 40.0e-6)?;
                Ok(if pick_rise { rise } else { fall })
            })
        };
        let buffer_report = check_model_rigs_on(
            pool,
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
                    extract: &|| busy(|| rigs::output_resistance(&buffer_dut, "out", &[], 1.0e-4)),
                },
            ],
            0.2,
        )?;
        (input_report, buffer_report)
    };
    let t3 = Instant::now();
    let rows = input_report.rows.iter().chain(&buffer_report.rows);
    Ok(CharacResult {
        dist,
        mc_failures,
        validity,
        passed: input_report.passed() && buffer_report.passed(),
        extracted: rows.map(|r| r.extracted).collect(),
        phase_s: [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ],
    })
}

/// Slew-limit frequency of the slew buffer for a sine of `amplitude`: the
/// frequency at which the sine's steepest slope equals the slower slew
/// rate.
fn slew_limit_hz(amplitude: f64) -> f64 {
    let buffer = SlewBufferSpec::default();
    buffer.slew_rise.min(buffer.slew_fall) / (2.0 * std::f64::consts::PI * amplitude)
}

/// Characterization output check: no Monte-Carlo sample failed, the
/// validity range starts at the scan's low end and its upper edge
/// brackets the slew-limit prediction (the last valid grid point lies
/// below the prediction's next grid point and above its previous one), no
/// probe failed, and every model-check row passed.
fn check_charac(job: &CharacJob, r: &CharacResult) -> Result<(), String> {
    if r.mc_failures != 0 {
        return Err(format!("{} Monte-Carlo samples failed", r.mc_failures));
    }
    let (lo, hi) = VALIDITY_RANGE_HZ;
    let step = (hi / lo).powf(1.0 / (VALIDITY_POINTS - 1) as f64);
    let predicted = slew_limit_hz(job.amplitude);
    let v = &r.validity;
    if v.failures != 0 || v.lo != lo || !(v.hi * step > predicted && v.hi < predicted * step) {
        return Err(format!(
            "validity [{:.3e}, {:.3e}] Hz ({} failed probes) does not bracket the slew limit {predicted:.3e} Hz",
            v.lo, v.hi, v.failures
        ));
    }
    if !r.passed {
        return Err(format!("model check failed: extracted {:?}", r.extracted));
    }
    Ok(())
}

fn charac_op(job: &CharacJob, pool: &ThreadPool) -> Result<OpOutcome, String> {
    let before = Probes::now();
    let t0 = Instant::now();
    let result = {
        let _span = gabm_trace::span("bench.job");
        charac_job(job, pool)
    };
    let op_s = t0.elapsed().as_secs_f64();
    let probes = Probes::now().since(before);
    let r = result.map_err(bad)?;
    let d = &r.dist;
    let mut signature = vec![
        d.n as u64,
        d.mean.to_bits(),
        d.std_dev.to_bits(),
        d.min.to_bits(),
        d.max.to_bits(),
        r.mc_failures as u64,
        r.validity.lo.to_bits(),
        r.validity.hi.to_bits(),
        r.validity.evaluations as u64,
    ];
    signature.extend(r.extracted.iter().map(|x| x.to_bits()));
    Ok(OpOutcome {
        op_s,
        counts: Counts {
            fas_eval_calls: probes.fas_eval_calls,
            fas_jac_calls: probes.fas_jac_calls,
            charac_evals: (MC_SAMPLES + r.validity.evaluations + MODEL_CHECK_RIGS) as u64,
            ..Counts::default()
        },
        check: check_charac(job, &r),
        signature,
        phase_s: r.phase_s,
    })
}
