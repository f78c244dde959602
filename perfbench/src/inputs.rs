//! Workloads and their seeded input lists.
//!
//! Every run takes a fixed-length input list from its seed. The lists are
//! Latin-hypercube samples: each varied property is split into as many
//! equal strata as the list has entries, one value is drawn inside every
//! stratum and the strata are shuffled. The seed changes every value and
//! every pairing, while the spread of the inputs — and so the spread of
//! the work — stays the same from seed to seed.

use gabm_numeric::rng::Rng;

/// Operations in one pass over a workload's input list: enough for ten
/// to lie beyond the 90th percentile.
pub const LIST_LEN: usize = 128;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §5 triggered comparator as a FAS behavioural model.
    TranBehavioural,
    /// The same stimuli on the 11-MOS transistor comparator.
    TranCmos,
    /// A 512-stage RC ladder on the sparse solver path.
    TranLadder512,
    /// Monte-Carlo, validity scan and model-check rigs on the pool.
    Charac,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TranBehavioural,
        Workload::TranCmos,
        Workload::TranLadder512,
        Workload::Charac,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TranBehavioural => "tran-behavioural",
            Workload::TranCmos => "tran-cmos",
            Workload::TranLadder512 => "tran-ladder512",
            Workload::Charac => "charac",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Stream index of the workload's inputs under a seed. The two
    /// comparator workloads share one, so they simulate the same stimuli.
    fn salt(self) -> u64 {
        match self {
            Workload::TranBehavioural | Workload::TranCmos => 1,
            Workload::TranLadder512 => 2,
            Workload::Charac => 3,
        }
    }
}

/// One comparator transient: the differential sine of the §5 stimulus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorInput {
    /// Differential input amplitude (V), 0.3–0.7.
    pub amplitude: f64,
    /// Differential input frequency (Hz), 30–70 kHz.
    pub freq: f64,
}

/// Number of RC sections of the ladder.
pub const LADDER_STAGES: usize = 512;

/// One RC-ladder transient: every section's R and C, each within ±10 %
/// of nominal.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderInput {
    /// Series resistances (Ω), one per stage.
    pub r: Vec<f64>,
    /// Shunt capacitances (F), one per stage.
    pub c: Vec<f64>,
}

/// Nominal ladder section resistance (Ω).
const LADDER_R: f64 = 100.0;
/// Nominal ladder section capacitance (F).
const LADDER_C: f64 = 1.0e-12;

/// One characterization job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacJob {
    /// Seed of the Monte-Carlo slew scatter.
    pub mc_seed: u64,
    /// Input-stage resistance assigned for the model check (Ω).
    pub rin: f64,
    /// Input-stage capacitance assigned for the model check (F).
    pub cin: f64,
    /// Sine amplitude of the slew-buffer validity scan (V).
    pub amplitude: f64,
}

/// One entry of an input list.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Input of `tran-behavioural` and `tran-cmos`.
    Comparator(ComparatorInput),
    /// Input of `tran-ladder512`.
    Ladder(LadderInput),
    /// Input of `charac`.
    Charac(CharacJob),
}

/// `len` values, one drawn uniformly inside each of `len` equal strata of
/// `[lo, hi)`, in shuffled order.
fn stratified(rng: &mut Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..len)
        .map(|k| lo + (hi - lo) * (k as f64 + rng.uniform()) / len as f64)
        .collect();
    for i in (1..len).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// The input list of `workload` for `seed`, `len` entries long. Equal
/// arguments give equal lists.
pub fn input_list(workload: Workload, seed: u64, len: usize) -> Vec<Input> {
    let mut rng = Rng::split(seed, workload.salt());
    match workload {
        Workload::TranBehavioural | Workload::TranCmos => {
            let amplitude = stratified(&mut rng, len, 0.3, 0.7);
            let freq = stratified(&mut rng, len, 30.0e3, 70.0e3);
            amplitude
                .into_iter()
                .zip(freq)
                .map(|(amplitude, freq)| Input::Comparator(ComparatorInput { amplitude, freq }))
                .collect()
        }
        Workload::TranLadder512 => (0..len)
            .map(|_| {
                let mut spread = |nominal: f64| -> Vec<f64> {
                    (0..LADDER_STAGES)
                        .map(|_| nominal * (1.0 + 0.1 * rng.symmetric()))
                        .collect()
                };
                let r = spread(LADDER_R);
                let c = spread(LADDER_C);
                Input::Ladder(LadderInput { r, c })
            })
            .collect(),
        Workload::Charac => {
            let rin = stratified(&mut rng, len, 0.5e6, 2.0e6);
            let cin = stratified(&mut rng, len, 2.0e-12, 8.0e-12);
            let amplitude = stratified(&mut rng, len, 0.8, 1.2);
            (0..len)
                .map(|k| {
                    Input::Charac(CharacJob {
                        mc_seed: rng.next_u64(),
                        rin: rin[k],
                        cin: cin[k],
                        amplitude: amplitude[k],
                    })
                })
                .collect()
        }
    }
}
