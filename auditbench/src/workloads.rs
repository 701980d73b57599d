//! The four workloads: how each sets up, runs one audit round, and what
//! its output must equal.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::harness::fresh;
use crate::ledger::LedgerPlatform;
use crate::program::{self as p, Fleet, SegmentedPlatform, Simulation, Stack};
use crate::trace::{Layer, Recorder};

/// A named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 over paper-scale platforms, in process and serial.
    Table1Paper,
    /// Table 1 at test scale through recording, resilience, the
    /// scheduler and two wire replicas per interface.
    Table1Fleet,
    /// A recorded test-scale Table 1 re-derived from the run store.
    Replay,
    /// Survey plus bounded discovery over a disk-backed platform.
    DiscoverySegmented,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Table1Paper,
        Workload::Table1Fleet,
        Workload::Replay,
        Workload::DiscoverySegmented,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Paper => "table1-paper",
            Workload::Table1Fleet => "table1-fleet",
            Workload::Replay => "replay",
            Workload::DiscoverySegmented => "discovery-segmented",
        }
    }

    /// Threads a round keeps busy: the fleet's two replica clients and
    /// their servers, and the two-thread simulation build inside every
    /// `replay` round; the other rounds run on one.
    pub fn round_threads(self) -> usize {
        match self {
            Workload::Table1Fleet | Workload::Replay => 2,
            Workload::Table1Paper | Workload::DiscoverySegmented => 1,
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One audit round.
pub struct Round {
    /// Timed wall time of the audit.
    pub secs: f64,
    /// Time spent assembling the audit's context, included in `secs`
    /// except on `table1-paper`, where the context is a test-scale shell
    /// around the pre-built paper simulation.
    pub context_secs: f64,
    /// Estimates the audit obtained: from the platforms, or from the
    /// store on `replay`.
    pub answered: u64,
    /// Estimates the platforms answered (zero on `replay`).
    pub platform_estimates: u64,
    /// The audit's output, or why it failed.
    pub output: Result<String, String>,
}

enum Kind {
    Paper { sim: Simulation },
    Fleet { sim: Simulation, fleet: Arc<Fleet> },
    Replay { sim: Simulation, store: PathBuf },
    Segmented { platform: Arc<SegmentedPlatform> },
}

/// How much of the probe machinery a round goes through. Whether probes
/// record at all is the recorder's switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No probes: the stack as an auditor runs it.
    Plain,
    /// A driver span, plus endpoint, server and oracle probes where the
    /// workload assembles the stack itself (`table1-fleet`,
    /// `discovery-segmented`).
    Traced,
    /// `Traced`, except that the in-process workloads reach their
    /// platforms through the scheduler over probed local endpoints, the
    /// one seam an `ExperimentContext` offers: how their query stream
    /// and time inside the measurement source are captured.
    Capture,
}

/// A set-up workload, ready for rounds.
pub struct State {
    workload: Workload,
    seed: u64,
    kind: Kind,
    rec: Option<Arc<Recorder>>,
    dir: PathBuf,
    /// Seconds spent building the platforms, within set-up.
    pub build_secs: f64,
    /// The output every round must equal when set-up computed it by
    /// another path: the in-process table for `table1-fleet`, the
    /// recorded table for `replay`.
    pub expected: Option<String>,
}

fn config(workload: Workload, seed: u64) -> p::ExperimentConfig {
    p::table1_config(seed, workload == Workload::Table1Paper)
}

impl State {
    /// Sets `workload` up under `dir`. With a recorder, the stack carries
    /// the probes traced rounds need.
    pub fn setup(
        workload: Workload,
        seed: u64,
        dir: &Path,
        rec: Option<Arc<Recorder>>,
    ) -> io::Result<State> {
        let started = Instant::now();
        let mut expected = None;
        let kind = match workload {
            Workload::Table1Paper => Kind::Paper {
                sim: p::table1_simulation(seed, true),
            },
            Workload::Table1Fleet => {
                let sim = p::table1_simulation(seed, false);
                let fleet = p::launch_fleet(&sim, rec.as_ref())?;
                Kind::Fleet { sim, fleet }
            }
            Workload::Replay => Kind::Replay {
                sim: p::table1_simulation(seed, false),
                store: fresh(dir, "recorded")?,
            },
            Workload::DiscoverySegmented => {
                let store = fresh(dir, "segments")?;
                Kind::Segmented {
                    platform: Arc::new(p::build_segmented(&store, seed)?),
                }
            }
        };
        let build_secs = started.elapsed().as_secs_f64();
        let cfg = config(workload, seed);
        match &kind {
            Kind::Fleet { .. } => {
                let serial = p::context(cfg, Stack::InProcess, None);
                expected = Some(p::table1_tsv(&serial).map_err(io::Error::other)?);
            }
            Kind::Replay { sim, store } => {
                let store = p::open_store(store)?;
                let ctx = p::context(cfg, Stack::Recorded(store.clone()), Some(sim));
                expected = Some(p::table1_tsv(&ctx).map_err(io::Error::other)?);
                p::sync(&store)?;
            }
            Kind::Paper { .. } | Kind::Segmented { .. } => {}
        }
        Ok(State {
            workload,
            seed,
            kind,
            rec,
            dir: dir.to_path_buf(),
            build_secs,
            expected,
        })
    }

    /// Whether the workload's own stack has endpoint seams. The
    /// in-process workloads reach theirs only in [`Mode::Capture`].
    pub fn native_seams(&self) -> bool {
        matches!(self.kind, Kind::Fleet { .. } | Kind::Segmented { .. })
    }

    /// Runs audit round `index`.
    pub fn round(&self, index: usize, mode: Mode) -> Round {
        let probes = self.rec.as_ref().filter(|_| mode != Mode::Plain);
        let shim = self.rec.as_ref().filter(|_| mode == Mode::Capture);
        let cfg = config(self.workload, self.seed);
        let mut round = Round {
            secs: 0.0,
            context_secs: 0.0,
            answered: 0,
            platform_estimates: 0,
            output: Err(String::new()),
        };
        match &self.kind {
            Kind::Paper { sim } => {
                let built = Instant::now();
                let stack = match shim {
                    Some(rec) => Stack::Distributed(p::local_endpoints(sim, rec), p::shim_sched()),
                    None => Stack::InProcess,
                };
                let ctx = p::context(cfg, stack, Some(sim));
                round.context_secs = built.elapsed().as_secs_f64();
                let before = p::answered(sim);
                let started = self.driver_start();
                round.output = p::table1_tsv(&ctx).map_err(|e| e.to_string());
                round.secs = self.driver_finish(started);
                round.answered = p::answered(sim) - before;
                round.platform_estimates = round.answered;
            }
            Kind::Fleet { sim, fleet } => {
                let before = p::answered(sim);
                let dir = self.dir.join(format!("round-{index}"));
                let started = self.driver_start();
                round.output = (|| {
                    let store = p::open_store(&dir).map_err(|e| e.to_string())?;
                    let built = Instant::now();
                    let endpoints = p::fleet_endpoints(fleet, probes);
                    let ctx = p::context(cfg, Stack::Fleet(store, endpoints), None);
                    round.context_secs = built.elapsed().as_secs_f64();
                    let tsv = p::table1_tsv(&ctx).map_err(|e| e.to_string());
                    round.platform_estimates = p::answered(&ctx.simulation);
                    tsv
                })();
                round.secs = self.driver_finish(started);
                let _ = std::fs::remove_dir_all(&dir);
                round.answered = p::answered(sim) - before;
                round.platform_estimates += round.answered;
            }
            Kind::Replay { store, .. } => {
                let hits = p::counter(p::REPLAY_HITS);
                let started = self.driver_start();
                round.output = (|| {
                    let store = p::open_store(store).map_err(|e| e.to_string())?;
                    let built = Instant::now();
                    let stack = match shim {
                        Some(rec) => {
                            Stack::Distributed(p::replay_endpoints(&store, rec), p::shim_sched())
                        }
                        None => Stack::Replayed(store),
                    };
                    let ctx = p::context(cfg, stack, None);
                    round.context_secs = built.elapsed().as_secs_f64();
                    let tsv = p::table1_tsv(&ctx).map_err(|e| e.to_string());
                    round.platform_estimates = p::answered(&ctx.simulation);
                    tsv
                })();
                round.secs = self.driver_finish(started);
                round.answered = p::counter(p::REPLAY_HITS) - hits;
            }
            Kind::Segmented { platform } => {
                let before = p::segmented_answered(platform);
                let started = self.driver_start();
                let target = p::segmented_target(platform, probes);
                round.context_secs = started.0.elapsed().as_secs_f64();
                let probed = probes.map(|rec| p::ProbeOracle::new(platform.clone(), rec));
                let oracle: &dyn p::ReachOracle = match &probed {
                    Some(probe) => probe,
                    None => platform.as_ref(),
                };
                round.output =
                    p::discover(&target, Some(oracle), self.seed).map_err(|e| e.to_string());
                round.secs = self.driver_finish(started);
                round.answered = p::segmented_answered(platform) - before;
                round.platform_estimates = round.answered;
            }
        }
        round
    }

    /// Starts the round's clock, and its driver span when recording.
    fn driver_start(&self) -> (Instant, Option<u64>) {
        (Instant::now(), self.rec.as_ref().and_then(|r| r.start()))
    }

    /// The round's seconds, closing its driver span.
    fn driver_finish(&self, (started, span): (Instant, Option<u64>)) -> f64 {
        let secs = started.elapsed().as_secs_f64();
        if let Some(rec) = &self.rec {
            rec.finish(Layer::Driver, span);
        }
        secs
    }

    /// `discovery-segmented` only: the greedy scan's output, which the
    /// bounded search must reproduce.
    pub fn greedy_output(&self) -> Option<Result<String, String>> {
        match &self.kind {
            Kind::Segmented { platform } => Some(
                p::discover(&p::segmented_target(platform, None), None, self.seed)
                    .map_err(|e| e.to_string()),
            ),
            _ => None,
        }
    }

    /// The measurement platforms the ledger replays this workload's
    /// stream against, each with its resident and segmented copy.
    pub fn ledger_platforms(&self, dir: &Path) -> io::Result<Vec<LedgerPlatform>> {
        let sim = match &self.kind {
            Kind::Paper { sim } | Kind::Fleet { sim, .. } | Kind::Replay { sim, .. } => sim,
            Kind::Segmented { platform } => {
                let resident = Arc::new(p::resident_twin(platform));
                return Ok(vec![LedgerPlatform {
                    label: resident.label().to_string(),
                    resident,
                    segmented: platform.clone(),
                    generate_users_per_s: p::segmented_users(platform) as f64 / self.build_secs,
                }]);
            }
        };
        [sim.facebook.clone(), sim.linkedin.clone()]
            .into_iter()
            .map(|resident| {
                let started = Instant::now();
                let store = fresh(dir, &format!("twin-{}", resident.label()))?;
                let segmented = Arc::new(p::segmented_twin(&resident, &store)?);
                let secs = started.elapsed().as_secs_f64();
                Ok(LedgerPlatform {
                    label: resident.label().to_string(),
                    generate_users_per_s: p::segmented_users(&segmented) as f64 / secs,
                    resident,
                    segmented,
                })
            })
            .collect()
    }
}
