//! Multi-design campaigns: close coverage on a whole catalog at once.
//!
//! A [`Campaign`] holds a list of independent closure jobs (one module +
//! [`EngineConfig`] each) and runs them on a pool of worker threads —
//! the design-level analogue of the per-iteration shard dispatch inside
//! one engine. Each worker owns its job's [`Engine`] for the duration
//! of the run, so jobs never share mutable state; results are collected
//! back in submission order, making the [`CampaignSummary`]
//! deterministic regardless of which worker finished first.

use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::error::EngineError;
use crate::report::ClosureOutcome;
use gm_mc::SessionStats;
use gm_rtl::Module;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One independent closure job.
#[derive(Clone, Debug)]
pub struct CampaignJob {
    /// A label for reports (typically the design name).
    pub name: String,
    /// The design to close.
    pub module: Module,
    /// The engine configuration for this job.
    pub config: EngineConfig,
}

/// A set of closure jobs executed on a bounded worker pool.
///
/// # Examples
///
/// ```
/// use goldmine::{Campaign, EngineConfig, SeedStimulus};
///
/// let mut campaign = Campaign::new();
/// for src in [
///     "module a(input x, output y); assign y = x; endmodule",
///     "module b(input x, output y); assign y = ~x; endmodule",
/// ] {
///     let module = gm_rtl::parse_verilog(src)?;
///     let config = EngineConfig {
///         window: 0,
///         stimulus: SeedStimulus::Random { cycles: 8 },
///         record_coverage: false,
///         ..EngineConfig::default()
///     };
///     campaign.push(module.name().to_string(), module, config);
/// }
/// let summary = campaign.run();
/// assert_eq!(summary.runs.len(), 2);
/// assert!(summary.all_converged());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Campaign {
    jobs: Vec<CampaignJob>,
    workers: Option<usize>,
}

impl Campaign {
    /// An empty campaign with one worker per available core.
    pub fn new() -> Self {
        Campaign {
            jobs: Vec::new(),
            workers: None,
        }
    }

    /// Overrides the worker-pool size (clamped to at least 1; the pool
    /// never exceeds the number of jobs).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Queues a job.
    pub fn push(&mut self, name: impl Into<String>, module: Module, config: EngineConfig) {
        self.jobs.push(CampaignJob {
            name: name.into(),
            module,
            config,
        });
    }

    /// The number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job to completion and returns the merged summary.
    ///
    /// Workers pull jobs from a shared cursor (a free worker takes the
    /// next job, so a slow design never strands the rest behind it and
    /// there is nothing to steal) and deposit results by job index:
    /// the summary lists runs in submission order, and each run's
    /// [`ClosureOutcome`] is identical to what a standalone
    /// [`Engine::run`] with the same module/config/seed would produce.
    pub fn run(self) -> CampaignSummary {
        let workers = self
            .workers
            .unwrap_or_else(|| crate::config::ShardPolicy::PerCore.shard_count())
            .min(self.jobs.len())
            .max(1);
        let jobs = self.jobs;
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<CampaignRun>>> =
            Mutex::new((0..jobs.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let outcome = Engine::new(&job.module, job.config.clone())
                        .and_then(|engine| engine.run());
                    let run = CampaignRun {
                        name: job.name.clone(),
                        outcome,
                    };
                    results.lock().expect("campaign results poisoned")[i] = Some(run);
                });
            }
        });
        CampaignSummary {
            runs: results
                .into_inner()
                .expect("campaign results poisoned")
                .into_iter()
                .map(|r| r.expect("every job produced a run"))
                .collect(),
        }
    }
}

/// The result of one campaign job.
#[derive(Debug)]
pub struct CampaignRun {
    /// The job label.
    pub name: String,
    /// The closure outcome, or the engine error that aborted the job
    /// (one failing job never takes down its siblings).
    pub outcome: Result<ClosureOutcome, EngineError>,
}

/// Merged results of a whole campaign, in job-submission order.
#[derive(Debug)]
pub struct CampaignSummary {
    /// One entry per job.
    pub runs: Vec<CampaignRun>,
}

impl CampaignSummary {
    /// Whether every job completed without an engine error.
    pub fn all_ok(&self) -> bool {
        self.runs.iter().all(|r| r.outcome.is_ok())
    }

    /// Whether every job reached full coverage closure.
    pub fn all_converged(&self) -> bool {
        self.runs
            .iter()
            .all(|r| r.outcome.as_ref().map(|o| o.converged).unwrap_or(false))
    }

    /// The jobs that reached closure.
    pub fn converged_count(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.outcome.as_ref().map(|o| o.converged).unwrap_or(false))
            .count()
    }

    /// Total proved assertions across all successful jobs.
    pub fn total_assertions(&self) -> usize {
        self.runs
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.assertions.len())
            .sum()
    }

    /// Total stimulus cycles generated across all successful jobs.
    pub fn total_suite_cycles(&self) -> usize {
        self.runs
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.suite.total_cycles())
            .sum()
    }

    /// Merged verification-session work across all successful jobs.
    pub fn verification_total(&self) -> SessionStats {
        self.runs
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .fold(SessionStats::default(), |acc, o| {
                acc + o.verification_total()
            })
    }

    /// A one-line-per-design text report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            match &r.outcome {
                Ok(o) => {
                    let last = o.iterations.last();
                    out.push_str(&format!(
                        "{:<14} converged={:<5} iterations={:<3} proved={:<4} coverage={:.1}% cycles={}\n",
                        r.name,
                        o.converged,
                        o.iteration_count(),
                        o.assertions.len(),
                        100.0 * last.map(|l| l.input_space_coverage).unwrap_or(0.0),
                        o.suite.total_cycles(),
                    ));
                }
                Err(e) => out.push_str(&format!("{:<14} error: {e}\n", r.name)),
            }
        }
        let v = self.verification_total();
        out.push_str(&format!(
            "total: {}/{} converged, {} assertions, {} queries ({} explicit, {} SAT)\n",
            self.converged_count(),
            self.runs.len(),
            self.total_assertions(),
            v.engine_queries(),
            v.explicit_queries,
            v.sat_decided,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SeedStimulus, ShardPolicy};

    fn tiny_job(src: &str) -> (String, Module, EngineConfig) {
        let module = gm_rtl::parse_verilog(src).unwrap();
        let config = EngineConfig {
            window: 0,
            stimulus: SeedStimulus::Random { cycles: 8 },
            record_coverage: false,
            ..EngineConfig::default()
        };
        (module.name().to_string(), module, config)
    }

    #[test]
    fn campaign_runs_jobs_in_submission_order_and_matches_standalone() {
        let sources = [
            "module andg(input a, input b, output y); assign y = a & b; endmodule",
            "module org(input a, input b, output y); assign y = a | b; endmodule",
            "module xorg(input a, input b, output y); assign y = a ^ b; endmodule",
        ];
        let mut campaign = Campaign::new().with_workers(3);
        for src in sources {
            let (name, module, config) = tiny_job(src);
            campaign.push(name, module, config);
        }
        let summary = campaign.run();
        assert_eq!(summary.runs.len(), 3);
        assert!(summary.all_ok());
        assert!(summary.all_converged());
        assert_eq!(
            summary
                .runs
                .iter()
                .map(|r| r.name.as_str())
                .collect::<Vec<_>>(),
            vec!["andg", "org", "xorg"],
            "results keep submission order"
        );
        // Concurrency must not perturb any job's outcome.
        for (src, run) in sources.iter().zip(&summary.runs) {
            let (_, module, config) = tiny_job(src);
            let standalone = Engine::new(&module, config).unwrap().run().unwrap();
            let got = run.outcome.as_ref().unwrap();
            assert_eq!(format!("{standalone:?}"), format!("{got:?}"));
        }
        assert!(summary.report().contains("3/3 converged"));
    }

    #[test]
    fn campaign_jobs_may_shard_internally() {
        let (name, module, mut config) = tiny_job(
            "module maj(input a, input b, input c, output y);
               assign y = (a & b) | (b & c) | (a & c); endmodule",
        );
        config.shards = ShardPolicy::Fixed(2);
        let mut campaign = Campaign::new();
        campaign.push(name, module, config);
        let summary = campaign.run();
        assert!(summary.all_converged());
        assert!(summary.total_assertions() > 0);
        assert!(summary.verification_total().engine_queries() > 0);
    }
}
