//! The run configuration: the only code that reads the environment.
//!
//! Five variables set a run: `REPRO_SAMPLES` (samples per cell, or bench
//! repetitions), `IPSC_BACKEND` (`des`, the default, or `analytic`),
//! `IPSC_COSTMODEL` (a [`LinkCostModel::parse`] string; `uniform` by
//! default), `IPSC_CACHE` (`off`, the default, `mem`, or a store
//! directory) and `IPSC_THREADS` (grid workers; the host's parallelism
//! by default). Empty means unset. A typo in the backend or cost model is
//! an error — a sweep must not silently run on a substrate or machine
//! nobody asked for — while garbage or zero in the samples or thread
//! count falls back to the default.

use std::ffi::OsString;
use std::fmt;

use commrt::grid::ExecOptions;
use commrt::{BackendKind, CacheConfig, ExperimentGrid, LinkCostModel};

/// The settings of one run, read once ([`RunConfig::from_env`]) and
/// applied to every grid through [`RunConfig::grid`] and
/// [`RunConfig::exec_options`].
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Samples per cell (`REPRO_SAMPLES`).
    pub samples: usize,
    /// Simulation backend of every grid cell (`IPSC_BACKEND`).
    pub backend: BackendKind,
    /// Link-cost model of every grid cell (`IPSC_COSTMODEL`).
    pub cost_model: LinkCostModel,
    /// Schedule cache of every grid (`IPSC_CACHE`); `None` compiles every
    /// schedule from scratch.
    pub cache: Option<CacheConfig>,
    /// Worker threads (`IPSC_THREADS`); `None` uses the host's available
    /// parallelism. Never changes a result.
    pub threads: Option<usize>,
}

impl RunConfig {
    /// Parse the five variables through the lookup `var`, with
    /// `default_samples` when `REPRO_SAMPLES` is unset or not a positive
    /// integer.
    ///
    /// # Errors
    ///
    /// An unrecognized or non-UTF-8 `IPSC_BACKEND` or `IPSC_COSTMODEL`.
    pub fn from_vars(
        default_samples: usize,
        var: impl Fn(&str) -> Option<OsString>,
    ) -> Result<RunConfig, String> {
        let text = |name: &str| match var(name).map(OsString::into_string) {
            None => Ok(None),
            Some(Ok(v)) => Ok(Some(v).filter(|v| !v.is_empty())),
            Some(Err(v)) => Err(format!("{name}={v:?} is not valid UTF-8")),
        };
        let positive = |name: &str| {
            let v = text(name).ok().flatten()?.parse().ok();
            v.filter(|&v: &usize| v > 0)
        };
        let backend = match text("IPSC_BACKEND")? {
            None => BackendKind::Des,
            Some(v) => BackendKind::parse(&v).ok_or(format!(
                "IPSC_BACKEND={v:?} is not a backend; use \"des\" or \"analytic\""
            ))?,
        };
        let cost_model = match text("IPSC_COSTMODEL")? {
            None => LinkCostModel::Uniform,
            Some(v) => LinkCostModel::parse(&v).map_err(|e| format!("IPSC_COSTMODEL: {e}"))?,
        };
        let cache = match text("IPSC_CACHE").ok().flatten().as_deref() {
            None | Some("off") => None,
            Some("mem") => Some(CacheConfig::in_memory()),
            Some(dir) => Some(CacheConfig::persistent(dir)),
        };
        Ok(RunConfig {
            samples: positive("REPRO_SAMPLES").unwrap_or(default_samples),
            backend,
            cost_model,
            cache,
            threads: positive("IPSC_THREADS"),
        })
    }

    /// [`RunConfig::from_vars`] over the process environment; a typo'd
    /// backend or cost model is printed and exits with status 2.
    pub fn from_env(default_samples: usize) -> RunConfig {
        Self::from_vars(default_samples, |name| std::env::var_os(name)).unwrap_or_else(|e| {
            eprintln!("run configuration: {e}");
            std::process::exit(2)
        })
    }

    /// Print the effective configuration as one `config: ...` line on
    /// stderr (stdout is the reproduced artifact and stays pinned).
    pub fn report(&self) {
        eprintln!("config: {self}");
    }

    /// An empty grid with this configuration's samples, backend, link-cost
    /// model and schedule cache: where every grid binary starts.
    pub fn grid(&self) -> ExperimentGrid {
        let grid = ExperimentGrid::new()
            .samples(self.samples)
            .with_backend(self.backend)
            .with_link_costs(self.cost_model);
        match &self.cache {
            Some(config) => grid.with_cache(config.clone()),
            None => grid,
        }
    }

    /// Execution options with this configuration's thread count.
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            threads: self.threads,
            ..ExecOptions::default()
        }
    }
}

impl fmt::Display for RunConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cache = match &self.cache {
            None => "off".to_string(),
            Some(c) => c
                .persist_dir
                .as_ref()
                .map_or("mem".to_string(), |dir| dir.display().to_string()),
        };
        let threads = self.threads.map_or("auto".to_string(), |t| t.to_string());
        write!(
            f,
            "samples={} backend={} costmodel={} cache={cache} threads={threads}",
            self.samples, self.backend, self.cost_model
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commrt::WorkloadPoint;
    use hypercube::Hypercube;
    use std::os::unix::ffi::OsStringExt;
    use workloads::Generator;

    /// Parse an environment holding exactly `vars`.
    fn parse(vars: &[(&str, &str)]) -> Result<RunConfig, String> {
        RunConfig::from_vars(7, |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| OsString::from(v))
        })
    }

    fn non_utf8(name: &'static str) -> Result<RunConfig, String> {
        RunConfig::from_vars(7, move |n| {
            (n == name).then(|| OsString::from_vec(vec![b'd', 0xff, b's']))
        })
    }

    #[test]
    fn empty_environment_is_the_default_configuration() {
        let config = parse(&[]).unwrap();
        assert_eq!(config.samples, 7);
        assert_eq!(config.backend, BackendKind::Des);
        assert!(config.cost_model.is_uniform());
        assert!(config.cache.is_none());
        assert_eq!(config.threads, None);
        assert_eq!(
            config.to_string(),
            "samples=7 backend=des costmodel=uniform cache=off threads=auto"
        );
        // Empty values mean unset for every variable.
        let empty = [
            ("REPRO_SAMPLES", ""),
            ("IPSC_BACKEND", ""),
            ("IPSC_COSTMODEL", ""),
            ("IPSC_CACHE", ""),
            ("IPSC_THREADS", ""),
        ];
        assert_eq!(parse(&empty).unwrap().to_string(), config.to_string());
    }

    #[test]
    fn samples_take_positive_integers_and_fall_back_otherwise() {
        assert_eq!(parse(&[("REPRO_SAMPLES", "3")]).unwrap().samples, 3);
        for bad in ["0", "-2", "many", "2.5"] {
            assert_eq!(
                parse(&[("REPRO_SAMPLES", bad)]).unwrap().samples,
                7,
                "{bad}"
            );
        }
    }

    #[test]
    fn ipsc_threads_pins_the_worker_count_and_never_changes_cells() {
        assert_eq!(parse(&[("IPSC_THREADS", "3")]).unwrap().threads, Some(3));
        // Garbage and zero fall back to the host default.
        for bad in ["0", "not-a-number"] {
            assert_eq!(parse(&[("IPSC_THREADS", bad)]).unwrap().threads, None);
        }
        assert_eq!(
            RunConfig::from_vars(1, |n| {
                (n == "IPSC_THREADS").then(|| OsString::from_vec(vec![b'2', 0xff]))
            })
            .unwrap()
            .threads,
            None
        );

        // The pin steers the grid executor — and, per the determinism
        // guarantee, the results equal an unconstrained run's.
        let grid = |config: &RunConfig| {
            config
                .grid()
                .topology("hypercube(4)", Hypercube::new(4))
                .schedulers(commsched::registry::primary())
                .point(WorkloadPoint::shared(
                    Generator::dregular(16, 3, 1024),
                    3,
                    1024,
                    17,
                ))
                .execute_opts(config.exec_options())
                .unwrap()
        };
        let pinned = parse(&[("REPRO_SAMPLES", "2"), ("IPSC_THREADS", "2")]).unwrap();
        assert_eq!(pinned.exec_options().threads, Some(2));
        let free = parse(&[("REPRO_SAMPLES", "2")]).unwrap();
        assert_eq!(
            grid(&pinned).cells().collect::<Vec<_>>(),
            grid(&free).cells().collect::<Vec<_>>()
        );
    }

    #[test]
    fn backend_accepts_its_labels_and_rejects_typos() {
        for (v, kind) in [
            ("des", BackendKind::Des),
            ("sim", BackendKind::Des),
            ("event", BackendKind::Des),
            ("analytic", BackendKind::Analytic),
        ] {
            assert_eq!(parse(&[("IPSC_BACKEND", v)]).unwrap().backend, kind);
        }
        let err = parse(&[("IPSC_BACKEND", "analytik")]).unwrap_err();
        assert!(err.contains("IPSC_BACKEND=\"analytik\""), "{err}");
        // Labels are case-sensitive: a near miss is still a typo.
        assert!(parse(&[("IPSC_BACKEND", "DES")]).is_err());
        let err = non_utf8("IPSC_BACKEND").unwrap_err();
        assert!(err.contains("not valid UTF-8"), "{err}");
    }

    #[test]
    fn cost_model_accepts_presets_and_rejects_typos() {
        let config = parse(&[("IPSC_COSTMODEL", "faulty:p=0.05,seed=42")]).unwrap();
        assert_eq!(
            config.cost_model,
            LinkCostModel::parse("faulty:p=0.05,seed=42").unwrap()
        );
        assert!(config.to_string().contains("costmodel=faulty:"), "{config}");
        assert!(parse(&[("IPSC_COSTMODEL", "uniform")])
            .unwrap()
            .cost_model
            .is_uniform());
        let err = parse(&[("IPSC_COSTMODEL", "unifrom")]).unwrap_err();
        assert!(err.starts_with("IPSC_COSTMODEL: "), "{err}");
        let err = non_utf8("IPSC_COSTMODEL").unwrap_err();
        assert!(err.contains("not valid UTF-8"), "{err}");
    }

    #[test]
    fn cache_is_off_memory_or_a_directory() {
        for off in ["off", ""] {
            assert!(parse(&[("IPSC_CACHE", off)]).unwrap().cache.is_none());
        }
        let mem = parse(&[("IPSC_CACHE", "mem")]).unwrap();
        assert!(mem.cache.as_ref().unwrap().persist_dir.is_none());
        assert!(mem.to_string().contains("cache=mem"));
        // Any other value names a store directory; there are no typos.
        let dir = parse(&[("IPSC_CACHE", "results/cache")]).unwrap();
        assert_eq!(
            dir.cache.as_ref().unwrap().persist_dir.as_deref(),
            Some(std::path::Path::new("results/cache"))
        );
        assert!(dir.to_string().contains("cache=results/cache"));
        // A value that is not UTF-8 reads as unset, as it always has.
        assert!(non_utf8("IPSC_CACHE").unwrap().cache.is_none());
    }
}
