//! The benchmark's workloads: what each one generates, and how the
//! search is configured to run on it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use swdual_core::bio::fasta::{self, ResiduePolicy};
use swdual_core::bio::{sqb, Alphabet, SequenceSet};
use swdual_core::datagen::{
    queries_from_database, synthetic_database, LengthModel, MutationProfile,
};
use swdual_core::gpusim::DeviceClass;
use swdual_core::runtime::{FaultPlan, WorkerSpec};

/// On-disk format of a workload's database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbFormat {
    Sqb,
    Fasta,
}

/// Full size for the measured runs, tiny for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "full" => Ok(Scale::Full),
            "tiny" => Ok(Scale::Tiny),
            other => Err(format!("unknown scale {other:?} (full|tiny)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// One workload: generated inputs plus the worker mix that searches them.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub db_sequences: usize,
    pub db_format: DbFormat,
    pub queries: usize,
    /// Source-length window of the homolog queries. Narrow windows keep
    /// the work, and so the modelled makespan, nearly seed-independent.
    pub query_len: (usize, usize),
    pub cpus: usize,
    pub gpus: usize,
    pub fault: Option<String>,
}

pub const NAMES: [&str; 4] = ["cpu_bulk", "hybrid_sim", "many_queries", "crash_replan"];

/// Mean database sequence length (gamma-distributed, as UniProt).
const DB_MEAN_LEN: f64 = 350.0;

/// Hits kept per query, the CLI's default.
pub const TOP_K: usize = 10;

/// The simulated device of every GPU worker.
pub const GPU_CLASS: DeviceClass = DeviceClass::C2050;

impl Workload {
    pub fn get(name: &str, scale: Scale) -> Result<Workload, String> {
        let tiny = scale == Scale::Tiny;
        let pick = |full: usize, small: usize| if tiny { small } else { full };
        let many_queries = |name, fault: Option<String>| Workload {
            name,
            db_sequences: pick(300, 60),
            db_format: DbFormat::Sqb,
            queries: pick(1000, 80),
            query_len: (60, 150),
            cpus: 2,
            gpus: 0,
            fault,
        };
        let w = match name {
            "cpu_bulk" => Workload {
                name: "cpu_bulk",
                db_sequences: pick(20_000, 400),
                db_format: DbFormat::Sqb,
                queries: pick(8, 4),
                query_len: (260, 320),
                cpus: 2,
                gpus: 0,
                fault: None,
            },
            "hybrid_sim" => Workload {
                name: "hybrid_sim",
                db_sequences: pick(200, 40),
                db_format: DbFormat::Fasta,
                queries: pick(6, 4),
                query_len: (300, 400),
                cpus: 1,
                gpus: 1,
                fault: None,
            },
            "many_queries" => many_queries("many_queries", None),
            // The many_queries inputs, with the second CPU worker dying
            // (and saying so) when it picks up its 151st job.
            "crash_replan" => {
                many_queries("crash_replan", Some(format!("1:crash@{}", pick(150, 10))))
            }
            other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
        };
        Ok(w)
    }

    /// Worker pool, GPU workers first (the order `SearchBuilder` uses).
    pub fn workers(&self) -> Vec<WorkerSpec> {
        let mut workers = vec![WorkerSpec::device_class(GPU_CLASS); self.gpus];
        workers.extend(std::iter::repeat_with(WorkerSpec::cpu_default).take(self.cpus));
        workers
    }

    pub fn fault_plan(&self) -> FaultPlan {
        match &self.fault {
            Some(spec) => FaultPlan::parse(spec).expect("workload fault plans are well-formed"),
            None => FaultPlan::none(),
        }
    }

    /// `(worker, jobs completed before it crashes)` of the workload's
    /// fault plan, if it has one.
    pub fn crash(&self) -> Option<(usize, usize)> {
        self.fault_plan().iter().find_map(|(w, f)| match f {
            swdual_core::runtime::WorkerFault::Crash { after_jobs, .. } => Some((w, after_jobs)),
            _ => None,
        })
    }

    pub fn db_path(&self, dir: &Path) -> PathBuf {
        match self.db_format {
            DbFormat::Sqb => dir.join("db.sqb"),
            DbFormat::Fasta => dir.join("db.fasta"),
        }
    }

    pub fn queries_path(&self, dir: &Path) -> PathBuf {
        dir.join("queries.fasta")
    }

    /// Write the workload's database and queries for `seed` into `dir`.
    pub fn generate(&self, seed: u64, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let db = synthetic_database(
            "db",
            self.db_sequences,
            LengthModel::protein_database(DB_MEAN_LEN),
            seed,
        );
        let queries = queries_from_database(
            &db,
            self.queries,
            self.query_len.0,
            self.query_len.1,
            &MutationProfile::homolog(),
            seed ^ 0x9e37_79b9_7f4a_7c15,
        );
        let db_path = self.db_path(dir);
        match self.db_format {
            DbFormat::Sqb => sqb::write_file(&db, &db_path),
            DbFormat::Fasta => fasta::write_file(&db, &db_path),
        }
        .map_err(|e| format!("{}: {e}", db_path.display()))?;
        let q_path = self.queries_path(dir);
        fasta::write_file(&queries, &q_path).map_err(|e| format!("{}: {e}", q_path.display()))
    }
}

/// The decoded inputs and what decoding them cost.
pub struct Loaded {
    pub database: SequenceSet,
    pub queries: SequenceSet,
    pub seconds: f64,
    pub bytes: u64,
}

fn read_fasta(path: &Path) -> Result<SequenceSet, String> {
    fasta::read_file(path, Alphabet::Protein, ResiduePolicy::Lossy)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Decode the database and query files into `SequenceSet`s, the way
/// the `swdual` CLI does on every run.
pub fn load(w: &Workload, dir: &Path) -> Result<Loaded, String> {
    let db_path = w.db_path(dir);
    let q_path = w.queries_path(dir);
    let bytes = [&db_path, &q_path]
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()))
        .sum::<std::io::Result<u64>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let start = Instant::now();
    let database = match w.db_format {
        DbFormat::Sqb => sqb::SqbFile::open(&db_path)
            .and_then(|mut f| f.read_all())
            .map_err(|e| format!("{}: {e}", db_path.display()))?,
        DbFormat::Fasta => read_fasta(&db_path)?,
    };
    let queries = read_fasta(&q_path)?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(Loaded {
        database,
        queries,
        seconds,
        bytes,
    })
}
