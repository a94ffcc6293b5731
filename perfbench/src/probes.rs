//! Out-of-band probes of the layers the search calls internally
//! (`sched`, `align`, `gpusim`), run on the workload's own inputs.

use std::hint::black_box;
use std::time::Instant;

use swdual_core::align::{tiered_score, QueryProfiles, TierStats};
use swdual_core::bio::{ScoringScheme, SequenceSet};
use swdual_core::gpusim::GpuDevice;
use swdual_core::sched::binsearch::{dual_approx_schedule, BinarySearchConfig};
use swdual_core::sched::remainder::reschedule_remainder;
use swdual_core::sched::{PeId, PlatformSpec, Task, TaskSet};

use crate::workload::{Workload, GPU_CLASS};

/// Stand-in time factor for an absent worker species, as the master
/// uses when it builds the task set (`ABSENT_SPECIES_PENALTY`).
const ABSENT_SPECIES_PENALTY: f64 = 1.0e6;

/// DP cells in the single-thread `align` sample.
const ALIGN_SAMPLE_CELLS: u64 = 400_000_000;

/// DP cells the `gpusim` probe scores when the workload gives the
/// device no share of its own (about a second on the seed's gpusim).
const GPU_SAMPLE_CELLS: u64 = 30_000_000;

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time `f` repeatedly (at least 3 times, then until ~0.2 s have been
/// spent or 200 repetitions ran) and return the median seconds.
fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    let budget = Instant::now();
    while times.len() < 3 || (times.len() < 200 && budget.elapsed().as_secs_f64() < 0.2) {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

pub struct SchedProbe {
    pub plan_s: f64,
    pub iterations: usize,
    pub approx_ratio: f64,
    pub replan_s: f64,
    pub orphans: usize,
    /// Tasks (query indices) the plan puts on GPU workers.
    pub gpu_tasks: Vec<usize>,
}

/// The master's task set: per-query times from each species' declared
/// rate model.
fn build_tasks(w: &Workload, queries: &SequenceSet, db_residues: u64) -> TaskSet {
    let workers = w.workers();
    let cpu = workers.iter().find(|s| !s.is_gpu()).map(|s| s.rate_model());
    let gpu = workers.iter().find(|s| s.is_gpu()).map(|s| s.rate_model());
    TaskSet::new(
        queries
            .iter()
            .enumerate()
            .map(|(id, q)| {
                let c = cpu.map(|m| m.task_seconds(q.len(), db_residues));
                let g = gpu.map(|m| m.task_seconds(q.len(), db_residues));
                let (p_cpu, p_gpu) = match (c, g) {
                    (Some(c), Some(g)) => (c, g),
                    (Some(c), None) => (c, c * ABSENT_SPECIES_PENALTY),
                    (None, Some(g)) => (g * ABSENT_SPECIES_PENALTY, g),
                    (None, None) => unreachable!("every workload has a worker"),
                };
                Task::new(id, p_cpu, p_gpu)
            })
            .collect(),
    )
}

/// Plan the workload with the dual approximation, then re-plan the
/// orphans of a crash: the workload's own crash when it has one,
/// otherwise the last worker dying halfway through its queue.
pub fn sched(w: &Workload, queries: &SequenceSet, db_residues: u64) -> SchedProbe {
    let tasks = build_tasks(w, queries, db_residues);
    let platform = PlatformSpec::new(w.cpus, w.gpus);
    let config = BinarySearchConfig::default();
    let plan_s = time_median(|| dual_approx_schedule(&tasks, &platform, config));
    let outcome = dual_approx_schedule(&tasks, &platform, config);

    let pe_of = |worker: usize| {
        if worker < w.gpus {
            PeId::gpu(worker)
        } else {
            PeId::cpu(worker - w.gpus)
        }
    };
    let queue_of = |pe: PeId| {
        let mut q: Vec<(f64, usize)> = outcome
            .schedule
            .placements
            .iter()
            .filter(|p| p.pe == pe)
            .map(|p| (p.start, p.task))
            .collect();
        q.sort_by(|a, b| a.0.total_cmp(&b.0));
        q.into_iter().map(|(_, t)| t).collect::<Vec<_>>()
    };
    let gpu_tasks: Vec<usize> = (0..w.gpus).flat_map(|g| queue_of(PeId::gpu(g))).collect();

    let n_workers = w.cpus + w.gpus;
    let (crashed, after) = w.crash().unwrap_or_else(|| {
        let last = n_workers - 1;
        (last, queue_of(pe_of(last)).len() / 2)
    });
    let crashed_pe = pe_of(crashed);
    let orphans: Vec<usize> = queue_of(crashed_pe).into_iter().skip(after).collect();
    let survivors = if crashed < w.gpus {
        PlatformSpec::new(w.cpus, w.gpus - 1)
    } else {
        PlatformSpec::new(w.cpus - 1, w.gpus)
    };
    let replan_s = if survivors.total() == 0 || orphans.is_empty() {
        0.0
    } else {
        time_median(|| reschedule_remainder(&tasks, &orphans, &survivors, config))
    };
    SchedProbe {
        plan_s,
        iterations: outcome.iterations,
        approx_ratio: outcome.approximation_ratio(),
        replan_s,
        orphans: orphans.len(),
        gpu_tasks,
    }
}

/// A fixed, seed-independent choice of pairs from the workload: the
/// first queries against every `stride`-th database sequence.
pub struct Sample {
    pub queries: Vec<usize>,
    pub subjects: Vec<usize>,
}

impl Sample {
    pub fn of(database: &SequenceSet, queries: &SequenceSet) -> Sample {
        let qs: Vec<usize> = (0..queries.len().min(8)).collect();
        let q_res: u64 = qs
            .iter()
            .map(|&i| queries.get(i).unwrap().len() as u64)
            .sum();
        let full = q_res * database.total_residues();
        let stride = full.div_ceil(ALIGN_SAMPLE_CELLS).max(1) as usize;
        Sample {
            queries: qs,
            subjects: (0..database.len()).step_by(stride).collect(),
        }
    }
}

pub struct AlignProbe {
    pub dp_gcups: f64,
    pub profile_build_s: f64,
    pub byte_resolved_ratio: f64,
}

/// Single-thread tiered scoring over the sample, and query-profile
/// builds over every query.
pub fn align(
    database: &SequenceSet,
    queries: &SequenceSet,
    sample: &Sample,
    scheme: &ScoringScheme,
) -> AlignProbe {
    let profile_build_s = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                for q in queries.iter() {
                    black_box(QueryProfiles::build(black_box(q.codes()), &scheme.matrix));
                }
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let profiles: Vec<QueryProfiles> = sample
        .queries
        .iter()
        .map(|&qi| QueryProfiles::build(queries.get(qi).unwrap().codes(), &scheme.matrix))
        .collect();
    let mut stats = TierStats::default();
    let mut cells = 0u64;
    let t = Instant::now();
    for p in &profiles {
        for &si in &sample.subjects {
            let s = database.get(si).unwrap().codes();
            black_box(tiered_score(p, black_box(s), scheme, &mut stats));
            cells += (p.query.len() * s.len()) as u64;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    AlignProbe {
        dp_gcups: cells as f64 / secs / 1e9,
        profile_build_s,
        byte_resolved_ratio: stats.byte_resolved as f64 / stats.subjects.max(1) as f64,
    }
}

pub struct GpuProbe {
    pub host_mcups: f64,
    pub modelled_s: f64,
    pub wall_over_modelled: f64,
}

/// Drive a simulated device over the plan's GPU share of the workload
/// (or, on a CPU-only mix, over the first sample query against a slice
/// of the sample's subjects): upload the database, then one kernel per
/// query, as a GPU worker does.
pub fn gpusim(
    database: &SequenceSet,
    queries: &SequenceSet,
    gpu_tasks: &[usize],
    sample: &Sample,
    scheme: &ScoringScheme,
) -> GpuProbe {
    let (qs, resident) = if gpu_tasks.is_empty() {
        let q0 = sample.queries[0];
        let q_len = queries.get(q0).unwrap().len() as u64;
        let mut set = SequenceSet::new(database.alphabet);
        let mut cells = 0;
        for &si in &sample.subjects {
            let s = database.get(si).unwrap();
            if cells > 0 && cells + q_len * s.len() as u64 > GPU_SAMPLE_CELLS {
                break;
            }
            cells += q_len * s.len() as u64;
            set.push(s.clone()).expect("same alphabet");
        }
        (vec![q0], set)
    } else {
        (gpu_tasks.to_vec(), database.clone())
    };
    let mut device = GpuDevice::new(GPU_CLASS.spec());
    let clock0 = device.clock();
    let t_all = Instant::now();
    let db = device
        .upload(&resident, true)
        .expect("the probe database fits the device");
    let t_search = Instant::now();
    let mut cells = 0u64;
    for &qi in &qs {
        let q = queries.get(qi).unwrap().codes();
        black_box(device.search(q, &db, scheme));
        cells += q.len() as u64 * resident.total_residues();
    }
    let search_s = t_search.elapsed().as_secs_f64();
    let wall_s = t_all.elapsed().as_secs_f64();
    let modelled_s = device.clock() - clock0;
    GpuProbe {
        host_mcups: cells as f64 / search_s / 1e6,
        modelled_s,
        wall_over_modelled: wall_s / modelled_s,
    }
}
