//! Deterministic interleaving property of the master state machine.
//!
//! A scripted world drives [`Master`] with no threads and no sleeps:
//! workers complete their jobs in random orders, crash with notice,
//! vanish silently (found by a dead-at-send or by a deadline), stall and
//! deliver late duplicates, and the clock jumps past every deadline.
//! Under `DualApprox` with re-optimization off and on, and under
//! `SelfScheduling`, the property checks:
//!
//! * every task completes exactly once, with the hits of the fault-free
//!   interleaving, and no job is ever sent for a task already done;
//! * `AllWorkersDead` arises only when the script stopped every worker,
//!   `RetriesExhausted` only when the script's faults outnumber the
//!   retry budget;
//! * under the static policies, after every transition, each undone task
//!   is in exactly one place: in flight, or in one live worker's queue;
//! * the run ends within a bounded number of steps.

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;
use swdual_runtime::master::{
    AllocationPolicy, Master, Outbox, ReoptConfig, RuntimeConfig, SearchError, SearchOutcome,
};
use swdual_runtime::messages::{
    FailureReason, Job, JobResult, QueryHits, Registration, WorkerFailure,
};
use swdual_runtime::WorkerSpec;
use swdual_sched::dual::KnapsackMethod;

const DB_RESIDUES: u64 = 2_000;
const DB_SEQS: usize = 6;
/// A clock jump past any deadline the master can set on these inputs.
const FAR: Duration = Duration::from_secs(1_000_000);

/// One scripted event. The index picks among the workers the event can
/// apply to (modulo their count); an event with no candidate is skipped.
#[derive(Debug, Clone)]
enum Op {
    /// A running worker finishes its oldest job.
    Complete(usize),
    /// A worker dies and says so, naming the job it held.
    Crash(usize),
    /// A worker dies silently: its jobs are lost and its queue closes,
    /// so the master finds out at its next send or by deadline.
    Vanish(usize),
    /// A running worker stops answering but keeps its jobs.
    Stall(usize),
    /// A stalled worker delivers its oldest job, possibly a duplicate.
    Late(usize),
    /// The clock jumps past every deadline.
    Tick,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..29, any::<usize>()).prop_map(|(kind, i)| match kind {
        0..=19 => Op::Complete(i),
        20 => Op::Crash(i),
        21 => Op::Vanish(i),
        22 | 23 => Op::Stall(i),
        24..=27 => Op::Late(i),
        _ => Op::Tick,
    })
}

#[derive(Debug, Clone)]
struct Case {
    specs: Vec<WorkerSpec>,
    /// Modelled-time multiplier each worker reports (what makes
    /// re-optimization fire).
    slow: Vec<f64>,
    query_lens: Vec<usize>,
    config: RuntimeConfig,
}

fn case() -> impl Strategy<Value = Case> {
    (
        1usize..4,
        0usize..3,
        prop::collection::vec(10usize..300, 1..17),
        prop::collection::vec(prop::sample::select(vec![1.0, 1.0, 3.0]), 5..6),
        0usize..3,
        1usize..4,
    )
        .prop_map(|(cpus, gpus, query_lens, slow, policy, retries)| {
            let mut specs = vec![WorkerSpec::cpu_default(); cpus];
            specs.extend(vec![WorkerSpec::gpu_default(); gpus]);
            let (policy, reopt) = match policy {
                0 => (AllocationPolicy::DualApprox(KnapsackMethod::Greedy), false),
                1 => (AllocationPolicy::DualApprox(KnapsackMethod::Greedy), true),
                _ => (AllocationPolicy::SelfScheduling, false),
            };
            Case {
                slow: slow[..specs.len()].to_vec(),
                specs,
                query_lens,
                config: RuntimeConfig {
                    policy,
                    reopt: ReoptConfig {
                        enabled: reopt,
                        ..ReoptConfig::default()
                    },
                    top_k: 3,
                    max_task_retries: retries,
                    min_job_timeout: Duration::from_secs(1),
                    ..RuntimeConfig::default()
                },
            }
        })
}

/// The scores a worker reports for task `t`: any pure function of the
/// task will do.
fn scores(t: usize) -> Vec<i32> {
    (0..DB_SEQS)
        .map(|d| ((t * 31 + d * 17) % 23) as i32)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Life {
    Running,
    Stalled,
    Gone,
}

/// The workers as the script sees them; the fake outbox writes into it.
struct World {
    life: Vec<Life>,
    /// Jobs each worker holds, oldest first.
    inbox: Vec<VecDeque<usize>>,
    /// The self-scheduling queue.
    shared: VecDeque<usize>,
    /// Tasks whose first result reached the master.
    done: Vec<bool>,
}

struct FakeOutbox(Rc<RefCell<World>>);

impl Outbox for FakeOutbox {
    fn send(&mut self, to: Option<usize>, job: Job) -> bool {
        let mut world = self.0.borrow_mut();
        let t = job.task_id;
        assert!(!world.done[t], "task {t} sent after it completed");
        match to {
            Some(w) if world.life[w] == Life::Gone => false,
            Some(w) => {
                world.inbox[w].push_back(t);
                true
            }
            None if world.life.iter().all(|&l| l == Life::Gone) => false,
            None => {
                world.shared.push_back(t);
                true
            }
        }
    }
}

struct Sim<'a> {
    case: &'a Case,
    master: Master<FakeOutbox>,
    world: Rc<RefCell<World>>,
    now: Duration,
    shared: bool,
    /// Workers the script stopped (stalled, vanished or crashed).
    stopped: Vec<bool>,
    /// Self-scheduling stalls the script caused.
    stalls: usize,
    /// First results delivered per worker.
    firsts: Vec<usize>,
}

struct Run {
    outcome: Result<SearchOutcome, SearchError>,
    /// Worker deaths and stalls the script caused: the most re-dispatch
    /// rounds any one task can have been through.
    faults: usize,
    every_worker_stopped: bool,
    firsts: Vec<usize>,
}

impl Sim<'_> {
    fn new(case: &Case, gone_at_start: Option<usize>) -> Sim<'_> {
        let n = case.specs.len();
        let world = Rc::new(RefCell::new(World {
            life: vec![Life::Running; n],
            inbox: vec![VecDeque::new(); n],
            shared: VecDeque::new(),
            done: vec![false; case.query_lens.len()],
        }));
        let mut stopped = vec![false; n];
        if let Some(w) = gone_at_start {
            world.borrow_mut().life[w % n] = Life::Gone;
            stopped[w % n] = true;
        }
        let registrations: Vec<Registration> = case
            .specs
            .iter()
            .enumerate()
            .map(|(worker_id, s)| Registration {
                worker_id,
                description: s.description(),
                is_gpu: s.is_gpu(),
                rate_model: s.rate_model(),
            })
            .collect();
        let master = Master::new(
            &case.specs,
            &registrations,
            case.query_lens.clone(),
            DB_RESIDUES,
            &case.config,
            FakeOutbox(Rc::clone(&world)),
            Duration::ZERO,
        )
        .expect("every worker registered");
        let sim = Sim {
            case,
            master,
            world,
            now: Duration::ZERO,
            shared: case.config.policy == AllocationPolicy::SelfScheduling,
            stopped,
            stalls: 0,
            firsts: vec![0; n],
        };
        sim.check_placement();
        sim
    }

    fn with_life(&self, life: Life) -> Vec<usize> {
        let world = self.world.borrow();
        (0..world.life.len())
            .filter(|&w| world.life[w] == life)
            .collect()
    }

    /// Running workers that have a job to finish.
    fn runnable(&self) -> Vec<usize> {
        let world = self.world.borrow();
        (0..world.life.len())
            .filter(|&w| world.life[w] == Life::Running)
            .filter(|&w| !world.inbox[w].is_empty() || (self.shared && !world.shared.is_empty()))
            .collect()
    }

    /// The job worker `w` takes next: its oldest, or under
    /// self-scheduling the head of the shared queue.
    fn take(&self, w: usize) -> Option<usize> {
        let mut world = self.world.borrow_mut();
        world.inbox[w].pop_front().or_else(|| {
            if self.shared {
                world.shared.pop_front()
            } else {
                None
            }
        })
    }

    fn deliver(&mut self, w: usize, t: usize) {
        {
            let mut world = self.world.borrow_mut();
            if !world.done[t] {
                world.done[t] = true;
                self.firsts[w] += 1;
            }
        }
        let len = self.case.query_lens[t];
        let modelled = self.case.specs[w]
            .rate_model()
            .task_seconds(len, DB_RESIDUES)
            * self.case.slow[w];
        let result = JobResult {
            task_id: t,
            worker_id: w,
            scores: scores(t),
            wall_seconds: 1e-4,
            modelled_seconds: modelled,
            cells: len as u64 * DB_RESIDUES,
        };
        self.master.on_completed(result, self.now);
    }

    fn stop(&mut self, w: usize, life: Life) {
        let mut world = self.world.borrow_mut();
        world.life[w] = life;
        if life == Life::Gone {
            world.inbox[w].clear();
        }
        self.stopped[w] = true;
    }

    fn tick(&mut self) {
        if self.shared {
            self.stalls += 1;
        } else {
            // A running worker still holding a job when the clock jumps
            // past its deadline was a straggler: the script stalled it.
            for w in self.runnable() {
                self.stop(w, Life::Stalled);
            }
        }
        self.now += FAR;
        self.master.on_tick(self.now);
    }

    fn apply(&mut self, op: &Op) {
        self.now += Duration::from_millis(1);
        let pick = |c: Vec<usize>, i: usize| (!c.is_empty()).then(|| c[i % c.len()]);
        let mut alive = self.with_life(Life::Running);
        alive.extend(self.with_life(Life::Stalled));
        match *op {
            Op::Complete(i) => {
                if let Some(w) = pick(self.runnable(), i) {
                    let t = self.take(w).expect("runnable worker has a job");
                    self.deliver(w, t);
                }
            }
            Op::Late(i) => {
                if let Some(w) = pick(self.with_life(Life::Stalled), i) {
                    if let Some(t) = self.take(w) {
                        self.deliver(w, t);
                    }
                }
            }
            Op::Crash(i) => {
                if let Some(w) = pick(alive, i) {
                    let held = self.take(w);
                    self.stop(w, Life::Gone);
                    let reason = if self.case.specs[w].is_gpu() {
                        FailureReason::DeviceFault { after_kernels: 0 }
                    } else {
                        FailureReason::Crash
                    };
                    let failure = WorkerFailure {
                        worker_id: w,
                        reason,
                        in_flight: held,
                    };
                    self.master.on_failed(failure, self.now);
                }
            }
            Op::Vanish(i) => {
                if let Some(w) = pick(alive, i) {
                    let _lost = self.take(w);
                    self.stop(w, Life::Gone);
                }
            }
            Op::Stall(i) => {
                if let Some(w) = pick(self.with_life(Life::Running), i) {
                    if let Some(t) = self.take(w) {
                        self.world.borrow_mut().inbox[w].push_front(t);
                    }
                    self.stop(w, Life::Stalled);
                }
            }
            Op::Tick => self.tick(),
        }
        self.check_placement();
    }

    /// Static policies: each undone task is in flight on, or queued on,
    /// exactly one live worker.
    fn check_placement(&self) {
        if self.shared || self.master.is_finished() {
            return;
        }
        let world = self.world.borrow();
        for t in (0..world.done.len()).filter(|&t| !world.done[t]) {
            let places: usize = (0..world.life.len())
                .filter(|&w| self.master.is_alive(w))
                .map(|w| {
                    usize::from(self.master.in_flight(w) == Some(t))
                        + self.master.queue(w).iter().filter(|&&q| q == t).count()
                })
                .sum();
            assert_eq!(places, 1, "undone task {t} is in {places} places");
        }
    }

    /// Play `script`, then let the running workers finish and the clock
    /// advance until the master is done.
    fn run(mut self, script: &[Op]) -> Run {
        for op in script {
            if self.master.is_finished() {
                break;
            }
            self.apply(op);
        }
        let c = &self.case.config;
        let bound =
            (self.case.query_lens.len() + self.case.specs.len() + 1) * (c.max_task_retries + 2) * 2;
        let mut steps = 0;
        while !self.master.is_finished() {
            steps += 1;
            assert!(steps <= bound, "no end after {bound} steps");
            // Stragglers the master gave up on deliver their late
            // results once nothing else can move.
            let given_up = self
                .with_life(Life::Stalled)
                .into_iter()
                .position(|w| !self.master.is_alive(w) && !self.world.borrow().inbox[w].is_empty());
            let next = match (self.runnable().is_empty(), given_up) {
                (false, _) => Op::Complete(0),
                (true, Some(i)) => Op::Late(i),
                (true, None) => Op::Tick,
            };
            self.apply(&next);
        }
        Run {
            outcome: self.master.finish(),
            faults: self.stopped.iter().filter(|&&s| s).count() + self.stalls,
            every_worker_stopped: self.stopped.iter().all(|&s| s),
            firsts: self.firsts,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_interleaving_completes_each_task_once_or_fails_for_cause(
        case in case(),
        script in prop::collection::vec(op(), 0..40),
        gone_at_start in (0usize..25).prop_map(|w| (w < 5).then_some(w)),
    ) {
        let reference = Sim::new(&case, None).run(&[]).outcome.expect("fault-free run");
        let n = case.query_lens.len();
        prop_assert_eq!(reference.hits.len(), n);
        let run = Sim::new(&case, gone_at_start).run(&script);
        match run.outcome {
            Ok(outcome) => {
                let hits: &[QueryHits] = &outcome.hits;
                prop_assert_eq!(hits, &reference.hits[..]);
                let tasks: Vec<usize> = outcome.worker_stats.iter().map(|s| s.tasks).collect();
                prop_assert_eq!(&tasks, &run.firsts);
                prop_assert_eq!(tasks.iter().sum::<usize>(), n);
            }
            Err(SearchError::AllWorkersDead { total, .. }) => {
                prop_assert_eq!(total, n);
                prop_assert!(run.every_worker_stopped, "platform lost with a worker running");
            }
            Err(SearchError::RetriesExhausted { retries, .. }) => {
                prop_assert!(retries > case.config.max_task_retries);
                prop_assert!(
                    run.faults >= retries,
                    "{retries} re-dispatches from {} faults",
                    run.faults
                );
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}
