//! Robustness on an oversubscribed host: a fault-free hybrid search
//! with 2 CPU and 2 simulated-GPU workers runs five busy threads (the
//! master plus four workers), more than a small CI host has cores.
//! With the watchdog armed, contention alone must never make a healthy
//! worker look dead or straggling, nor make the master re-dispatch a
//! task; and the hits must equal a CPU-only run of the same inputs.

use swdual_core::prelude::*;

fn workload() -> (SequenceSet, SequenceSet) {
    let database = swdual_core::datagen::synthetic_database(
        "busy",
        120,
        swdual_core::datagen::LengthModel::Fixed(150),
        21,
    );
    let queries = swdual_core::datagen::queries_from_database(
        &database,
        16,
        1,
        usize::MAX,
        &swdual_core::datagen::MutationProfile::homolog(),
        22,
    );
    (database, queries)
}

#[test]
fn oversubscribed_hybrid_run_raises_no_false_alarms() {
    let (database, queries) = workload();
    let obs = Obs::enabled();
    let report = SearchBuilder::new()
        .database(database.clone())
        .queries(queries.clone())
        .hybrid_workers(2, 2)
        .top_k(5)
        .observability(obs.clone())
        .watchdog(swdual_obs::watch::WatchConfig::default())
        .run();

    let events = obs.events();
    for name in ["alert_worker_dead", "alert_straggler", "task_redispatch"] {
        let fired = events.iter().filter(|e| e.name == name).count();
        assert_eq!(fired, 0, "{name} fired {fired} time(s) on a fault-free run");
    }
    let redispatched = obs
        .counters()
        .iter()
        .find(|(name, _)| name == "tasks_redispatched")
        .map_or(0.0, |(_, v)| *v);
    assert_eq!(redispatched, 0.0);
    assert!(
        report
            .worker_stats()
            .iter()
            .any(|w| w.tasks > 0 && w.description.starts_with("GPU")),
        "the GPU-sim workers must take part"
    );

    let cpu_only = SearchBuilder::new()
        .database(database)
        .queries(queries)
        .hybrid_workers(1, 0)
        .top_k(5)
        .run();
    assert_eq!(report.hits(), cpu_only.hits());
}
