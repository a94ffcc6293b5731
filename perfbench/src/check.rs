//! Output checks: every reported hit is rescored by the scalar Gotoh
//! oracle, each homolog query's source must rank first, and the
//! modelled clock must repeat bit for bit across searches and across
//! runs of the same code.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use swdual_core::align::scalar::gotoh_score;
use swdual_core::bio::{ScoringScheme, SequenceSet};
use swdual_core::runtime::QueryHits;

/// Index of the database sequence each query was derived from, read
/// back from the `derived from <id>` description the generator writes.
fn query_sources(database: &SequenceSet, queries: &SequenceSet) -> Vec<Option<usize>> {
    let by_id: HashMap<&str, usize> = database
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id.as_str(), i))
        .collect();
    queries
        .iter()
        .map(|q| {
            q.description
                .strip_prefix("derived from ")
                .and_then(|id| by_id.get(id.trim()).copied())
        })
        .collect()
}

/// Problems with one query's hit list, or an empty list.
fn check_query(
    qi: usize,
    qh: &QueryHits,
    database: &SequenceSet,
    queries: &SequenceSet,
    source: Option<usize>,
    scheme: &ScoringScheme,
    top_k: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    if qh.query_index != qi {
        problems.push(format!("query {qi}: hit list labelled {}", qh.query_index));
    }
    let want = top_k.min(database.len());
    if qh.hits.len() != want {
        problems.push(format!("query {qi}: {} hits, want {want}", qh.hits.len()));
    }
    if qh.hits.windows(2).any(|w| w[0].score < w[1].score) {
        problems.push(format!("query {qi}: hits not ranked by score"));
    }
    let query = queries.get(qi).expect("one hit list per query");
    for hit in &qh.hits {
        let Some(subject) = database.get(hit.db_index) else {
            problems.push(format!(
                "query {qi}: hit on missing sequence {}",
                hit.db_index
            ));
            continue;
        };
        let oracle = gotoh_score(query.codes(), subject.codes(), scheme);
        if oracle != hit.score {
            problems.push(format!(
                "query {qi} vs {}: reported score {}, oracle {oracle}",
                subject.id, hit.score
            ));
        }
    }
    match (source, qh.hits.first()) {
        (None, _) => problems.push(format!("query {qi}: source sequence unknown")),
        (Some(src), Some(top)) => {
            // Ties with the top score count as first.
            if !qh
                .hits
                .iter()
                .any(|h| h.db_index == src && h.score == top.score)
            {
                problems.push(format!("query {qi}: source db_{src} does not rank first"));
            }
        }
        (Some(_), None) => {}
    }
    problems
}

/// Rescore every hit with the scalar oracle (on `threads` threads) and
/// check list shape, ranking and that each query's source ranks first.
/// Returns the problems found, empty when the output is right.
pub fn check_hits(
    hits: &[QueryHits],
    database: &SequenceSet,
    queries: &SequenceSet,
    scheme: &ScoringScheme,
    top_k: usize,
    threads: usize,
) -> Vec<String> {
    if hits.len() != queries.len() {
        return vec![format!(
            "{} hit lists for {} queries",
            hits.len(),
            queries.len()
        )];
    }
    let sources = query_sources(database, queries);
    let threads = threads.max(1);
    let mut problems: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sources = &sources;
                scope.spawn(move || {
                    (t..hits.len())
                        .step_by(threads)
                        .flat_map(|qi| {
                            check_query(
                                qi,
                                &hits[qi],
                                database,
                                queries,
                                sources[qi],
                                scheme,
                                top_k,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    problems.sort();
    problems
}

/// Look `key` (workload, scale, seed and code hash) up in the
/// modelled-makespan ledger at `path`. Returns
/// the bits recorded by an earlier run, or records `bits` and returns
/// `None` when this is the first run with that key.
pub fn ledger(path: &Path, key: &str, bits: u64) -> Result<Option<u64>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    for line in text.lines() {
        if let Some((k, v)) = line.split_once(' ') {
            if k == key {
                return u64::from_str_radix(v.trim(), 16)
                    .map(Some)
                    .map_err(|e| format!("{}: bad entry {line:?}: {e}", path.display()));
            }
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{key} {bits:016x}").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swdual_core::datagen::{
        queries_from_database, synthetic_database, LengthModel, MutationProfile,
    };
    use swdual_core::runtime::Hit;

    fn inputs() -> (SequenceSet, SequenceSet) {
        let db = synthetic_database("db", 30, LengthModel::Fixed(60), 3);
        let q = queries_from_database(&db, 3, 1, usize::MAX, &MutationProfile::homolog(), 4);
        (db, q)
    }

    fn true_hits(db: &SequenceSet, q: &SequenceSet, k: usize) -> Vec<QueryHits> {
        let scheme = ScoringScheme::protein_default();
        q.iter()
            .enumerate()
            .map(|(qi, query)| {
                let mut hits: Vec<Hit> = db
                    .iter()
                    .enumerate()
                    .map(|(i, s)| Hit {
                        db_index: i,
                        score: gotoh_score(query.codes(), s.codes(), &scheme),
                    })
                    .collect();
                hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
                hits.truncate(k);
                QueryHits {
                    query_index: qi,
                    hits,
                }
            })
            .collect()
    }

    #[test]
    fn correct_hits_pass() {
        let (db, q) = inputs();
        let hits = true_hits(&db, &q, 5);
        let scheme = ScoringScheme::protein_default();
        assert_eq!(
            check_hits(&hits, &db, &q, &scheme, 5, 2),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_wrong_score_is_caught() {
        let (db, q) = inputs();
        let mut hits = true_hits(&db, &q, 5);
        hits[1].hits[4].score -= 1;
        let scheme = ScoringScheme::protein_default();
        let problems = check_hits(&hits, &db, &q, &scheme, 5, 2);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("oracle"));
    }

    #[test]
    fn a_displaced_source_and_a_short_list_are_caught() {
        let (db, q) = inputs();
        let mut hits = true_hits(&db, &q, 5);
        hits[0].hits.remove(0);
        let scheme = ScoringScheme::protein_default();
        let problems = check_hits(&hits, &db, &q, &scheme, 5, 1);
        assert!(
            problems.iter().any(|p| p.contains("rank first")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("want 5")),
            "{problems:?}"
        );
    }

    #[test]
    fn ledger_records_then_recalls() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.tsv");
        assert_eq!(ledger(&path, "a/1", 7).unwrap(), None);
        assert_eq!(ledger(&path, "b/1", 9).unwrap(), None);
        assert_eq!(ledger(&path, "a/1", 8).unwrap(), Some(7));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
