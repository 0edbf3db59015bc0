//! Seeded input generators: the documents and the distinct query streams
//! every workload runs on. The program under test only ever sees their
//! output (XML text and twig-query text).

use axqa_datagen::workload::{negative_workload, positive_workload, WorkloadConfig};
use axqa_datagen::{generate, Dataset, GenConfig};
use axqa_synopsis::StableSummary;
use std::collections::HashSet;

/// SplitMix64 finalizer: decorrelates derived seeds (per chunk, per
/// generator) from the run's `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compact XML text of a synthetic dataset document of about `elements`
/// elements.
pub fn dataset_text(dataset: Dataset, elements: usize, seed: u64) -> String {
    let doc = generate(
        dataset,
        &GenConfig {
            target_elements: elements,
            seed: mix(seed, 1),
        },
    );
    axqa_xml::write::write_document(&doc)
}

/// One twig query of a stream: its text (what the program parses) and
/// whether the generator made it as a positive (non-empty) query.
#[derive(Debug, Clone)]
pub struct StreamQuery {
    pub text: String,
    pub positive: bool,
}

/// A stream of distinct twig queries over one document, generated from
/// `axqa_datagen::workload`, deduplicated by text and shuffled.
///
/// The generator repeats itself often (about half of 25,000 XMark
/// queries are duplicates), and the queries that survive deduplication
/// late are the rarer, larger ones. So the pool is generated up front
/// and shuffled, which gives every prefix of the stream the same query
/// mix however far a run gets. A run that outgrows the pool extends it
/// chunk by chunk.
#[derive(Debug)]
pub struct QueryStream {
    seed: u64,
    /// One negative (provably empty) query per this many positive ones;
    /// 0 means positive queries only.
    negative_every: usize,
    chunk: u64,
    seen: HashSet<String>,
    pub queries: Vec<StreamQuery>,
}

/// Positive candidates generated per chunk.
const CHUNK_POSITIVE: usize = 20_000;
/// Chunks that may add nothing new before the stream counts as
/// exhausted.
const MAX_BARREN_CHUNKS: u32 = 4;

impl QueryStream {
    pub fn new(seed: u64, negative_every: usize) -> QueryStream {
        QueryStream {
            seed,
            negative_every,
            chunk: 0,
            seen: HashSet::new(),
            queries: Vec::new(),
        }
    }

    /// Grows the stream to at least `len` queries, shuffling what it
    /// adds; returns false when the generator stops producing new
    /// distinct queries first.
    pub fn fill_to(&mut self, stable: &StableSummary, len: usize) -> bool {
        let start = self.queries.len();
        let mut barren = 0;
        let mut positive = 0;
        while self.queries.len() < len {
            let before = self.queries.len();
            positive += self.add_chunk(stable);
            if self.queries.len() == before {
                barren += 1;
                if barren >= MAX_BARREN_CHUNKS {
                    break;
                }
            }
        }
        if self.negative_every > 0 && positive > 0 {
            self.chunk += 1;
            let negative = negative_workload(
                stable,
                &WorkloadConfig {
                    count: positive.div_ceil(self.negative_every),
                    seed: mix(self.seed, 100 + self.chunk),
                    ..WorkloadConfig::default()
                },
            );
            for query in negative {
                self.push(query.to_string(), false);
            }
        }
        shuffle(&mut self.queries[start..], mix(self.seed, self.chunk));
        self.queries.len() >= len
    }

    /// Adds one chunk of positive queries; returns how many were new.
    fn add_chunk(&mut self, stable: &StableSummary) -> usize {
        self.chunk += 1;
        let config = WorkloadConfig {
            count: CHUNK_POSITIVE,
            seed: mix(self.seed, 100 + self.chunk),
            max_extra_vars: 4,
            ..WorkloadConfig::default()
        };
        let before = self.queries.len();
        for query in positive_workload(stable, &config) {
            self.push(query.to_string(), true);
        }
        self.queries.len() - before
    }

    fn push(&mut self, text: String, positive: bool) {
        if self.seen.insert(text.clone()) {
            self.queries.push(StreamQuery { text, positive });
        }
    }
}

/// Seeded Fisher-Yates shuffle driven by SplitMix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let bound = u64::try_from(i + 1).unwrap_or(u64::MAX);
        let j = usize::try_from(mix(state, 0) % bound).unwrap_or(0);
        items.swap(i, j);
    }
}

/// Share of distinct texts among `texts` (1.0 when nothing repeats).
pub fn distinct_share<'a>(texts: impl Iterator<Item = &'a str>) -> f64 {
    let mut seen = HashSet::new();
    let mut total = 0usize;
    for text in texts {
        total += 1;
        seen.insert(text);
    }
    if total == 0 {
        1.0
    } else {
        seen.len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_stream_has_no_repeats_and_is_seeded() {
        let text = dataset_text(Dataset::XMark, 5_000, 3);
        let doc = axqa_xml::parse::parse_document(&text).unwrap();
        let stable = axqa_synopsis::build_stable(&doc);
        let mut stream = QueryStream::new(9, 8);
        assert!(stream.fill_to(&stable, 3_000));
        assert!(stream.fill_to(&stable, 4_000));
        let texts = || stream.queries.iter().map(|q| q.text.as_str());
        assert_eq!(distinct_share(texts()), 1.0);
        assert!(stream.queries.iter().any(|q| !q.positive));
        let mut again = QueryStream::new(9, 8);
        assert!(again.fill_to(&stable, 3_000));
        assert!(again.fill_to(&stable, 4_000));
        assert!(texts()
            .zip(again.queries.iter().map(|q| q.text.as_str()))
            .all(|(a, b)| a == b));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..1000).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        assert_ne!(a, (0..1000).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_share_counts_repeats() {
        assert_eq!(distinct_share(["a", "b", "a", "c"].into_iter()), 0.75);
    }
}
