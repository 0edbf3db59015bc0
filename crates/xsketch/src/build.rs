//! Workload-driven twig-XSketch construction.
//!
//! Per the original XSKETCH/twig-XSKETCH papers (and §6.1 of this one):
//! start from the coarse label-split graph and greedily apply refinement
//! operations — node splits that localize structure — choosing at each
//! round the candidate that most reduces the selectivity-estimation
//! error over a *sample workload* of twig queries with known exact
//! counts. This workload evaluation inside the construction loop is the
//! cost Table 3 contrasts with TSBUILD's workload-independent
//! squared-error objective.
//!
//! Candidate kinds per round, proposed for the highest-potential nodes
//! (largest extent × structural diversity):
//!
//! * **value split** — partition a node's members at the median child
//!   count along its highest-variance outgoing direction (sharpens the
//!   edge histograms);
//! * **parent split** — separate members by their parent-label sets
//!   (moves edges toward B-stability, the XSKETCH `b-stabilize` op).

use crate::estimate::{xs_estimate_selectivity, XsEvalConfig};
use crate::sketch::XSketch;
use axqa_query::TwigQuery;
use axqa_synopsis::{StableSummary, SynNodeId};
use axqa_xml::fxhash::FxHashMap;

/// Build configuration.
#[derive(Debug, Clone)]
pub struct XsBuildConfig {
    /// Target synopsis size in bytes.
    pub budget_bytes: usize,
    /// Number of workload queries evaluated per candidate.
    pub sample_queries: usize,
    /// Candidate splits proposed per round.
    pub candidates_per_round: usize,
    /// Stop after this many rounds without improvement.
    pub patience: usize,
    /// Hard cap on refinement rounds (bounds build time; the paper's
    /// builder has no such cap and its construction times show it).
    pub max_rounds: usize,
}

impl XsBuildConfig {
    /// Defaults mirroring the original study's settings.
    pub fn with_budget(budget_bytes: usize) -> XsBuildConfig {
        XsBuildConfig {
            budget_bytes,
            sample_queries: 30,
            candidates_per_round: 6,
            patience: 12,
            max_rounds: 80,
        }
    }
}

/// What the twig-XSketch refinement did and produced.
#[derive(Debug, Clone)]
pub struct XsBuildReport {
    /// The constructed synopsis.
    pub sketch: XSketch,
    /// Refinement rounds run.
    pub rounds: usize,
    /// `xs_estimate_selectivity` calls over the sample workload: the
    /// per-candidate query evaluation that Table 3 charges to
    /// workload-driven construction and TSBUILD never performs.
    pub sample_estimates: usize,
}

/// Builds a twig-XSketch within the byte budget, guided by a sample
/// workload of `(query, exact selectivity)` pairs.
pub fn build_xsketch(
    stable: &StableSummary,
    workload: &[(TwigQuery, f64)],
    config: &XsBuildConfig,
) -> XSketch {
    build_xsketch_report(stable, workload, config).sketch
}

/// [`build_xsketch`], also reporting how much refinement and sample
/// workload evaluation the build performed.
pub fn build_xsketch_report(
    stable: &StableSummary,
    workload: &[(TwigQuery, f64)],
    config: &XsBuildConfig,
) -> XsBuildReport {
    let (mut partition, mut num_clusters) = XSketch::label_split_partition(stable);
    let parents = stable.parents();
    let sample: Vec<&(TwigQuery, f64)> =
        workload.iter().take(config.sample_queries.max(1)).collect();
    let sanity = sanity_bound(&sample);

    let materialize = |partition: &[u32], n: usize| -> XSketch {
        let structure =
            axqa_synopsis::SizeModel::XSKETCH.bytes(n, estimate_edges(stable, partition), 0);
        let buckets = config.budget_bytes.saturating_sub(structure)
            / axqa_synopsis::SizeModel::XSKETCH.bucket_bytes;
        XSketch::from_partition(stable, partition, n, buckets.max(n))
    };
    let sample_estimates = std::cell::Cell::new(0usize);
    let score = |xs: &XSketch| -> f64 {
        let eval = XsEvalConfig::default();
        let mut total = 0.0;
        for (query, exact) in sample.iter().map(|p| (&p.0, p.1)) {
            sample_estimates.set(sample_estimates.get().saturating_add(1));
            let est = xs_estimate_selectivity(xs, query, &eval);
            total += (exact - est).abs() / est.max(sanity);
        }
        total / sample.len() as f64
    };

    let mut current = materialize(&partition, num_clusters);
    let mut best_err = score(&current);
    let mut stalls = 0usize;
    let mut rounds = 0usize;

    while current.size_bytes() < config.budget_bytes
        && stalls < config.patience
        && rounds < config.max_rounds
    {
        rounds += 1;
        let candidates = propose_splits(stable, &partition, num_clusters, &parents, config);
        if candidates.is_empty() {
            break;
        }
        let mut round_best: Option<(f64, Vec<u32>, usize, XSketch)> = None;
        for (cluster, part_members) in candidates {
            let (new_partition, new_n) =
                apply_split(&partition, num_clusters, cluster, &part_members);
            let xs = materialize(&new_partition, new_n);
            if xs.size_bytes() > config.budget_bytes {
                continue;
            }
            let err = score(&xs);
            if round_best.as_ref().is_none_or(|&(e, _, _, _)| err < e) {
                round_best = Some((err, new_partition, new_n, xs));
            }
        }
        let Some((err, new_partition, new_n, xs)) = round_best else {
            break; // every candidate would overflow the budget
        };
        // The round's best refinement is always applied (the XSKETCH
        // expansion strategy); the sample error only controls the early
        // exit after a run of non-improving rounds.
        partition = new_partition;
        num_clusters = new_n;
        current = xs;
        if err < best_err - 1e-12 {
            best_err = err;
            stalls = 0;
        } else {
            stalls += 1;
        }
    }
    XsBuildReport {
        sketch: current,
        rounds,
        sample_estimates: sample_estimates.get(),
    }
}

fn sanity_bound(sample: &[&(TwigQuery, f64)]) -> f64 {
    let mut counts: Vec<f64> = sample.iter().map(|p| p.1).collect();
    counts.sort_by(f64::total_cmp);
    if counts.is_empty() {
        1.0
    } else {
        counts[counts.len() / 10].max(1.0)
    }
}

/// Edge count of the synopsis a partition induces (distinct
/// (cluster, child-cluster) pairs).
fn estimate_edges(stable: &StableSummary, partition: &[u32]) -> usize {
    let mut edges: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for (s, node) in stable.nodes().iter().enumerate() {
        let from = partition[s];
        for &(t, _) in &node.children {
            edges.insert((from, partition[t.index()]));
        }
    }
    edges.len()
}

/// Proposes `(cluster, members to split off)` candidates.
fn propose_splits(
    stable: &StableSummary,
    partition: &[u32],
    num_clusters: usize,
    parents: &[Vec<(SynNodeId, u32)>],
    config: &XsBuildConfig,
) -> Vec<(u32, Vec<u32>)> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_clusters];
    for (s, &c) in partition.iter().enumerate() {
        members[c as usize].push(axqa_xml::dense_id(s));
    }
    // Rank clusters by refinement potential.
    let mut ranked: Vec<(u64, u32)> = members
        .iter()
        .enumerate()
        .filter(|(_, ms)| ms.len() >= 2)
        .map(|(c, ms)| {
            let extent: u64 = ms.iter().map(|&s| stable.node(SynNodeId(s)).extent).sum();
            (
                extent.saturating_mul(ms.len() as u64),
                axqa_xml::dense_id(c),
            )
        })
        .collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));

    let mut out: Vec<(u32, Vec<u32>)> = Vec::new();
    for &(_, cluster) in ranked.iter() {
        if out.len() >= config.candidates_per_round {
            break;
        }
        let ms = &members[cluster as usize];
        // Value split: median along the highest-variance direction.
        if let Some(part) = value_split(stable, partition, ms) {
            out.push((cluster, part));
        }
        if out.len() >= config.candidates_per_round {
            break;
        }
        // Parent split: separate the largest parent-label group.
        if let Some(part) = parent_split(stable, partition, ms, parents) {
            out.push((cluster, part));
        }
    }
    out
}

fn value_split(stable: &StableSummary, partition: &[u32], members: &[u32]) -> Option<Vec<u32>> {
    // Per-member total child count into each target cluster; find the
    // direction with the largest weighted variance.
    let mut per_target: FxHashMap<u32, (f64, f64, f64)> = FxHashMap::default(); // (n, Σk, Σk²)
    let mut ks: Vec<FxHashMap<u32, u64>> = Vec::with_capacity(members.len());
    for &s in members {
        let node = stable.node(SynNodeId(s));
        let mut k: FxHashMap<u32, u64> = FxHashMap::default();
        for &(t, c) in &node.children {
            let slot = k.entry(partition[t.index()]).or_insert(0);
            *slot = slot.saturating_add(u64::from(c));
        }
        let w = node.extent as f64;
        for (&t, &c) in &k {
            let e = per_target.entry(t).or_insert((0.0, 0.0, 0.0));
            e.0 += w;
            e.1 += w * c as f64;
            e.2 += w * c as f64 * c as f64;
        }
        ks.push(k);
    }
    let total_w: f64 = members
        .iter()
        .map(|&s| stable.node(SynNodeId(s)).extent as f64)
        .sum();
    // total_cmp plus the key tie-break makes the winner independent of
    // the map's iteration order even when variances tie exactly.
    let (&target, _) = per_target.iter().max_by(|a, b| {
        let var = |(_, &(_, sum, sum2)): &(&u32, &(f64, f64, f64))| sum2 - sum * sum / total_w;
        var(a).total_cmp(&var(b)).then_with(|| a.0.cmp(b.0))
    })?;
    let mut keyed: Vec<(u64, u32)> = members
        .iter()
        .zip(&ks)
        .map(|(&s, k)| (k.get(&target).copied().unwrap_or(0), s))
        .collect();
    keyed.sort_unstable();
    let mid = keyed.len() / 2;
    let mut cut = mid.max(1);
    while cut < keyed.len() && keyed[cut].0 == keyed[cut - 1].0 {
        cut += 1;
    }
    if cut >= keyed.len() {
        cut = 1;
        while cut < keyed.len() && keyed[cut].0 == keyed[0].0 {
            cut += 1;
        }
        if cut >= keyed.len() {
            return None; // all equal along every direction examined
        }
    }
    Some(keyed[..cut].iter().map(|&(_, s)| s).collect())
}

fn parent_split(
    _stable: &StableSummary,
    partition: &[u32],
    members: &[u32],
    parents: &[Vec<(SynNodeId, u32)>],
) -> Option<Vec<u32>> {
    let mut groups: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
    for &s in members {
        let mut parent_clusters: Vec<u32> = parents[s as usize]
            .iter()
            .map(|&(p, _)| partition[p.index()])
            .collect();
        parent_clusters.sort_unstable();
        parent_clusters.dedup();
        groups.entry(parent_clusters).or_default().push(s);
    }
    if groups.len() < 2 {
        return None;
    }
    groups
        .into_values()
        .max_by_key(|g| g.len())
        .filter(|g| g.len() < members.len())
}

fn apply_split(
    partition: &[u32],
    num_clusters: usize,
    cluster: u32,
    split_off: &[u32],
) -> (Vec<u32>, usize) {
    let mut new_partition = partition.to_vec();
    let new_id = axqa_xml::dense_id(num_clusters);
    for &s in split_off {
        debug_assert_eq!(partition[s as usize], cluster);
        new_partition[s as usize] = new_id;
    }
    (new_partition, num_clusters + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axqa_eval::{selectivity, DocIndex};
    use axqa_query::parse_twig;
    use axqa_synopsis::build_stable;
    use axqa_xml::parse_document;

    fn doc_with_structure() -> axqa_xml::Document {
        // a's under r have b children; a's under d have c children —
        // the label-split graph confuses them.
        let mut src = String::from("<r>");
        for _ in 0..4 {
            src.push_str("<a><b/><b/></a>");
        }
        for _ in 0..4 {
            src.push_str("<d><a><c/></a></d>");
        }
        src.push_str("</r>");
        parse_document(&src).unwrap()
    }

    fn workload(doc: &axqa_xml::Document) -> Vec<(TwigQuery, f64)> {
        let index = DocIndex::build(doc);
        [
            "q1: q0 /a\nq2: q1 /b",
            "q1: q0 //d/a\nq2: q1 /c",
            "q1: q0 //a[b]",
        ]
        .iter()
        .map(|t| {
            let q = parse_twig(t).unwrap();
            let s = selectivity(doc, &index, &q);
            (q, s)
        })
        .collect()
    }

    #[test]
    fn refinement_improves_workload_error() {
        let doc = doc_with_structure();
        let stable = build_stable(&doc);
        let wl = workload(&doc);
        let coarse = {
            let (p, n) = XSketch::label_split_partition(&stable);
            XSketch::from_partition(&stable, &p, n, 8)
        };
        let refined = build_xsketch(&stable, &wl, &XsBuildConfig::with_budget(4096));
        let err = |xs: &XSketch| -> f64 {
            wl.iter()
                .map(|(q, exact)| {
                    let est = xs_estimate_selectivity(xs, q, &XsEvalConfig::default());
                    (exact - est).abs() / est.max(1.0)
                })
                .sum::<f64>()
                / wl.len() as f64
        };
        assert!(
            err(&refined) <= err(&coarse) + 1e-12,
            "refined {} vs coarse {}",
            err(&refined),
            err(&coarse)
        );
        assert!(refined.size_bytes() <= 4096);
    }

    #[test]
    fn tiny_budget_stays_at_label_split() {
        let doc = doc_with_structure();
        let stable = build_stable(&doc);
        let wl = workload(&doc);
        let xs = build_xsketch(&stable, &wl, &XsBuildConfig::with_budget(1));
        assert_eq!(xs.len(), doc.labels().len());
    }

    #[test]
    fn splits_are_label_respecting_partitions() {
        let doc = doc_with_structure();
        let stable = build_stable(&doc);
        let wl = workload(&doc);
        let xs = build_xsketch(&stable, &wl, &XsBuildConfig::with_budget(8192));
        // Every node's extent is non-empty and counts add up.
        let total: u64 = xs.nodes().iter().map(|n| n.count).sum();
        assert_eq!(total, doc.len() as u64);
    }
}
