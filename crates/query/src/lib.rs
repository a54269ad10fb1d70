//! Read-optimized query layer over a frozen [`StudyArtifact`].
//!
//! A production deployment serves footprint queries — "which ASes host HG
//! X in month Y?", "growth curve for AS Z", "coverage of population P" —
//! to many users at interactive latency. The interned columnar artifact is
//! already the right shape for that: [`FrozenStudy::load`] makes one pass
//! over the artifact and freezes the per-HG confirmed/candidate AS sets
//! into two flat sorted-integer columns with a shared offset table, so
//! every query is an O(1) slice or an O(log n) binary search — no
//! hashing, no allocation, no locks. `benches/query.rs` in
//! `offnet-bench` drives the point-query path with a load generator
//! (`BENCH_query.json` tracks p50/p99 latency and sustained
//! queries/sec).

use hgsim::{Hg, ALL_HGS};
use offnet_core::{read_artifact_payload, ArtifactError, ArtifactTables, StudyArtifact};
use std::path::Path;
use timebase::Snapshot;

/// A ragged 2-D array of sorted integers: cell `c` is
/// `values[offsets[c] .. offsets[c + 1]]`. One contiguous allocation per
/// column, so cell access is a bounds check and a slice.
#[derive(Debug, Clone, Default)]
struct Ragged {
    /// `cells + 1` entries; monotonically non-decreasing.
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Ragged {
    fn push_cell(&mut self, values: impl IntoIterator<Item = u32>) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.values.extend(values);
        self.offsets.push(self.values.len() as u32);
    }

    fn cell(&self, c: usize) -> &[u32] {
        &self.values[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    fn len(&self, c: usize) -> usize {
        (self.offsets[c + 1] - self.offsets[c]) as usize
    }
}

/// A study's results frozen into flat integer tables, ready to serve.
///
/// Cells are snapshot-major: `row * ALL_HGS.len() + hg_index`, where a
/// *row* is a position in the artifact's processed-snapshot list (not a
/// raw snapshot index — engines with partial coverage have fewer rows
/// than months).
#[derive(Debug, Clone)]
pub struct FrozenStudy {
    engine: scanner::EngineId,
    /// Snapshot index per row, ascending.
    snapshot_idxs: Vec<u32>,
    /// `2013-10`-style month label per row.
    labels: Vec<String>,
    confirmed: Ragged,
    candidate: Ragged,
    netflix: [Vec<u64>; 3],
}

/// A population of users to measure coverage over: `(AS number, users)`.
pub type Population<'a> = &'a [(u32, u64)];

impl FrozenStudy {
    /// Load an artifact file and freeze it. Any valid artifact is served,
    /// whatever config fingerprint it carries.
    ///
    /// This is the borrowed-load path: the envelope is read and
    /// checksummed once, then [`ArtifactTables`] makes a single skipping
    /// pass that exposes the confirmed/candidate columns as raw slices of
    /// the payload buffer — no symbol pool, no `BTreeSet`s, no
    /// `SnapshotResult` materialization — and the query tables are built
    /// straight from those slices. Equivalent to
    /// `freeze(&StudyArtifact::load(path)?)`, which `tests` pin.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let (_fingerprint, payload) = read_artifact_payload(path)?;
        let tables = ArtifactTables::parse(&payload, path)?;
        Ok(Self::from_tables(&tables))
    }

    /// Freeze borrowed artifact tables into owned query tables.
    fn from_tables(tables: &ArtifactTables<'_>) -> Self {
        let mut confirmed = Ragged::default();
        let mut candidate = Ragged::default();
        let snapshot_idxs = tables.snapshot_idxs().to_vec();
        let labels = snapshot_idxs
            .iter()
            .map(|&idx| month_label(idx as usize))
            .collect();
        for cell in 0..tables.n_rows() * ALL_HGS.len() {
            confirmed.push_cell(tables.confirmed_cell(cell));
            candidate.push_cell(tables.candidate_cell(cell));
        }
        let nf = tables.netflix_columns();
        FrozenStudy {
            engine: tables.engine(),
            snapshot_idxs,
            labels,
            confirmed,
            candidate,
            netflix: [nf[0].clone(), nf[1].clone(), nf[2].clone()],
        }
    }

    /// Freeze a loaded artifact into query tables: one pass, two flat
    /// columns (confirmed/candidate) plus the Netflix variant series.
    pub fn freeze(artifact: &StudyArtifact) -> Self {
        let mut confirmed = Ragged::default();
        let mut candidate = Ragged::default();
        let mut snapshot_idxs = Vec::with_capacity(artifact.snapshots.len());
        let mut labels = Vec::with_capacity(artifact.snapshots.len());
        for snap in &artifact.snapshots {
            snapshot_idxs.push(snap.snapshot_idx as u32);
            labels.push(month_label(snap.snapshot_idx));
            for hg in ALL_HGS {
                // A BTreeSet iterates ascending, so each cell lands sorted
                // and `hosts` can binary-search it.
                let cell = snap.per_hg.get(&hg);
                confirmed.push_cell(
                    cell.map(|h| &h.confirmed_ases)
                        .into_iter()
                        .flatten()
                        .map(|a| a.0),
                );
                candidate.push_cell(
                    cell.map(|h| &h.candidate_ases)
                        .into_iter()
                        .flatten()
                        .map(|a| a.0),
                );
            }
        }
        let col = |v: &[usize]| v.iter().map(|&n| n as u64).collect();
        FrozenStudy {
            engine: artifact.engine,
            snapshot_idxs,
            labels,
            confirmed,
            candidate,
            netflix: [
                col(&artifact.netflix.initial),
                col(&artifact.netflix.with_expired),
                col(&artifact.netflix.with_non_tls),
            ],
        }
    }

    pub fn engine(&self) -> scanner::EngineId {
        self.engine
    }

    /// Number of processed snapshots (query rows).
    pub fn n_rows(&self) -> usize {
        self.snapshot_idxs.len()
    }

    /// Month label for a row (`2013-10` style).
    pub fn label(&self, row: usize) -> &str {
        &self.labels[row]
    }

    /// Raw snapshot index for a row.
    pub fn snapshot_idx(&self, row: usize) -> usize {
        self.snapshot_idxs[row] as usize
    }

    /// Row holding a raw snapshot index, if that month was processed.
    pub fn row_of(&self, snapshot_idx: usize) -> Option<usize> {
        self.snapshot_idxs
            .binary_search(&(snapshot_idx as u32))
            .ok()
    }

    /// Row for a `2013-10`-style month label.
    pub fn row_for_month(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    fn cell(&self, hg: Hg, row: usize) -> usize {
        row * ALL_HGS.len() + hg_index(hg)
    }

    /// "Which ASes host HG X in month Y?" — an O(1) sorted slice.
    pub fn ases_hosting(&self, hg: Hg, row: usize) -> &[u32] {
        self.confirmed.cell(self.cell(hg, row))
    }

    /// Certificate-only (candidate) AS list for one HG and row.
    pub fn ases_candidate(&self, hg: Hg, row: usize) -> &[u32] {
        self.candidate.cell(self.cell(hg, row))
    }

    /// "Does AS Z host HG X in month Y?" — the point query the load
    /// generator hammers; one binary search over a sorted cell.
    pub fn hosts(&self, hg: Hg, row: usize, asn: u32) -> bool {
        self.confirmed
            .cell(self.cell(hg, row))
            .binary_search(&asn)
            .is_ok()
    }

    /// "Growth curve for HG X" — confirmed-AS count per row, read off the
    /// offset table without touching the values.
    pub fn growth_curve(&self, hg: Hg) -> Vec<usize> {
        (0..self.n_rows())
            .map(|row| self.confirmed.len(self.cell(hg, row)))
            .collect()
    }

    /// "Growth curve for AS Z" — how many HGs the AS hosts per row.
    pub fn as_curve(&self, asn: u32) -> Vec<usize> {
        (0..self.n_rows())
            .map(|row| {
                ALL_HGS
                    .iter()
                    .filter(|&&hg| self.hosts(hg, row, asn))
                    .count()
            })
            .collect()
    }

    /// The HGs hosted inside one AS at one row.
    pub fn hgs_in_as(&self, row: usize, asn: u32) -> Vec<Hg> {
        ALL_HGS
            .iter()
            .copied()
            .filter(|&hg| self.hosts(hg, row, asn))
            .collect()
    }

    /// "Coverage of population P": the share of `population`'s users whose
    /// AS hosts `hg` at `row`. Returns `(covered_users, total_users)`.
    pub fn coverage(&self, hg: Hg, row: usize, population: Population) -> (u64, u64) {
        let mut covered = 0;
        let mut total = 0;
        for &(asn, users) in population {
            total += users;
            if self.hosts(hg, row, asn) {
                covered += users;
            }
        }
        (covered, total)
    }

    /// The §6.2 Netflix variant series
    /// `(initial, with_expired, with_non_tls)` per row.
    pub fn netflix_variants(&self, row: usize) -> (u64, u64, u64) {
        (
            self.netflix[0][row],
            self.netflix[1][row],
            self.netflix[2][row],
        )
    }
}

/// Position of an HG in [`ALL_HGS`] — the column index inside a row.
pub fn hg_index(hg: Hg) -> usize {
    ALL_HGS
        .iter()
        .position(|&h| h == hg)
        .expect("hg in ALL_HGS")
}

/// Parse an HG from its keyword (`google`) or variant name (`Google`),
/// case-insensitively.
pub fn parse_hg(name: &str) -> Option<Hg> {
    ALL_HGS.iter().copied().find(|hg| {
        hg.to_string().eq_ignore_ascii_case(name) || format!("{hg:?}").eq_ignore_ascii_case(name)
    })
}

/// `2013-10`-style label for a raw snapshot index.
pub fn month_label(snapshot_idx: usize) -> String {
    let mut s = Snapshot::study_start();
    for _ in 0..snapshot_idx {
        s = s.next();
    }
    s.label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::AsId;
    use offnet_core::pipeline::{HgSnapshotResult, SnapshotResult};
    use offnet_core::NetflixVariants;

    fn artifact() -> StudyArtifact {
        let mut snaps = Vec::new();
        for (row, idx) in [3usize, 5, 6].into_iter().enumerate() {
            let mut s = SnapshotResult {
                snapshot_idx: idx,
                ..Default::default()
            };
            s.per_hg.insert(
                Hg::Google,
                HgSnapshotResult {
                    confirmed_ases: (0..row as u32 + 2).map(|i| AsId(10 * i + 5)).collect(),
                    candidate_ases: (0..row as u32 + 3).map(|i| AsId(10 * i + 5)).collect(),
                    ..Default::default()
                },
            );
            s.per_hg.insert(
                Hg::Netflix,
                HgSnapshotResult {
                    confirmed_ases: [AsId(77)].into_iter().collect(),
                    ..Default::default()
                },
            );
            snaps.push(s);
        }
        StudyArtifact {
            engine: scanner::EngineId::Rapid7,
            fingerprint: 1,
            snapshots: snaps,
            netflix: NetflixVariants {
                initial: vec![1, 1, 1],
                with_expired: vec![1, 2, 2],
                with_non_tls: vec![2, 2, 3],
            },
            netflix_ip_history: vec![],
            header_fps: Default::default(),
            reports: vec![],
            // A delta-evidence tail, which the borrowed load must skip.
            evidence: Some(offnet_core::SnapshotEvidence {
                snapshot_idx: 6,
                cert_rows: vec![(1, 2), (3, 4)],
                banner_rows: vec![(1, 5)],
                chain_rows: vec![],
                per_hg: Default::default(),
            }),
        }
    }

    #[test]
    fn rows_and_labels() {
        let f = FrozenStudy::freeze(&artifact());
        assert_eq!(f.n_rows(), 3);
        assert_eq!(f.row_of(5), Some(1));
        assert_eq!(f.row_of(4), None);
        // Snapshots are quarterly: idx 3 = 2014-07, idx 6 = 2015-04.
        assert_eq!(f.label(0), "2014-07");
        assert_eq!(f.row_for_month("2015-04"), Some(2));
        assert_eq!(f.row_for_month("2013-10"), None);
    }

    #[test]
    fn point_and_slice_queries() {
        let f = FrozenStudy::freeze(&artifact());
        assert_eq!(f.ases_hosting(Hg::Google, 0), &[5, 15]);
        assert_eq!(f.ases_candidate(Hg::Google, 0).len(), 3);
        assert!(f.hosts(Hg::Google, 2, 25));
        assert!(!f.hosts(Hg::Google, 0, 25));
        assert!(!f.hosts(Hg::Akamai, 0, 5), "absent HG cell is empty");
        assert_eq!(f.growth_curve(Hg::Google), vec![2, 3, 4]);
        assert_eq!(f.as_curve(77), vec![1, 1, 1]);
        assert_eq!(f.hgs_in_as(1, 5), vec![Hg::Google]);
        assert_eq!(f.netflix_variants(2), (1, 2, 3));
    }

    #[test]
    fn coverage_weights_users() {
        let f = FrozenStudy::freeze(&artifact());
        let population = [(5u32, 100u64), (77, 50), (999, 850)];
        assert_eq!(f.coverage(Hg::Google, 0, &population), (100, 1000));
        assert_eq!(f.coverage(Hg::Netflix, 0, &population), (50, 1000));
    }

    #[test]
    fn borrowed_load_matches_full_decode_freeze() {
        let dir = std::env::temp_dir().join(format!("offnet-query-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.offna");
        let a = artifact();
        a.write(&path).unwrap();

        let via_tables = FrozenStudy::load(&path).unwrap();
        let via_decode = FrozenStudy::freeze(&StudyArtifact::load(&path).unwrap());
        assert_eq!(via_tables.engine(), via_decode.engine());
        assert_eq!(via_tables.n_rows(), via_decode.n_rows());
        for row in 0..via_decode.n_rows() {
            assert_eq!(via_tables.label(row), via_decode.label(row));
            assert_eq!(via_tables.snapshot_idx(row), via_decode.snapshot_idx(row));
            assert_eq!(
                via_tables.netflix_variants(row),
                via_decode.netflix_variants(row)
            );
            for hg in ALL_HGS {
                assert_eq!(
                    via_tables.ases_hosting(hg, row),
                    via_decode.ases_hosting(hg, row)
                );
                assert_eq!(
                    via_tables.ases_candidate(hg, row),
                    via_decode.ases_candidate(hg, row)
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hg_parsing() {
        assert_eq!(parse_hg("google"), Some(Hg::Google));
        assert_eq!(parse_hg("Google"), Some(Hg::Google));
        assert_eq!(parse_hg("NETFLIX"), Some(Hg::Netflix));
        assert_eq!(parse_hg("nope"), None);
    }
}
