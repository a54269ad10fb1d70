//! The top-level simulated world: topology + deployments + PKI + population
//! + organization registry, with caches for per-snapshot derived data.

use crate::deploy::{DeploymentPlan, DeploymentTimeline};
use crate::endpoints::EndpointSet;
use crate::pki::HgPki;
use crate::pki::CLOUDFLARE_FREE_SAN_MARKER;
use crate::spec::{interpolate_pair, Hg, ALL_HGS};
use bytes::Bytes;
use netsim::{
    AsId, BgpNoiseConfig, IpToAsMap, MonthlyRib, OrgDb, Topology, TopologyConfig, LEVEL_CONTENT,
};
use parking_lot::Mutex;
use popmodel::PopulationModel;
use sha2sim::Sha256;
use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::Arc;
use timebase::{Date, Snapshot, Timestamp};

pub(crate) const LEVEL_CONTENT_AS: u8 = LEVEL_CONTENT;

/// A §8 "hide-and-seek" countermeasure a Hypergiant can deploy against
/// the measurement methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Countermeasure {
    /// Off-nets serve a null default certificate, answering only TLS-SNI
    /// requests for first-party domains (§8 approach 1).
    NullDefaultCert,
    /// Remove the Organization entry from end-entity certificates
    /// (§8 approach 3a).
    StripOrganization,
    /// Use a unique per-deployment domain name never served on-net
    /// (§8 approach 3b) — defeats the dNSName-subset rule by design.
    UniqueDomains,
    /// Strip debug headers from off-net responses (§8 approach 4) —
    /// blinds the §4.5 confirmation step.
    AnonymizeHeaders,
}

/// Scenario parameters. `paper()` is the canonical full-scale world;
/// `small()` keeps tests fast.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub seed: u64,
    pub topology: TopologyConfig,
    /// Scales off-net AS counts relative to the paper's absolute numbers.
    pub footprint_scale: f64,
    /// Scales on-net IP counts.
    pub ip_scale: f64,
    /// Background (non-HG) IPs with certificates at the first and last
    /// snapshot. The paper's raw Rapid7 corpus grows ~12M -> ~40M
    /// (Figure 2); this is a 1:400 scaled equivalent.
    pub background_ips: (u64, u64),
    pub bgp_noise: BgpNoiseConfig,
    /// Per-HG §8 countermeasures (empty in the paper's world).
    pub countermeasures: Vec<(Hg, Countermeasure)>,
}

impl ScenarioConfig {
    pub fn paper() -> Self {
        Self {
            seed: 7,
            topology: TopologyConfig::paper(7),
            footprint_scale: 1.0,
            ip_scale: 1.0,
            background_ips: (30_000, 100_000),
            bgp_noise: BgpNoiseConfig::default(),
            countermeasures: Vec::new(),
        }
    }

    /// A reduced world (≈1/20 footprints) for tests and quick examples.
    pub fn small() -> Self {
        Self {
            seed: 7,
            topology: TopologyConfig::small(7),
            footprint_scale: 0.05,
            ip_scale: 0.12,
            background_ips: (1_500, 4_500),
            bgp_noise: BgpNoiseConfig::default(),
            countermeasures: Vec::new(),
        }
    }

    /// An enlarged world for the streaming/sharded pipeline: hundreds of
    /// thousands of ASes and several hundred thousand endpoints per late
    /// snapshot (roughly 3× the paper world per snapshot, millions over a
    /// study). A monolithic interned corpus is uncomfortably large at
    /// this scale — the world is meant to be observed through the sharded
    /// producer (`--shard-size`/`--spill-dir`), which bounds peak memory
    /// by shard size instead of snapshot size. Sized so the CI
    /// bounded-memory smoke (`reproduce --scale large shard-stats` under
    /// `ulimit -v`) finishes in minutes, not tens of minutes.
    pub fn large() -> Self {
        Self {
            seed: 7,
            topology: TopologyConfig::large(7),
            footprint_scale: 1.5,
            ip_scale: 2.0,
            background_ips: (100_000, 300_000),
            bgp_noise: BgpNoiseConfig::default(),
            countermeasures: Vec::new(),
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.topology.seed = seed;
        self
    }

    /// Deploy a §8 countermeasure for one HG.
    pub fn with_countermeasure(mut self, hg: Hg, cm: Countermeasure) -> Self {
        self.countermeasures.push((hg, cm));
        self
    }
}

/// The fully-generated simulated Internet plus Hypergiant deployments.
///
/// Expensive derived artifacts (IP-to-AS maps, endpoint sets, alive-AS
/// lists) are computed lazily and cached; all accessors are deterministic.
pub struct HgWorld {
    config: ScenarioConfig,
    topology: Topology,
    timeline: DeploymentTimeline,
    pki: HgPki,
    population: PopulationModel,
    org_db: OrgDb,
    hg_as: HashMap<Hg, AsId>,
    ip2as_cache: Mutex<HashMap<usize, Arc<IpToAsMap>>>,
    alive_cache: Mutex<HashMap<usize, Arc<Vec<AsId>>>>,
    pool_cache: Mutex<HashMap<String, Arc<Vec<AsId>>>>,
}

impl HgWorld {
    /// Generate the world. The heavyweight pieces (topology, timeline) are
    /// built eagerly; snapshot-level artifacts are lazy.
    pub fn generate(config: ScenarioConfig) -> Self {
        let topology = Topology::generate(&config.topology);
        let plan = DeploymentPlan {
            seed: config.seed,
            footprint_scale: config.footprint_scale,
            co_host_bonus: 18.0,
        };
        let timeline = DeploymentTimeline::generate(&topology, &plan);
        let pki = HgPki::new(config.seed);
        let population = PopulationModel::from_topology(&topology);

        // Organization registry: each HG gets its organization and one
        // content AS; every other AS gets a generic operator org.
        let mut org_db = OrgDb::new();
        let content = topology.content_as_ids();
        assert!(
            content.len() >= ALL_HGS.len(),
            "not enough content AS slots"
        );
        let mut hg_as = HashMap::new();
        for (i, hg) in ALL_HGS.iter().enumerate() {
            let org = org_db.add_org(hg.spec().org_name);
            org_db.assign(content[i], org);
            hg_as.insert(*hg, content[i]);
        }
        for a in topology.ases() {
            if a.level != LEVEL_CONTENT_AS {
                let org = org_db.add_org(&format!("Network Operator {}", a.id.0));
                org_db.assign(a.id, org);
            }
        }

        Self {
            config,
            topology,
            timeline,
            pki,
            population,
            org_db,
            hg_as,
            ip2as_cache: Mutex::new(HashMap::new()),
            alive_cache: Mutex::new(HashMap::new()),
            pool_cache: Mutex::new(HashMap::new()),
        }
    }

    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn timeline(&self) -> &DeploymentTimeline {
        &self.timeline
    }

    pub fn pki(&self) -> &HgPki {
        &self.pki
    }

    pub fn population(&self) -> &PopulationModel {
        &self.population
    }

    pub fn org_db(&self) -> &OrgDb {
        &self.org_db
    }

    pub fn n_snapshots(&self) -> usize {
        self.topology.n_snapshots()
    }

    /// The HG's own (on-net) AS.
    pub fn hg_as(&self, hg: Hg) -> AsId {
        self.hg_as[&hg]
    }

    /// The active §8 countermeasure for an HG, if any.
    pub fn countermeasure(&self, hg: Hg) -> Option<Countermeasure> {
        self.config
            .countermeasures
            .iter()
            .find(|(h, _)| *h == hg)
            .map(|(_, cm)| *cm)
    }

    /// Ground truth: ASes hosting true `hg` off-nets at snapshot `t`.
    pub fn true_offnet_ases(&self, hg: Hg, t: usize) -> HashSet<AsId> {
        self.timeline.hosting_set(hg, t)
    }

    /// Civil date of snapshot `t` (first of the quarter month).
    pub fn snapshot_date(&self, t: usize) -> Date {
        let mut s = Snapshot::study_start();
        for _ in 0..t {
            s = s.next();
        }
        s.date()
    }

    /// The endpoint set of a snapshot (uncached: ~hundreds of MB each at
    /// paper scale — callers stream snapshots one at a time).
    pub fn endpoints(&self, t: usize) -> EndpointSet {
        EndpointSet::generate(self, t)
    }

    /// Stream a snapshot's endpoints through `emit` without materializing
    /// the full set: same order and IP dedup as [`HgWorld::endpoints`],
    /// but peak memory stays one endpoint plus the dedup set. This is the
    /// producer entry point of the sharded corpus pipeline.
    pub fn for_each_endpoint<F: FnMut(crate::Endpoint)>(&self, t: usize, emit: F) {
        crate::endpoints::for_each_endpoint(self, t, emit);
    }

    /// Per-snapshot IP-to-AS map (App. A.1), cached.
    pub fn ip_to_as(&self, t: usize) -> Arc<IpToAsMap> {
        if let Some(m) = self.ip2as_cache.lock().get(&t) {
            return m.clone();
        }
        let rib = MonthlyRib::build(&self.topology, t, &self.config.bgp_noise, self.config.seed);
        let map = Arc::new(IpToAsMap::build(&rib));
        self.ip2as_cache.lock().insert(t, map.clone());
        map
    }

    /// Alive non-content ASes at `t`, cached.
    pub fn alive_as_cache(&self, t: usize) -> Arc<Vec<AsId>> {
        if let Some(v) = self.alive_cache.lock().get(&t) {
            return v.clone();
        }
        let v: Arc<Vec<AsId>> = Arc::new(
            self.topology
                .ases()
                .iter()
                .filter(|a| a.birth as usize <= t && a.level != LEVEL_CONTENT_AS)
                .map(|a| a.id)
                .collect(),
        );
        self.alive_cache.lock().insert(t, v.clone());
        v
    }

    /// A stable, label-keyed pool of ASes: the first `n` alive ASes in a
    /// per-label deterministic shuffle. Growing `n` extends the pool
    /// without reshuffling, so membership persists across snapshots.
    pub fn stable_as_pool(&self, label: &str, n: usize, t: usize) -> Vec<AsId> {
        let ranked = {
            let mut cache = self.pool_cache.lock();
            if let Some(r) = cache.get(label) {
                r.clone()
            } else {
                let salt = hstr(label);
                let mut scored: Vec<(u64, AsId)> = self
                    .topology
                    .ases()
                    .iter()
                    .filter(|a| a.level != LEVEL_CONTENT_AS)
                    .map(|a| (mix64(salt ^ u64::from(a.id.0)), a.id))
                    .collect();
                scored.sort_unstable();
                let r: Arc<Vec<AsId>> = Arc::new(scored.into_iter().map(|(_, a)| a).collect());
                cache.insert(label.to_owned(), r.clone());
                r
            }
        };
        ranked
            .iter()
            .filter(|a| self.topology.alive_at(**a, t))
            .take(n)
            .copied()
            .collect()
    }

    // ------------------------------------------------------------------
    // Certificate construction
    // ------------------------------------------------------------------

    /// Days since the study start for snapshot `t`.
    fn days_since_start(&self, t: usize) -> i64 {
        Snapshot::study_start()
            .date()
            .days_until(&self.snapshot_date(t))
    }

    /// The HG's certificate profile chains for snapshot `t`. Profile 0 is
    /// the off-net default certificate. For Cloudflare the customer
    /// certificates are appended so the proxy's on-nets genuinely serve
    /// them (which is what defeats a naive org-only match).
    pub fn hg_profile_chains(&self, hg: Hg, t: usize) -> Vec<Arc<Vec<Bytes>>> {
        let spec = hg.spec();
        let n = interpolate_pair(spec.cert_profiles, t as u32, 31).max(1) as usize;
        let lifetime = i64::from(interpolate_pair(spec.cert_lifetime_days, t as u32, 31).max(30));
        let mut out = Vec::with_capacity(n);
        let k = spec.base_domains.len();
        // §8 approach 3a: the HG stops putting its organization name in
        // end-entity certificates.
        let org = if self.countermeasure(hg) == Some(Countermeasure::StripOrganization) {
            None
        } else {
            Some(spec.org_name)
        };
        for i in 0..n {
            let sans: Vec<String> = (0..3.min(k))
                .map(|j| spec.base_domains[(2 * i + j) % k].to_owned())
                .collect();
            let period = self.days_since_start(t).max(0) / lifetime;
            let nb = Snapshot::study_start()
                .date()
                .midnight()
                .plus_days(period * lifetime);
            let na = nb.plus_days(lifetime + 10);
            let label = format!("hgc:{hg}:{i}:{period}:{lifetime}:{}", org.is_some());
            let chain = self
                .pki
                .issue_chain(&label, org, &sans[0].clone(), &sans, nb, na, i);
            out.push(Arc::new(chain));
        }
        if hg == Hg::Cloudflare {
            let (n_free, n_paid) = self.cf_customer_counts(t);
            for i in 0..n_free {
                out.push(self.cloudflare_customer_chain(false, i, t));
            }
            for i in 0..n_paid {
                out.push(self.cloudflare_customer_chain(true, i, t));
            }
        }
        out
    }

    /// Counts of Cloudflare customer-origin ASes (free, paid) at `t`.
    pub fn cf_customer_counts(&self, t: usize) -> (usize, usize) {
        let free = [(0u32, 2u32), (11, 80), (30, 300)];
        let paid = [(0u32, 0u32), (14, 20), (20, 60), (30, 137)];
        let s = self.config.footprint_scale;
        (
            (f64::from(crate::spec::interpolate_anchors(&free, t as u32)) * s).round() as usize,
            (f64::from(crate::spec::interpolate_anchors(&paid, t as u32)) * s).round() as usize,
        )
    }

    /// A Cloudflare-issued customer certificate. Free universal-SSL certs
    /// carry the `sniN.cloudflaressl.com` SAN marker; paid dedicated certs
    /// do not (§7).
    pub fn cloudflare_customer_chain(&self, paid: bool, i: usize, t: usize) -> Arc<Vec<Bytes>> {
        let lifetime = 180i64;
        let period = self.days_since_start(t).max(0) / lifetime;
        let nb = Snapshot::study_start()
            .date()
            .midnight()
            .plus_days(period * lifetime);
        let na = nb.plus_days(lifetime + 10);
        let sans: Vec<String> = if paid {
            vec![
                format!("customer-paid{i}.example"),
                format!("www.customer-paid{i}.example"),
            ]
        } else {
            vec![
                format!("customer{i}.example"),
                format!("sni{}{CLOUDFLARE_FREE_SAN_MARKER}", 10000 + i),
            ]
        };
        let label = format!("cfc:{paid}:{i}:{period}");
        Arc::new(self.pki.issue_chain(
            &label,
            Some("Cloudflare, Inc."),
            &sans[0].clone(),
            &sans,
            nb,
            na,
            i,
        ))
    }

    /// The expired default certificate Netflix off-nets served between
    /// 2017-04 and 2019-10 (§6.2).
    pub fn netflix_expired_chain(&self) -> Arc<Vec<Bytes>> {
        let spec = Hg::Netflix.spec();
        let sans: Vec<String> = spec
            .base_domains
            .iter()
            .take(3)
            .map(|s| s.to_string())
            .collect();
        Arc::new(self.pki.issue_chain(
            "netflix:expired-default",
            Some(spec.org_name),
            &sans[0].clone(),
            &sans,
            Timestamp::from_civil(2016, 4, 15, 0, 0, 0),
            Timestamp::from_civil(2017, 4, 10, 0, 0, 0),
            1,
        ))
    }

    /// A per-deployment certificate with a unique domain never served
    /// on-net (§8 approach 3b).
    pub fn unique_domain_chain(&self, hg: Hg, asn: AsId, t: usize) -> Arc<Vec<Bytes>> {
        let spec = hg.spec();
        let lifetime = 365i64;
        let period = self.days_since_start(t).max(0) / lifetime;
        let nb = Snapshot::study_start()
            .date()
            .midnight()
            .plus_days(period * lifetime);
        let na = nb.plus_days(lifetime + 10);
        let sans = vec![format!("edge-as{}.{}-cache.example", asn.0, spec.keyword)];
        Arc::new(self.pki.issue_chain(
            &format!("uniq:{hg}:{}:{period}", asn.0),
            Some(spec.org_name),
            &sans[0].clone(),
            &sans,
            nb,
            na,
            (asn.0 % 4) as usize,
        ))
    }

    /// A joint-venture certificate: HG organization, but with a SAN not
    /// served by the HG's on-nets — §4.3's dNSName-subset rule must drop it.
    pub fn shared_cert_chain(&self, hg: Hg, t: usize) -> Arc<Vec<Bytes>> {
        let spec = hg.spec();
        let lifetime = 365i64;
        let period = self.days_since_start(t).max(0) / lifetime;
        let nb = Snapshot::study_start()
            .date()
            .midnight()
            .plus_days(period * lifetime);
        let na = nb.plus_days(lifetime + 10);
        let sans = vec![
            spec.base_domains[0].to_owned(),
            format!("jointventure-{hg}.example"),
        ];
        Arc::new(self.pki.issue_chain(
            &format!("jv:{hg}:{period}"),
            Some(spec.org_name),
            &sans[0].clone(),
            &sans,
            nb,
            na,
            2,
        ))
    }

    /// A self-signed certificate mimicking an HG — §4.1 must drop it.
    pub fn imposter_chain(&self, hg: Hg, i: usize, t: usize) -> Arc<Vec<Bytes>> {
        let spec = hg.spec();
        let nb = self.snapshot_date(t).midnight().plus_days(-100);
        let na = nb.plus_days(730);
        let sans: Vec<String> = spec
            .base_domains
            .iter()
            .take(2)
            .map(|s| s.to_string())
            .collect();
        Arc::new(self.pki.issue_self_signed(
            &format!("imp:{hg}:{i}"),
            Some(spec.org_name),
            &sans[0].clone(),
            &sans,
            nb,
            na,
        ))
    }

    /// A background certificate. Validity-class mix follows §4.1's report
    /// that over a third of hosts returned invalid certificates:
    /// 60% valid, 19% expired, 12% self-signed, 9% untrusted chain.
    /// A tiny fraction of valid background orgs contain an HG keyword
    /// ("keyword bait") to exercise the dNSName-subset filter.
    pub fn background_chain(&self, label: &str, t: usize, scan_time: Timestamp) -> Arc<Vec<Bytes>> {
        let h = hstr(label);
        let class = h % 100;
        let lifetime = 365i64;
        let period = self.days_since_start(t).max(0) / lifetime;
        let nb = Snapshot::study_start()
            .date()
            .midnight()
            .plus_days(period * lifetime);
        let na = nb.plus_days(lifetime + 10);
        let site = mix64(h ^ 0x51);
        let sans = vec![
            format!("www.site{site:x}.example"),
            format!("site{site:x}.example"),
        ];
        let org: Option<String> = if mix64(h ^ 0x99) % 1000 < 2 {
            // Keyword bait: a reseller whose name contains an HG keyword.
            Some("Google Cloud Hosting Reseller Ltd".to_owned())
        } else if mix64(h ^ 0x9a) % 100 < 40 {
            Some(format!("Web Services {:x} Inc", mix64(h ^ 0x9b) % 0xffff))
        } else {
            None
        };
        let chain = match class {
            0..=59 => self.pki.issue_chain(
                label,
                org.as_deref(),
                &sans[0].clone(),
                &sans,
                nb,
                na,
                (h % 4) as usize,
            ),
            60..=78 => {
                // Expired well before the scan.
                let na_exp = scan_time.plus_days(-30 - (h % 300) as i64);
                let nb_exp = na_exp.plus_days(-lifetime);
                self.pki.issue_chain(
                    label,
                    org.as_deref(),
                    &sans[0].clone(),
                    &sans,
                    nb_exp,
                    na_exp,
                    (h % 4) as usize,
                )
            }
            79..=90 => {
                self.pki
                    .issue_self_signed(label, org.as_deref(), &sans[0].clone(), &sans, nb, na)
            }
            _ => self.pki.issue_untrusted_chain(
                label,
                org.as_deref(),
                &sans[0].clone(),
                &sans,
                nb,
                na,
            ),
        };
        Arc::new(chain)
    }

    /// Expand an HG's header templates: `{}` becomes a per-endpoint value.
    /// Standard headers are appended so the §4.4 frequency analysis has to
    /// filter them.
    pub fn render_headers(&self, hg: Hg, salt: u64) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        let headers = hg.spec().headers;
        for (i, (name, value)) in headers.iter().enumerate() {
            // Spec tables may list several values for one header name
            // (e.g. Google's `Server: gws` vs `Server: gvs`); each endpoint
            // serves exactly one of them, chosen by its salt.
            let same_name: Vec<usize> = headers
                .iter()
                .enumerate()
                .filter(|(_, (n, _))| n == name)
                .map(|(j, _)| j)
                .collect();
            if same_name.len() > 1 {
                let chosen =
                    same_name[(mix64(salt ^ hstr(name)) % same_name.len() as u64) as usize];
                if chosen != i {
                    continue;
                }
            }
            let rendered = if value.contains("{}") {
                value.replace(
                    "{}",
                    &format!("{:08x}", mix64(salt ^ hstr(value)) & 0xffff_ffff),
                )
            } else {
                (*value).to_owned()
            };
            out.push(((*name).to_owned(), rendered));
        }
        out.push(("Content-Type".to_owned(), "text/html".to_owned()));
        out.push(("Cache-Control".to_owned(), "max-age=3600".to_owned()));
        if mix64(salt ^ 0xda).is_multiple_of(2) {
            out.push(("Content-Length".to_owned(), "1270".to_owned()));
        }
        out
    }
}

pub(crate) fn hstr(s: &str) -> u64 {
    let d = Sha256::digest(s.as_bytes());
    u64::from_le_bytes(d[..8].try_into().expect("8 bytes"))
}

pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoints::Attribution;
    use x509::{verify_chain, Certificate};

    fn world() -> HgWorld {
        HgWorld::generate(ScenarioConfig::small())
    }

    #[test]
    fn generates_and_is_deterministic() {
        let a = world();
        let b = world();
        assert_eq!(a.hg_as(Hg::Google), b.hg_as(Hg::Google));
        assert_eq!(
            a.true_offnet_ases(Hg::Google, 30),
            b.true_offnet_ases(Hg::Google, 30)
        );
    }

    #[test]
    fn org_db_finds_hg_ases() {
        let w = world();
        let google_ases = w.org_db().ases_matching("google");
        assert_eq!(google_ases, vec![w.hg_as(Hg::Google)]);
        let nf = w.org_db().ases_matching("netflix");
        assert_eq!(nf, vec![w.hg_as(Hg::Netflix)]);
    }

    #[test]
    fn snapshot_dates() {
        let w = world();
        assert_eq!(w.snapshot_date(0), Date::new(2013, 10, 1));
        assert_eq!(w.snapshot_date(30), Date::new(2021, 4, 1));
    }

    #[test]
    fn profile_chains_verify_at_snapshot_time() {
        let w = world();
        for t in [0usize, 14, 30] {
            let scan = w.snapshot_date(t).midnight().plus_seconds(3600);
            for hg in [Hg::Google, Hg::Akamai, Hg::Netflix] {
                for chain in w.hg_profile_chains(hg, t) {
                    let certs: Vec<Certificate> = chain
                        .iter()
                        .map(|d| Certificate::parse(d).unwrap())
                        .collect();
                    let v = verify_chain(&certs, w.pki().root_store(), scan)
                        .unwrap_or_else(|e| panic!("{hg} t={t}: {e}"));
                    assert_eq!(
                        v.end_entity.subject().organization(),
                        Some(hg.spec().org_name)
                    );
                }
            }
        }
    }

    #[test]
    fn netflix_expired_chain_is_expired_in_2018() {
        let w = world();
        let chain = w.netflix_expired_chain();
        let certs: Vec<Certificate> = chain
            .iter()
            .map(|d| Certificate::parse(d).unwrap())
            .collect();
        let at = Timestamp::from_civil(2018, 1, 1, 0, 0, 0);
        assert!(verify_chain(&certs, w.pki().root_store(), at).is_err());
    }

    #[test]
    fn cf_free_certs_carry_marker() {
        let w = world();
        let chain = w.cloudflare_customer_chain(false, 3, 20);
        let leaf = Certificate::parse(&chain[0]).unwrap();
        assert!(leaf
            .dns_names()
            .iter()
            .any(|d| d.contains("cloudflaressl.com")));
        let paid = w.cloudflare_customer_chain(true, 3, 20);
        let leaf = Certificate::parse(&paid[0]).unwrap();
        assert!(!leaf.dns_names().iter().any(|d| d.contains("cloudflaressl")));
    }

    #[test]
    fn stable_pool_is_stable_and_nested() {
        let w = world();
        let p5 = w.stable_as_pool("x", 5, 30);
        let p10 = w.stable_as_pool("x", 10, 30);
        assert_eq!(p5, p10[..5].to_vec());
        let p5b = w.stable_as_pool("x", 5, 30);
        assert_eq!(p5, p5b);
    }

    #[test]
    fn endpoints_generate_with_all_attribution_kinds() {
        let w = world();
        let eps = w.endpoints(30);
        assert!(eps.len() > 3000, "only {} endpoints", eps.len());
        let mut kinds = std::collections::HashSet::new();
        for e in eps.endpoints() {
            kinds.insert(std::mem::discriminant(&e.attribution));
        }
        assert!(kinds.len() >= 6, "only {} attribution kinds", kinds.len());
        // Off-nets exist for Google at the final snapshot.
        let google_off = eps
            .endpoints()
            .iter()
            .filter(|e| e.attribution == Attribution::OffNet(Hg::Google))
            .count();
        assert!(google_off > 100, "google off-nets: {google_off}");
    }

    #[test]
    fn streaming_endpoints_match_materialized_set() {
        let w = world();
        let eps = w.endpoints(18);
        let mut streamed = Vec::new();
        w.for_each_endpoint(18, |ep| streamed.push(ep));
        assert_eq!(streamed.len(), eps.len());
        for (a, b) in streamed.iter().zip(eps.endpoints()) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.true_as, b.true_as);
            assert_eq!(a.http_headers, b.http_headers);
            assert_eq!(a.https_headers, b.https_headers);
        }
    }

    #[test]
    fn endpoint_ips_match_true_as_prefixes() {
        let w = world();
        let eps = w.endpoints(10);
        for e in eps.endpoints().iter().take(500) {
            let node = w.topology().node(e.true_as);
            assert!(
                node.prefixes.iter().any(|p| p.contains(e.ip)),
                "ip not in AS prefixes"
            );
        }
    }

    #[test]
    fn netflix_episode_shapes_endpoints() {
        let w = world();
        let eps = w.endpoints(18); // inside the expired window
        let mut http_only = 0usize;
        let mut total = 0usize;
        for e in eps.endpoints() {
            if e.attribution == Attribution::OffNet(Hg::Netflix) {
                total += 1;
                if e.https_headers.is_none() {
                    http_only += 1;
                }
            }
        }
        assert!(total > 20);
        let frac = http_only as f64 / total as f64;
        assert!((0.15..0.40).contains(&frac), "http-only fraction {frac}");
    }

    #[test]
    fn ip_to_as_resolves_endpoint_ips() {
        let w = world();
        let map = w.ip_to_as(30);
        let eps = w.endpoints(30);
        let mut hits = 0usize;
        let mut total = 0usize;
        for e in eps.endpoints().iter().take(2000) {
            total += 1;
            if map.lookup(e.ip).contains(&e.true_as) {
                hits += 1;
            }
        }
        assert!(
            hits as f64 / total as f64 > 0.95,
            "ip2as hit rate {hits}/{total}"
        );
    }
}
