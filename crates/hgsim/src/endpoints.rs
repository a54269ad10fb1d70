//! Per-snapshot endpoint materialization: every TLS/HTTP server on the
//! synthetic Internet, with its certificate chain, headers, and ground-truth
//! attribution. The scanner crate observes these endpoints; the pipeline
//! tries to recover the attribution.

use crate::scenario::{Countermeasure, HgWorld};
use crate::spec::{interpolate_anchors, interpolate_pair, Hg, ALL_HGS};
use netsim::AsId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use timebase::Timestamp;
use tlssim::{ServerConfig, ServerMode};

/// Ground-truth role of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribution {
    /// Unrelated web server.
    Background,
    /// A Hypergiant server inside the HG's own AS.
    OnNet(Hg),
    /// A true off-net server: HG hardware in another network.
    OffNet(Hg),
    /// `content`'s certificate served from `cdn`'s hardware (§3's
    /// third-party-CDN case; certificate-only footprint).
    ThirdPartyCdn { content: Hg, cdn: Hg },
    /// A cloud-managed on-premise box exposing the provider's certificate
    /// on a management interface (§3).
    CloudMgmt(Hg),
    /// A Cloudflare proxy customer's origin serving its Cloudflare-issued
    /// certificate (§3, §7). `paid` certificates lack the
    /// `cloudflaressl.com` SAN marker.
    CfCustomerOrigin { paid: bool },
    /// A certificate bearing an HG organization but shared with another
    /// organization's service, never served on-net (§4.3's filter).
    SharedCert(Hg),
    /// A self-signed certificate mimicking an HG (§4.1's filter).
    Imposter(Hg),
}

impl Attribution {
    /// The HG whose *hardware* truly serves here, if any.
    pub fn true_operator(&self) -> Option<Hg> {
        match self {
            Attribution::OnNet(hg) | Attribution::OffNet(hg) => Some(*hg),
            Attribution::ThirdPartyCdn { cdn, .. } => Some(*cdn),
            _ => None,
        }
    }
}

/// One scannable server.
#[derive(Debug, Clone)]
pub struct Endpoint {
    pub ip: u32,
    /// Ground-truth hosting AS.
    pub true_as: AsId,
    pub attribution: Attribution,
    /// TLS behaviour on port 443.
    pub tls: ServerConfig,
    /// HTTP banner headers (port 80).
    pub http_headers: Vec<(String, String)>,
    /// HTTPS application headers (port 443), absent for HTTP-only servers.
    pub https_headers: Option<Vec<(String, String)>>,
}

/// All endpoints of one snapshot, indexed by IP.
#[derive(Debug)]
pub struct EndpointSet {
    pub snapshot_idx: usize,
    endpoints: Vec<Endpoint>,
    by_ip: HashMap<u32, u32>,
}

impl EndpointSet {
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    pub fn get(&self, ip: u32) -> Option<&Endpoint> {
        self.by_ip.get(&ip).map(|&i| &self.endpoints[i as usize])
    }

    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Generate the snapshot's endpoints. Deterministic per world + index.
    pub fn generate(world: &HgWorld, t: usize) -> Self {
        let mut endpoints = Vec::new();
        for_each_endpoint(world, t, |ep| endpoints.push(ep));
        let mut by_ip = HashMap::with_capacity(endpoints.len());
        for (i, ep) in endpoints.iter().enumerate() {
            // IPs are already deduplicated by the generator, so every
            // insert is fresh and indices stay first-writer ordered.
            by_ip.insert(ep.ip, i as u32);
        }
        EndpointSet {
            snapshot_idx: t,
            endpoints,
            by_ip,
        }
    }
}

/// Stream the snapshot's endpoints through `emit` in generation order —
/// the same order (and the same first-writer-wins IP dedup) as
/// [`EndpointSet::generate`], but without ever materializing the full
/// set. This is the producer side of the sharded corpus pipeline: peak
/// memory is one endpoint plus the IP dedup set.
pub fn for_each_endpoint<F: FnMut(Endpoint)>(world: &HgWorld, t: usize, emit: F) {
    Generator::new(world, t, emit).run();
}

/// splitmix64 — cheap deterministic hashing for IP/choice derivation.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hstr(s: &str) -> u64 {
    let d = sha2sim::Sha256::digest(s.as_bytes());
    u64::from_le_bytes(d[..8].try_into().expect("8 bytes"))
}

/// Certificate-only ("service present, no hardware") extra footprints per
/// HG: `(content HG, anchors, placement)`. These produce Table 3's
/// parenthesized certificate-only counts exceeding the validated counts.
enum CertOnlyHost {
    /// Served from Akamai off-net hardware (AkamaiGHost headers).
    AkamaiEdge,
    /// Cloud-managed boxes with generic management headers.
    Mgmt,
    /// Third-party datacenter servers with generic cloud headers.
    Datacenter,
}

/// One certificate-only placement rule: content HG, footprint anchors,
/// and the kind of hardware the certificate rides on.
type CertOnlyRule = (Hg, &'static [(u32, u32)], CertOnlyHost);

const CERT_ONLY: &[CertOnlyRule] = &[
    (
        Hg::Apple,
        &[(0, 113), (26, 240), (30, 267)],
        CertOnlyHost::AkamaiEdge,
    ),
    (
        Hg::Twitter,
        &[(0, 101), (30, 176)],
        CertOnlyHost::AkamaiEdge,
    ),
    (Hg::Netflix, &[(0, 96), (30, 173)], CertOnlyHost::Datacenter),
    (Hg::Amazon, &[(0, 147), (30, 156)], CertOnlyHost::Mgmt),
    (Hg::Google, &[(0, 61), (30, 25)], CertOnlyHost::Mgmt),
    (Hg::Facebook, &[(0, 8), (30, 15)], CertOnlyHost::Mgmt),
    (Hg::Akamai, &[(0, 35), (30, 13)], CertOnlyHost::Mgmt),
    (
        Hg::Alibaba,
        &[(0, 0), (10, 60), (30, 165)],
        CertOnlyHost::Datacenter,
    ),
    (
        Hg::Cdnetworks,
        &[(0, 4), (30, 20)],
        CertOnlyHost::Datacenter,
    ),
];

struct Generator<'a, F: FnMut(Endpoint)> {
    world: &'a HgWorld,
    t: usize,
    scan_time: Timestamp,
    seen: HashSet<u32>,
    emit: F,
    /// Per-HG certificate profile chains for this snapshot.
    profiles: HashMap<Hg, Vec<Arc<Vec<bytes::Bytes>>>>,
    /// Hosting-provider background chains (`bgp:{p}:{group}` labels),
    /// issued once per label and shared by every endpoint carrying it.
    /// Issuance is a pure function of (label, snapshot), so reuse is
    /// exact; the map lives only as long as this one snapshot's stream.
    provider_chains: HashMap<String, Arc<Vec<bytes::Bytes>>>,
}

impl<'a, F: FnMut(Endpoint)> Generator<'a, F> {
    fn new(world: &'a HgWorld, t: usize, emit: F) -> Self {
        let scan_time = world.snapshot_date(t).midnight().plus_seconds(12 * 3600);
        let mut profiles = HashMap::new();
        for hg in ALL_HGS {
            profiles.insert(hg, world.hg_profile_chains(hg, t));
        }
        Self {
            world,
            t,
            scan_time,
            seen: HashSet::new(),
            emit,
            profiles,
            provider_chains: HashMap::new(),
        }
    }

    /// Emit the whole snapshot, in generation order.
    fn run(&mut self) {
        self.hypergiant_endpoints();
        self.cert_only_endpoints();
        self.cloudflare_customers();
        self.oddballs();
        self.background();
    }

    fn push(&mut self, ep: Endpoint) {
        // First writer wins on IP collisions (rare hash collisions between
        // background and HG replicas).
        if self.seen.insert(ep.ip) {
            (self.emit)(ep);
        }
    }

    /// A stable IP inside an AS for a logical replica label.
    fn ip_in_as(&self, asn: AsId, label: u64) -> u32 {
        let node = self.world.topology().node(asn);
        let h = mix(label ^ u64::from(asn.0) << 32);
        let p = &node.prefixes[(h % node.prefixes.len() as u64) as usize];
        p.addr(mix(h) % p.size())
    }

    /// Pick a certificate profile index using the HG's concentration
    /// exponent (drives Figure 11's IP-group distribution).
    fn pick_profile(&self, hg: Hg, salt: u64) -> usize {
        let n = self.profiles[&hg].len();
        if n <= 1 {
            return 0;
        }
        let frac = self.t as f64 / (self.world.n_snapshots() - 1).max(1) as f64;
        let alpha = match hg {
            Hg::Google => 1.9 - 0.2 * frac,
            Hg::Facebook => 4.2 - 3.5 * frac, // aggregated -> disaggregated
            _ => 1.5,
        };
        // Zipf(alpha) sample via inverse CDF over n buckets.
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut x = (mix(salt) as f64 / u64::MAX as f64) * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        n - 1
    }

    fn headers_for(&self, hg: Hg, salt: u64) -> Vec<(String, String)> {
        self.world.render_headers(hg, salt)
    }

    /// On-net and off-net Hypergiant endpoints.
    fn hypergiant_endpoints(&mut self) {
        let t = self.t;
        for hg in ALL_HGS {
            let spec = hg.spec();
            let hg_as = self.world.hg_as(hg);
            // --- on-nets ---
            let n_on = (f64::from(interpolate_pair(spec.onnet_ips, t as u32, 31))
                * self.world.config().ip_scale)
                .round() as u64;
            for i in 0..n_on {
                let salt = hstr(&format!("on:{hg}:{i}"));
                let ip = self.ip_in_as(hg_as, salt);
                // Cloudflare's proxy must serve *every* customer
                // certificate from its own address space; round-robin
                // guarantees coverage. Other HGs follow their Zipf
                // concentration (Figure 11).
                let profile = if hg == Hg::Cloudflare {
                    (i as usize) % self.profiles[&hg].len()
                } else {
                    self.pick_profile(hg, salt)
                };
                let chain = self.profiles[&hg][profile].clone();
                // Google's on-nets progressively move to SNI-only serving
                // with a null default certificate (§8 "hide-and-seek").
                let sni_only = hg == Hg::Google && t >= 24 && mix(salt ^ 3) % 100 < 60;
                let tls = if sni_only {
                    ServerConfig {
                        mode: ServerMode::Https,
                        default_chain: None,
                        sni_chains: vec![("*.google.com".into(), chain)],
                    }
                } else {
                    ServerConfig::single_chain(chain)
                };
                let headers = self.headers_for(hg, salt);
                self.push(Endpoint {
                    ip,
                    true_as: hg_as,
                    attribution: Attribution::OnNet(hg),
                    tls,
                    http_headers: headers.clone(),
                    https_headers: Some(headers),
                });
            }
            // --- off-nets ---
            if !hg.has_offnets() {
                continue;
            }
            let replicas = interpolate_pair(spec.ips_per_offnet_as, t as u32, 31).max(1);
            let hosting: Vec<AsId> = self.world.timeline().hosting(hg, t).to_vec();
            for asn in hosting {
                for r in 0..replicas {
                    let salt = hstr(&format!("off:{hg}:{}:{r}", asn.0));
                    let ip = self.ip_in_as(asn, salt);
                    self.push(self.offnet_endpoint(hg, asn, ip, salt));
                }
            }
        }
    }

    fn offnet_endpoint(&self, hg: Hg, asn: AsId, ip: u32, salt: u64) -> Endpoint {
        let t = self.t;
        let cm = self.world.countermeasure(hg);
        // The video-cache certificate dominates Google off-nets but does
        // not monopolize them: "over 50% ... serving the certificate that
        // certifies *.googlevideo.com" (App. A.3 / Fig. 11).
        let profile = if hg == Hg::Google && mix(salt ^ 9) % 100 < 58 {
            0
        } else {
            self.pick_profile(hg, salt)
        };
        let chain = if cm == Some(Countermeasure::UniqueDomains) {
            self.world.unique_domain_chain(hg, asn, t)
        } else {
            self.profiles[&hg][profile].clone()
        };
        // Off-net header behaviour.
        let headers: Vec<(String, String)> = if cm == Some(Countermeasure::AnonymizeHeaders) {
            vec![("Server".into(), "Apache".into())]
        } else if hg == Hg::Netflix {
            // Netflix OCAs answer with a bare default nginx header (§4.4).
            vec![("Server".into(), "nginx".into())]
        } else if hg.spec().offnet_serves_headers {
            self.headers_for(hg, salt)
        } else {
            vec![("Server".into(), "nginx".into())]
        };

        // The Netflix episode (§6.2): between 2017-04 and 2019-10 the
        // default certificate on most OCAs was expired; 26.8% of OCA IPs
        // additionally fell back to plain HTTP.
        if hg == Hg::Netflix && (14..24).contains(&t) {
            let http_only = mix(salt ^ 77) % 1000 < 268;
            if http_only && t >= 16 {
                return Endpoint {
                    ip,
                    true_as: asn,
                    attribution: Attribution::OffNet(hg),
                    tls: ServerConfig::http_only(),
                    http_headers: headers,
                    https_headers: None,
                };
            }
            let expired = self.world.netflix_expired_chain();
            return Endpoint {
                ip,
                true_as: asn,
                attribution: Attribution::OffNet(hg),
                tls: ServerConfig::single_chain(expired),
                http_headers: headers.clone(),
                https_headers: Some(headers),
            };
        }

        // §8 approach 1: null default certificate; the chain is served
        // only to first-party SNI requests.
        let mut tls = if cm == Some(Countermeasure::NullDefaultCert) {
            let pattern = hg.spec().base_domains[0].to_owned();
            ServerConfig {
                mode: ServerMode::Https,
                default_chain: None,
                sni_chains: vec![(pattern, chain)],
            }
        } else {
            ServerConfig::single_chain(chain)
        };
        if hg == Hg::Akamai && mix(salt ^ 5).is_multiple_of(4) {
            for content in [Hg::Apple, Hg::Twitter] {
                let third = self.profiles[&content][0].clone();
                for san in content.spec().base_domains.iter().take(3) {
                    tls.sni_chains.push(((*san).to_owned(), third.clone()));
                }
            }
        }
        Endpoint {
            ip,
            true_as: asn,
            attribution: Attribution::OffNet(hg),
            tls,
            http_headers: headers.clone(),
            https_headers: Some(headers),
        }
    }

    /// Certificate-only footprints: HG certs on hardware that is not the
    /// HG's serving infrastructure.
    fn cert_only_endpoints(&mut self) {
        let t = self.t;
        let scale = self.world.config().footprint_scale;
        for (hg, anchors, host) in CERT_ONLY {
            let n_ases =
                (f64::from(interpolate_anchors(anchors, t as u32)) * scale).round() as usize;
            if n_ases == 0 {
                continue;
            }
            let targets: Vec<AsId> = match host {
                CertOnlyHost::AkamaiEdge => {
                    // Ride on ASes hosting Akamai off-nets.
                    let pool = self.world.timeline().hosting(Hg::Akamai, t);
                    pick_stable(pool, n_ases, hstr(&format!("co:{hg}")))
                }
                _ => self.world.stable_as_pool(&format!("co:{hg}"), n_ases, t),
            };
            let chain = self.profiles[hg][0].clone();
            for asn in targets {
                let salt = hstr(&format!("co:{hg}:{}", asn.0));
                let ip = self.ip_in_as(asn, salt);
                let (attribution, headers) = match host {
                    CertOnlyHost::AkamaiEdge => (
                        Attribution::ThirdPartyCdn {
                            content: *hg,
                            cdn: Hg::Akamai,
                        },
                        self.headers_for(Hg::Akamai, salt),
                    ),
                    CertOnlyHost::Mgmt => (
                        Attribution::CloudMgmt(*hg),
                        vec![("Server".into(), "mini-httpd/1.30".into())],
                    ),
                    CertOnlyHost::Datacenter => (
                        Attribution::CloudMgmt(*hg),
                        vec![("Server".into(), "awselb/2.0".into())],
                    ),
                };
                self.push(Endpoint {
                    ip,
                    true_as: asn,
                    attribution,
                    tls: ServerConfig::single_chain(chain.clone()),
                    http_headers: headers.clone(),
                    https_headers: Some(headers),
                });
            }
        }
    }

    /// Cloudflare proxy customers serving Cloudflare-issued certificates on
    /// their own origins.
    fn cloudflare_customers(&mut self) {
        let t = self.t as u32;
        let scale = self.world.config().footprint_scale;
        let free_anchors = [(0u32, 2u32), (11, 80), (30, 300)];
        let paid_anchors = [(0u32, 0u32), (14, 20), (20, 60), (30, 137)];
        for (paid, anchors) in [(false, &free_anchors[..]), (true, &paid_anchors[..])] {
            let n = (f64::from(interpolate_anchors(anchors, t)) * scale).round() as usize;
            let pool = self.world.stable_as_pool(&format!("cf:{paid}"), n, self.t);
            for (i, asn) in pool.into_iter().enumerate() {
                let salt = hstr(&format!("cf:{paid}:{}", asn.0));
                let ip = self.ip_in_as(asn, salt);
                let chain = self.world.cloudflare_customer_chain(paid, i, self.t);
                // Paid-cert origins frequently front their server with
                // cloudflared and echo Cloudflare-ish headers; free-cert
                // origins mostly run stock web servers.
                let headers: Vec<(String, String)> = if paid && mix(salt) % 100 < 80 {
                    self.headers_for(Hg::Cloudflare, salt)
                } else {
                    vec![("Server".into(), "Apache/2.4.41".into())]
                };
                self.push(Endpoint {
                    ip,
                    true_as: asn,
                    attribution: Attribution::CfCustomerOrigin { paid },
                    tls: ServerConfig::single_chain(chain),
                    http_headers: headers.clone(),
                    https_headers: Some(headers),
                });
            }
        }
    }

    /// Shared joint-venture certificates and self-signed imposters — both
    /// must be filtered out by the pipeline.
    fn oddballs(&mut self) {
        let scale = self.world.config().footprint_scale;
        let n_shared = (15.0 * scale).ceil() as usize;
        for (hg, label) in [(Hg::Google, "jv-g"), (Hg::Amazon, "jv-a")] {
            let pool = self.world.stable_as_pool(label, n_shared, self.t);
            let chain = self.world.shared_cert_chain(hg, self.t);
            for asn in pool {
                let salt = hstr(&format!("{label}:{}", asn.0));
                let ip = self.ip_in_as(asn, salt);
                self.push(Endpoint {
                    ip,
                    true_as: asn,
                    attribution: Attribution::SharedCert(hg),
                    tls: ServerConfig::single_chain(chain.clone()),
                    http_headers: vec![("Server".into(), "nginx".into())],
                    https_headers: Some(vec![("Server".into(), "nginx".into())]),
                });
            }
        }
        let n_imposter = (30.0 * scale).ceil() as usize;
        let pool = self.world.stable_as_pool("imposter", n_imposter, self.t);
        for (i, asn) in pool.into_iter().enumerate() {
            let hg = ALL_HGS[i % 4]; // mimic the top HGs
            let salt = hstr(&format!("imposter:{}", asn.0));
            let ip = self.ip_in_as(asn, salt);
            let chain = self.world.imposter_chain(hg, i, self.t);
            self.push(Endpoint {
                ip,
                true_as: asn,
                attribution: Attribution::Imposter(hg),
                tls: ServerConfig::single_chain(chain),
                http_headers: vec![("Server".into(), "nginx".into())],
                https_headers: Some(vec![("Server".into(), "nginx".into())]),
            });
        }
    }

    /// The long tail: ordinary web servers, two thirds valid, one third
    /// invalid (expired / self-signed / untrusted), as §4.1 reports.
    fn background(&mut self) {
        let cfg = self.world.config();
        let t = self.t;
        let n_bg = (cfg.background_ips.0 as f64
            + (cfg.background_ips.1 as f64 - cfg.background_ips.0 as f64) * t as f64
                / (self.world.n_snapshots() - 1).max(1) as f64)
            .round() as u64;
        let alive = self.world.alive_as_cache(t);
        let n_hosting_providers = (n_bg / 400).max(1);
        // Loop-invariant seeds, hashed once rather than per endpoint.
        let bg_seed = hstr("bg");
        let provider_seed = hstr("bgprov");
        let (world, scan_time) = (self.world, self.scan_time);
        for i in 0..n_bg {
            let salt = mix(bg_seed ^ i);
            let self_hosted = salt % 100 < 55;
            let (asn, chain) = if self_hosted {
                let asn = alive[(mix(salt ^ 1) % alive.len() as u64) as usize];
                (
                    asn,
                    world.background_chain(&format!("bgu:{i}"), t, scan_time),
                )
            } else {
                let p = mix(salt ^ 2) % n_hosting_providers;
                let asn = alive[(mix(provider_seed ^ p) % alive.len() as u64) as usize];
                let group = mix(salt ^ 3) % 12;
                let chain = self
                    .provider_chains
                    .entry(format!("bgp:{p}:{group}"))
                    .or_insert_with_key(|label| world.background_chain(label, t, scan_time))
                    .clone();
                (asn, chain)
            };
            let ip = self.ip_in_as(asn, salt ^ 0xbb);
            let headers = background_headers(salt);
            self.push(Endpoint {
                ip,
                true_as: asn,
                attribution: Attribution::Background,
                tls: ServerConfig::single_chain(chain),
                http_headers: headers.clone(),
                https_headers: Some(headers),
            });
        }
    }
}

/// Pick `n` stable members from a pool by hashing.
fn pick_stable(pool: &[AsId], n: usize, salt: u64) -> Vec<AsId> {
    if pool.is_empty() {
        return Vec::new();
    }
    let mut scored: Vec<(u64, AsId)> = pool
        .iter()
        .map(|&a| (mix(salt ^ u64::from(a.0)), a))
        .collect();
    scored.sort_unstable();
    scored.into_iter().take(n).map(|(_, a)| a).collect()
}

fn background_headers(salt: u64) -> Vec<(String, String)> {
    const SERVERS: &[&str] = &[
        "nginx",
        "nginx/1.18.0",
        "Apache",
        "Apache/2.4.41 (Ubuntu)",
        "Microsoft-IIS/10.0",
        "LiteSpeed",
        "openresty",
        "lighttpd/1.4.55",
    ];
    let s = SERVERS[(mix(salt ^ 9) % SERVERS.len() as u64) as usize];
    let mut out = vec![("Server".to_owned(), s.to_owned())];
    if mix(salt ^ 10) % 100 < 25 {
        out.push(("X-Powered-By".to_owned(), "PHP/7.4.3".to_owned()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;

    fn chain_bytes(ep: &Endpoint) -> Vec<Vec<bytes::Bytes>> {
        let tls = &ep.tls;
        tls.default_chain
            .iter()
            .chain(tls.sni_chains.iter().map(|(_, c)| c))
            .map(|c| c.as_ref().clone())
            .collect()
    }

    /// Reusing hosting-provider chains within a snapshot is exact: both
    /// entry points emit the same chains in the same order, every endpoint
    /// of a provider label holds the one shared `Arc`, and that chain is
    /// what a fresh issuance for the label yields.
    #[test]
    fn provider_chain_reuse_is_exact() {
        const T: usize = 28;
        let world = HgWorld::generate(ScenarioConfig::small());
        let set = world.endpoints(T);
        let mut streamed = Vec::new();
        let mut gen = Generator::new(&world, T, |ep| streamed.push(ep));
        gen.run();
        let scan_time = gen.scan_time;
        let provider_chains = std::mem::take(&mut gen.provider_chains);
        drop(gen);
        let mut via_world = Vec::new();
        world.for_each_endpoint(T, |ep| via_world.push(ep));

        assert_eq!(set.len(), streamed.len());
        assert_eq!(set.len(), via_world.len());
        for ((a, b), c) in set.endpoints().iter().zip(&streamed).zip(&via_world) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.ip, c.ip);
            let bytes = chain_bytes(a);
            assert_eq!(bytes, chain_bytes(b), "ip {}", a.ip);
            assert_eq!(bytes, chain_bytes(c), "ip {}", a.ip);
        }

        // Every provider chain equals a fresh issuance of its label.
        assert!(
            provider_chains.len() > 10,
            "{} labels",
            provider_chains.len()
        );
        for (label, chain) in &provider_chains {
            assert_eq!(
                **chain,
                *world.background_chain(label, T, scan_time),
                "{label}"
            );
        }

        // Every background endpoint whose chain has a provider chain's
        // bytes holds that very allocation, so each label is issued once.
        let by_leaf: HashMap<&[u8], &Arc<Vec<bytes::Bytes>>> = provider_chains
            .values()
            .map(|c| (c[0].as_ref(), c))
            .collect();
        let mut shared = 0;
        for ep in &streamed {
            if ep.attribution != Attribution::Background {
                continue;
            }
            let chain = ep.tls.default_chain.as_ref().expect("background chain");
            if let Some(&provider) = by_leaf.get(chain[0].as_ref()) {
                assert!(Arc::ptr_eq(provider, chain), "ip {}", ep.ip);
                shared += 1;
            }
        }
        assert!(
            shared > 2 * provider_chains.len(),
            "{shared} endpoints over {} provider labels",
            provider_chains.len()
        );
    }
}
