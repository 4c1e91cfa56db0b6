//! Multi-tenant (namespace-style) workload generation.
//!
//! Models N tenants sharing one SSD the way NVMe namespaces do: each tenant
//! owns a disjoint, contiguous LPN range and issues its own open-loop Poisson
//! arrival stream with a configurable read/write mix and a Zipfian hotspot
//! inside its range. The harness merges the per-tenant streams by arrival
//! time and (optionally) admits them by weighted per-tenant arbitration —
//! the `weight` field here is carried alongside the traffic shape so one
//! spec describes both the load a tenant offers and the service share it is
//! promised.

use ftl_base::{HostRequest, Lpn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssd_sim::Duration;

use crate::zipf::Zipfian;

/// One tenant's traffic shape and QoS parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Weighted-round-robin share of contended scheduler slots (relative to
    /// the other tenants' weights; must be ≥ 1 for a foreground tenant).
    pub weight: u32,
    /// Fraction of the tenant's requests that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Mean gap of the tenant's Poisson arrival process.
    pub mean_interarrival: Duration,
    /// Skew of the Zipfian hotspot inside the tenant's LPN range
    /// (`0` ≈ uniform, `0.99` = classic YCSB skew).
    pub zipf_theta: f64,
    /// How many requests the tenant issues in total.
    pub requests: u64,
}

impl TenantSpec {
    /// A read-mostly tenant: 95% reads at the given arrival rate, moderate
    /// hotspot skew — the "victim" shape in noisy-neighbour experiments.
    pub fn read_mostly(mean_interarrival: Duration, requests: u64) -> Self {
        TenantSpec {
            weight: 1,
            read_fraction: 0.95,
            mean_interarrival,
            zipf_theta: 0.9,
            requests,
        }
    }

    /// A write-heavy tenant: 95% writes at the given arrival rate — the
    /// "aggressor" shape in noisy-neighbour experiments.
    pub fn write_heavy(mean_interarrival: Duration, requests: u64) -> Self {
        TenantSpec {
            weight: 1,
            read_fraction: 0.05,
            mean_interarrival,
            zipf_theta: 0.9,
            requests,
        }
    }

    /// Sets the tenant's arbitration weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// One tenant's generator state.
#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    range_start: Lpn,
    zipf: Zipfian,
    rng: StdRng,
    issued: u64,
}

/// A set of tenants over one logical address space: disjoint equal LPN
/// ranges, per-tenant seeded arrival/mix/hotspot randomness.
///
/// Every generated request covers exactly one page, so a sharded FTL routes
/// it to a single shard (`shard_of(lpn)`) and per-tenant latencies attribute
/// cleanly.
///
/// ```
/// use ssd_sim::Duration;
/// use workloads::{TenantSet, TenantSpec};
///
/// let specs = vec![
///     TenantSpec::write_heavy(Duration::from_micros(50), 100),
///     TenantSpec::read_mostly(Duration::from_micros(50), 100).with_weight(8),
/// ];
/// let mut set = TenantSet::new(specs, 8_000, 7);
/// let (gap, req) = set.next_request(1).unwrap();
/// assert!(gap >= Duration::from_nanos(1));
/// assert_eq!(req.tenant, 1);
/// assert!((4_000..8_000).contains(&req.lpn));
/// ```
#[derive(Debug)]
pub struct TenantSet {
    tenants: Vec<TenantState>,
    range_pages: u64,
}

impl TenantSet {
    /// Creates the set: `specs.len()` tenants splitting `logical_pages` into
    /// disjoint equal contiguous ranges (tenant `t` owns
    /// `[t * logical_pages / n, (t + 1) * logical_pages / n)`), each tenant
    /// seeded independently from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or `logical_pages < specs.len()` (every
    /// tenant needs at least one page).
    pub fn new(specs: Vec<TenantSpec>, logical_pages: u64, seed: u64) -> Self {
        assert!(!specs.is_empty(), "a tenant set needs at least one tenant");
        let n = specs.len() as u64;
        let range_pages = logical_pages / n;
        assert!(range_pages > 0, "every tenant needs at least one page");
        let tenants = specs
            .into_iter()
            .enumerate()
            .map(|(t, spec)| TenantState {
                spec,
                range_start: t as u64 * range_pages,
                zipf: Zipfian::new(range_pages, spec.zipf_theta),
                // Distinct stream per tenant; the golden-ratio stride keeps
                // the derived seeds far apart.
                rng: StdRng::seed_from_u64(
                    seed.wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                issued: 0,
            })
            .collect();
        TenantSet {
            tenants,
            range_pages,
        }
    }

    /// Number of tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Tenant `t`'s spec.
    pub fn spec(&self, t: usize) -> &TenantSpec {
        &self.tenants[t].spec
    }

    /// Tenant `t`'s LPN range.
    pub fn range(&self, t: usize) -> std::ops::Range<Lpn> {
        let start = self.tenants[t].range_start;
        start..start + self.range_pages
    }

    /// Total requests the set will issue across all tenants.
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.spec.requests).sum()
    }

    /// Generates tenant `t`'s next request: the exponential inter-arrival
    /// gap since the tenant's previous arrival, and the (single-page,
    /// tenant-tagged) request itself. `None` once the tenant has issued its
    /// share.
    pub fn next_request(&mut self, t: usize) -> Option<(Duration, HostRequest)> {
        let state = &mut self.tenants[t];
        if state.issued >= state.spec.requests {
            return None;
        }
        state.issued += 1;
        // Exponential gap with the spec's mean, floored at 1 ns so arrivals
        // advance even at extreme rates.
        let u: f64 = state.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap_ns = (-u.ln() * state.spec.mean_interarrival.as_nanos() as f64) as u64;
        let gap = Duration::from_nanos(gap_ns.max(1));
        let lpn = state.range_start + state.zipf.sample(&mut state.rng);
        let req = if state.rng.gen_bool(state.spec.read_fraction.clamp(0.0, 1.0)) {
            HostRequest::read(lpn, 1)
        } else {
            HostRequest::write(lpn, 1)
        };
        Some((gap, req.with_tenant(t as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(reqs: u64) -> TenantSpec {
        TenantSpec {
            weight: 1,
            read_fraction: 0.5,
            mean_interarrival: Duration::from_micros(10),
            zipf_theta: 0.9,
            requests: reqs,
        }
    }

    #[test]
    fn ranges_are_disjoint_and_requests_stay_inside() {
        let mut set = TenantSet::new(vec![spec(500); 4], 10_000, 42);
        assert_eq!(set.num_tenants(), 4);
        assert_eq!(set.total_requests(), 2_000);
        for t in 0..4 {
            let range = set.range(t);
            assert_eq!(range.end - range.start, 2_500);
            while let Some((gap, req)) = set.next_request(t) {
                assert!(gap >= Duration::from_nanos(1));
                assert_eq!(req.pages, 1);
                assert_eq!(req.tenant, t as u32);
                let range = set.range(t);
                assert!(range.contains(&req.lpn), "tenant {t} lpn {}", req.lpn);
            }
        }
        for t in 0..4 {
            assert!(set.next_request(t).is_none(), "tenant {t} must stay done");
        }
    }

    #[test]
    fn read_fraction_shapes_the_mix() {
        let mut aggressive = spec(4_000);
        aggressive.read_fraction = 0.05;
        let mut set = TenantSet::new(vec![aggressive], 1_000, 9);
        let mut writes = 0u64;
        while let Some((_, req)) = set.next_request(0) {
            if req.op == ftl_base::HostOp::Write {
                writes += 1;
            }
        }
        let frac = writes as f64 / 4_000.0;
        assert!(frac > 0.9, "write-heavy tenant wrote only {frac}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let specs = vec![spec(50), spec(50)];
        let mut a = TenantSet::new(specs.clone(), 4_000, 1234);
        let mut b = TenantSet::new(specs, 4_000, 1234);
        for t in 0..2 {
            loop {
                let (x, y) = (a.next_request(t), b.next_request(t));
                assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_set_rejected() {
        TenantSet::new(Vec::new(), 100, 0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn oversubscribed_address_space_rejected() {
        TenantSet::new(vec![spec(1); 8], 4, 0);
    }
}
