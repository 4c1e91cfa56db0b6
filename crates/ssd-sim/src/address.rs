//! Physical addressing: the PPN codec and the virtual-PPN representation.
//!
//! A physical page number (PPN) encodes the position of a page in the SSD's
//! geometry tree by concatenating the address fields from the highest level
//! (channel) to the lowest (page):
//!
//! ```text
//! PPN  = ((((channel · C + chip) · P + plane) · B + block) · G + page)
//! ```
//!
//! where `C`, `P`, `B`, `G` are the fan-outs of the respective levels.
//!
//! The paper's *virtual PPN* (Section III-C) permutes those fields so that the
//! allocation order — channel fastest, then chip, plane, page and block
//! slowest — produces **consecutive integers**. Two pages that are allocated
//! back-to-back by a striping allocator land on different chips and therefore
//! have wildly different PPNs, but their VPPNs differ by exactly one. Learned
//! index models are trained on LPN→VPPN mappings for this reason.
//!
//! ```text
//! VPPN = ((((block · G + page) · P + plane) · C + chip) · CH + channel)
//! ```
//!
//! Both codecs are bijections over `0..total_pages`, verified by the property
//! tests at the bottom of this module.

use crate::geometry::Geometry;

/// A physical page number: an index into the device's pages in geometry order.
pub type Ppn = u64;

/// A virtual physical page number: the allocation-order permutation of a PPN.
pub type Vppn = u64;

/// A fully decomposed physical page address.
///
/// ```
/// use ssd_sim::{Geometry, PhysAddr};
/// let g = Geometry::new(8, 8, 1, 256, 512, 4096);
/// let addr = PhysAddr { channel: 3, chip: 2, plane: 0, block: 17, page: 250 };
/// let ppn = addr.to_ppn(&g);
/// assert_eq!(PhysAddr::from_ppn(ppn, &g), addr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    /// Channel index.
    pub channel: u32,
    /// Chip (LUN) index within the channel.
    pub chip: u32,
    /// Plane index within the chip.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl PhysAddr {
    /// Decomposes a PPN into its geometry fields.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is outside the device.
    pub fn from_ppn(ppn: Ppn, g: &Geometry) -> Self {
        assert!(ppn < g.total_pages(), "ppn {ppn} out of range");
        let page = (ppn % u64::from(g.pages_per_block)) as u32;
        let rest = ppn / u64::from(g.pages_per_block);
        let block = (rest % u64::from(g.blocks_per_plane)) as u32;
        let rest = rest / u64::from(g.blocks_per_plane);
        let plane = (rest % u64::from(g.planes_per_chip)) as u32;
        let rest = rest / u64::from(g.planes_per_chip);
        let chip = (rest % u64::from(g.chips_per_channel)) as u32;
        let channel = (rest / u64::from(g.chips_per_channel)) as u32;
        PhysAddr {
            channel,
            chip,
            plane,
            block,
            page,
        }
    }

    /// Composes the geometry fields back into a PPN.
    ///
    /// # Panics
    ///
    /// Panics if any field is outside the geometry.
    pub fn to_ppn(&self, g: &Geometry) -> Ppn {
        self.validate(g);
        let mut v = u64::from(self.channel);
        v = v * u64::from(g.chips_per_channel) + u64::from(self.chip);
        v = v * u64::from(g.planes_per_chip) + u64::from(self.plane);
        v = v * u64::from(g.blocks_per_plane) + u64::from(self.block);
        v = v * u64::from(g.pages_per_block) + u64::from(self.page);
        v
    }

    /// Composes the geometry fields into a virtual PPN (allocation order:
    /// channel fastest, block slowest).
    ///
    /// # Panics
    ///
    /// Panics if any field is outside the geometry.
    pub fn to_vppn(&self, g: &Geometry) -> Vppn {
        self.validate(g);
        let mut v = u64::from(self.block);
        v = v * u64::from(g.pages_per_block) + u64::from(self.page);
        v = v * u64::from(g.planes_per_chip) + u64::from(self.plane);
        v = v * u64::from(g.chips_per_channel) + u64::from(self.chip);
        v = v * u64::from(g.channels) + u64::from(self.channel);
        v
    }

    /// Decomposes a virtual PPN into its geometry fields.
    ///
    /// # Panics
    ///
    /// Panics if `vppn` is outside the device.
    pub fn from_vppn(vppn: Vppn, g: &Geometry) -> Self {
        assert!(vppn < g.total_pages(), "vppn {vppn} out of range");
        let channel = (vppn % u64::from(g.channels)) as u32;
        let rest = vppn / u64::from(g.channels);
        let chip = (rest % u64::from(g.chips_per_channel)) as u32;
        let rest = rest / u64::from(g.chips_per_channel);
        let plane = (rest % u64::from(g.planes_per_chip)) as u32;
        let rest = rest / u64::from(g.planes_per_chip);
        let page = (rest % u64::from(g.pages_per_block)) as u32;
        let block = (rest / u64::from(g.pages_per_block)) as u32;
        PhysAddr {
            channel,
            chip,
            plane,
            block,
            page,
        }
    }

    /// Returns the flat chip index this address lives on.
    pub fn chip_index(&self, g: &Geometry) -> u64 {
        g.chip_index(self.channel, self.chip)
    }

    /// Returns the device-wide flat block index this address lives in.
    pub fn flat_block(&self, g: &Geometry) -> u64 {
        (self.chip_index(g) * u64::from(g.planes_per_chip) + u64::from(self.plane))
            * u64::from(g.blocks_per_plane)
            + u64::from(self.block)
    }

    fn validate(&self, g: &Geometry) {
        assert!(self.channel < g.channels, "channel out of range");
        assert!(self.chip < g.chips_per_channel, "chip out of range");
        assert!(self.plane < g.planes_per_chip, "plane out of range");
        assert!(self.block < g.blocks_per_plane, "block out of range");
        assert!(self.page < g.pages_per_block, "page out of range");
    }
}

/// Division by a fixed divisor as a multiplication, for the decode below.
///
/// With `magic = ⌊(2⁶⁴ − 1) / d⌋`, `⌊n / d⌋` is the high 64 bits of
/// `(n + 1) · magic` for every `n < 2³²` and `1 ≤ d ≤ 2³²`. Write
/// `2⁶⁴ − 1 = magic · d + r` and `n = q · d + k` with `r, k < d`: then
/// `(n + 1) · magic / 2⁶⁴ = (q + (k + 1) / d) · (1 − ε)` with
/// `ε = (1 + r) / 2⁶⁴`. That is below `q + 1` because `ε > 0`, and at least
/// `q` because `ε · (n + 1) ≤ 2³² · 2³² / 2⁶⁴ = 1 ≤ k + 1`. One formula for
/// every divisor — powers of two and 1 included.
#[derive(Debug, Clone, Copy)]
struct Reciprocal {
    magic: u64,
    divisor: u64,
}

impl Reciprocal {
    fn new(divisor: u64) -> Self {
        assert!(
            (1..=1 << 32).contains(&divisor),
            "divisor {divisor} outside the range the reciprocal is exact for"
        );
        Reciprocal {
            magic: u64::MAX / divisor,
            divisor,
        }
    }

    /// `(n / divisor, n % divisor)` for `n < 2³²`.
    fn div_rem(&self, n: u64) -> (u64, u64) {
        debug_assert!(n < 1 << 32);
        let quotient = ((u128::from(n + 1) * u128::from(self.magic)) >> 64) as u64;
        (quotient, n - quotient * self.divisor)
    }
}

/// One geometry's [`PhysAddr::from_ppn`] and [`vppn_to_ppn`] with the
/// divisions done ahead of time: the device decodes a PPN for every flash
/// operation and the group allocator a VPPN for every slot, and four dependent
/// 64-bit divisions by values only known at run time were a fifth of a mixed
/// workload's host time. Each field is instead cut out of the address by one
/// multiplication with a precomputed reciprocal.
///
/// ```
/// use ssd_sim::{AddrCodec, Geometry, PhysAddr};
/// let g = Geometry::new(8, 2, 2, 24, 100, 4096);
/// let codec = AddrCodec::new(&g);
/// assert_eq!(codec.from_ppn(12_345), PhysAddr::from_ppn(12_345, &g));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AddrCodec {
    geometry: Geometry,
    total_pages: u64,
    /// Divisors from the page field up: pages per block, blocks per plane,
    /// planes per chip, chips per channel.
    ppn_fields: [Reciprocal; 4],
    /// Divisors from the channel field up: channels, chips per channel,
    /// planes per chip, pages per block.
    vppn_fields: [Reciprocal; 4],
}

impl AddrCodec {
    /// Precomputes the decode of `g`.
    ///
    /// # Panics
    ///
    /// Panics if the device has more than 2³² pages, beyond which the
    /// reciprocals are not exact (its per-page state would not fit a host's
    /// memory either).
    pub fn new(g: &Geometry) -> Self {
        assert!(
            g.total_pages() <= 1 << 32,
            "geometry {g} has more than 2^32 pages"
        );
        let reciprocals = |fields: [u32; 4]| fields.map(|f| Reciprocal::new(u64::from(f)));
        AddrCodec {
            geometry: *g,
            total_pages: g.total_pages(),
            ppn_fields: reciprocals([
                g.pages_per_block,
                g.blocks_per_plane,
                g.planes_per_chip,
                g.chips_per_channel,
            ]),
            vppn_fields: reciprocals([
                g.channels,
                g.chips_per_channel,
                g.planes_per_chip,
                g.pages_per_block,
            ]),
        }
    }

    /// Number of pages of the geometry: the bound of every address.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// [`PhysAddr::from_ppn`] for this geometry.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is outside the device.
    pub fn from_ppn(&self, ppn: Ppn) -> PhysAddr {
        assert!(ppn < self.total_pages, "ppn {ppn} out of range");
        let (rest, page) = self.ppn_fields[0].div_rem(ppn);
        let (rest, block) = self.ppn_fields[1].div_rem(rest);
        let (rest, plane) = self.ppn_fields[2].div_rem(rest);
        let (channel, chip) = self.ppn_fields[3].div_rem(rest);
        PhysAddr {
            channel: channel as u32,
            chip: chip as u32,
            plane: plane as u32,
            block: block as u32,
            page: page as u32,
        }
    }

    /// [`vppn_to_ppn`] for this geometry.
    ///
    /// # Panics
    ///
    /// Panics if `vppn` is outside the device.
    pub fn vppn_to_ppn(&self, vppn: Vppn) -> Ppn {
        assert!(vppn < self.total_pages, "vppn {vppn} out of range");
        let g = &self.geometry;
        let (rest, channel) = self.vppn_fields[0].div_rem(vppn);
        let (rest, chip) = self.vppn_fields[1].div_rem(rest);
        let (rest, plane) = self.vppn_fields[2].div_rem(rest);
        let (block, page) = self.vppn_fields[3].div_rem(rest);
        // Every field is a remainder of its own fan-out (and the block a
        // quotient of an in-range VPPN), so the composition needs no checks.
        let chip = channel * u64::from(g.chips_per_channel) + chip;
        let plane = chip * u64::from(g.planes_per_chip) + plane;
        let block = plane * u64::from(g.blocks_per_plane) + block;
        block * u64::from(g.pages_per_block) + page
    }
}

/// Converts a PPN directly into a virtual PPN.
pub fn ppn_to_vppn(ppn: Ppn, g: &Geometry) -> Vppn {
    PhysAddr::from_ppn(ppn, g).to_vppn(g)
}

/// Converts a virtual PPN back into a PPN.
pub fn vppn_to_ppn(vppn: Vppn, g: &Geometry) -> Ppn {
    PhysAddr::from_vppn(vppn, g).to_ppn(g)
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ch{}/chip{}/pl{}/blk{}/pg{}",
            self.channel, self.chip, self.plane, self.block, self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper() -> Geometry {
        Geometry::new(8, 8, 1, 256, 512, 4096)
    }

    #[test]
    fn ppn_roundtrip_simple() {
        let g = paper();
        for ppn in [0u64, 1, 511, 512, 131_071, 8_388_607] {
            let addr = PhysAddr::from_ppn(ppn, &g);
            assert_eq!(addr.to_ppn(&g), ppn);
        }
    }

    #[test]
    fn vppn_roundtrip_simple() {
        let g = paper();
        for vppn in [0u64, 1, 63, 64, 4_000_000, 8_388_607] {
            let addr = PhysAddr::from_vppn(vppn, &g);
            assert_eq!(addr.to_vppn(&g), vppn);
        }
    }

    #[test]
    fn allocation_order_gives_consecutive_vppns() {
        // Striping across channels (allocation order: channel fastest) must
        // produce consecutive VPPNs, which is the whole point of the
        // representation (paper Fig. 12).
        let g = paper();
        let base = PhysAddr {
            channel: 0,
            chip: 5,
            plane: 0,
            block: 64,
            page: 127,
        };
        let mut prev = None;
        for ch in 0..g.channels {
            let addr = PhysAddr {
                channel: ch,
                ..base
            };
            let vppn = addr.to_vppn(&g);
            if let Some(p) = prev {
                assert_eq!(
                    vppn,
                    p + 1,
                    "channel-striped pages must be VPPN-consecutive"
                );
            }
            prev = Some(vppn);
        }
    }

    #[test]
    fn vppn_differs_from_ppn_for_scattered_pages() {
        let g = paper();
        let a = PhysAddr {
            channel: 4,
            chip: 5,
            plane: 0,
            block: 64,
            page: 127,
        };
        let b = PhysAddr { channel: 5, ..a };
        // PPNs of channel-adjacent pages are far apart...
        assert!(b.to_ppn(&g) - a.to_ppn(&g) > 1_000_000);
        // ...but VPPNs are adjacent.
        assert_eq!(b.to_vppn(&g), a.to_vppn(&g) + 1);
    }

    #[test]
    fn chip_index_and_flat_block() {
        let g = paper();
        let a = PhysAddr {
            channel: 3,
            chip: 2,
            plane: 0,
            block: 17,
            page: 0,
        };
        assert_eq!(a.chip_index(&g), 3 * 8 + 2);
        assert_eq!(a.flat_block(&g), (3 * 8 + 2) * 256 + 17);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_ppn_rejects_out_of_range() {
        let g = paper();
        PhysAddr::from_ppn(g.total_pages(), &g);
    }

    #[test]
    fn reciprocal_is_exact_at_the_edges_of_its_range() {
        let top = (1u64 << 32) - 1;
        for divisor in [
            1,
            2,
            3,
            7,
            255,
            256,
            257,
            65_535,
            65_536,
            top - 1,
            top,
            top + 1,
        ] {
            let r = Reciprocal::new(divisor);
            let near_multiples = [1, top / 2 / divisor, top / divisor]
                .into_iter()
                .flat_map(|k| {
                    [
                        (k * divisor).saturating_sub(1),
                        k * divisor,
                        k * divisor + 1,
                    ]
                });
            for n in [0, 1, top - 1, top].into_iter().chain(near_multiples) {
                let n = n.min(top);
                assert_eq!(r.div_rem(n), (n / divisor, n % divisor), "{n} / {divisor}");
            }
        }
    }

    #[test]
    fn codec_matches_the_dividing_decode_on_every_page_of_small_geometries() {
        for g in [
            Geometry::new(1, 1, 1, 1, 1, 4096),
            Geometry::new(2, 2, 1, 16, 128, 4096),
            Geometry::new(3, 5, 2, 7, 11, 4096),
            Geometry::new(8, 2, 1, 64, 256, 4096),
        ] {
            let codec = AddrCodec::new(&g);
            for n in 0..g.total_pages() {
                assert_eq!(
                    codec.from_ppn(n),
                    PhysAddr::from_ppn(n, &g),
                    "ppn {n} of {g}"
                );
                assert_eq!(codec.vppn_to_ppn(n), vppn_to_ppn(n, &g), "vppn {n} of {g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn codec_rejects_out_of_range() {
        let g = paper();
        AddrCodec::new(&g).from_ppn(g.total_pages());
    }

    proptest! {
        #[test]
        fn prop_reciprocal_divides_like_the_hardware(
            divisor in 1u64..(1 << 32) + 1,
            n in 0u64..1 << 32,
        ) {
            prop_assert_eq!(Reciprocal::new(divisor).div_rem(n), (n / divisor, n % divisor));
        }

        // Up to the largest device the codec accepts (2^32 pages), at
        // power-of-two and odd fan-outs alike.
        #[test]
        fn prop_codec_matches_the_dividing_decode(
            channels in 1u32..17,
            chips in 1u32..17,
            planes in 1u32..5,
            blocks in 1u32..4097,
            pages in 1u32..1025,
            at in 0u64..1 << 32,
        ) {
            let g = Geometry::new(channels, chips, planes, blocks, pages, 4096);
            let codec = AddrCodec::new(&g);
            for n in [at % g.total_pages(), g.total_pages() - 1] {
                prop_assert_eq!(codec.from_ppn(n), PhysAddr::from_ppn(n, &g));
                prop_assert_eq!(codec.vppn_to_ppn(n), vppn_to_ppn(n, &g));
            }
        }

        #[test]
        fn prop_ppn_roundtrip(ppn in 0u64..8_388_608) {
            let g = paper();
            let addr = PhysAddr::from_ppn(ppn, &g);
            prop_assert_eq!(addr.to_ppn(&g), ppn);
        }

        #[test]
        fn prop_vppn_bijection(ppn in 0u64..8_388_608) {
            let g = paper();
            let vppn = ppn_to_vppn(ppn, &g);
            prop_assert!(vppn < g.total_pages());
            prop_assert_eq!(vppn_to_ppn(vppn, &g), ppn);
        }

        #[test]
        fn prop_roundtrip_odd_geometry(
            channels in 1u32..5,
            chips in 1u32..5,
            planes in 1u32..3,
            blocks in 1u32..20,
            pages in 1u32..40,
            seed in 0u64..10_000,
        ) {
            let g = Geometry::new(channels, chips, planes, blocks, pages, 4096);
            let ppn = seed % g.total_pages();
            let addr = PhysAddr::from_ppn(ppn, &g);
            prop_assert_eq!(addr.to_ppn(&g), ppn);
            let vppn = addr.to_vppn(&g);
            prop_assert!(vppn < g.total_pages());
            prop_assert_eq!(PhysAddr::from_vppn(vppn, &g), addr);
        }
    }
}
