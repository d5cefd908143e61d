//! Device profiles.
//!
//! Speeds are relative to the reference core (Nexus 5's 2.33 GHz Krait =
//! 1.0). `video_accel` scales the software decode cost for the degree of
//! hardware offload the browser's media path gets on that SoC — the
//! entry-level MT6737 leaves Firefox essentially on software decode, while
//! the Snapdragon 800/810 class parts offload most of it. This gap (larger
//! than the clock ratio) is required to reconcile the paper's three
//! devices; see `mvqoe-video::decode` for the anchor calibration.

use mvqoe_kernel::config::TrimThresholds;
use mvqoe_kernel::{MemConfig, Pages};
use mvqoe_sim::SimRng;
use mvqoe_storage::DiskParams;
use mvqoe_video::Resolution;
use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// Everything device-specific.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Marketing name.
    pub name: String,
    /// Manufacturer (used by the fleet study's per-vendor statistics).
    pub manufacturer: String,
    /// Physical RAM in MiB.
    pub ram_mib: u64,
    /// Core speed factors (reference = 1.0).
    pub core_speeds: Vec<f64>,
    /// Video-decode acceleration factor (1.0 = pure software).
    pub video_accel: f64,
    /// Panel resolution cap.
    pub screen_cap: Resolution,
    /// Memory-subsystem configuration.
    pub mem: MemConfig,
    /// Storage parameters.
    pub disk: DiskParams,
    /// Sizing of the standing cached-app population (count, MiB each).
    pub cached_apps: (u32, u64),
}

impl DeviceProfile {
    /// The paper's entry-level device: Nokia 1 — 1 GB RAM, quad 1.1 GHz
    /// (MT6737M), 4.5 in screen, Android 10 Go.
    pub fn nokia1() -> DeviceProfile {
        let mut mem = MemConfig::for_ram_mib(1024);
        mem.trim = TrimThresholds::NOKIA1;
        // Android Go provisions zRAM aggressively on 1 GB devices.
        mem.zram_capacity = Pages::from_mib(768);
        DeviceProfile {
            name: "Nokia 1".into(),
            manufacturer: "Nokia".into(),
            ram_mib: 1024,
            core_speeds: vec![0.47; 4],
            video_accel: 1.0,
            screen_cap: Resolution::R480p,
            mem,
            disk: DiskParams {
                // Slow eMMC part; scattered 4 KiB fault reads crawl.
                fixed_us: 200.0,
                read_us_per_page: 220.0,
                write_us_per_page: 340.0,
                ..DiskParams::default()
            },
            cached_apps: (8, 34),
        }
    }

    /// The paper's mid-range device: Nexus 5 — 2 GB RAM, quad 2.33 GHz
    /// (Snapdragon 800), 4.95 in 1080p screen.
    pub fn nexus5() -> DeviceProfile {
        let mut mem = MemConfig::for_ram_mib(2048);
        mem.trim = TrimThresholds {
            moderate: 8,
            low: 6,
            critical: 4,
        };
        DeviceProfile {
            name: "Nexus 5".into(),
            manufacturer: "LG".into(),
            ram_mib: 2048,
            core_speeds: vec![1.0; 4],
            video_accel: 0.55,
            screen_cap: Resolution::R1080p,
            mem,
            disk: DiskParams {
                fixed_us: 140.0,
                read_us_per_page: 120.0,
                write_us_per_page: 200.0,
                ..DiskParams::default()
            },
            cached_apps: (12, 42),
        }
    }

    /// The paper's higher-end device: Nexus 6P — 3 GB RAM, 4×1.55 GHz +
    /// 4×2.0 GHz (Snapdragon 810), 5.7 in 1440p screen.
    pub fn nexus6p() -> DeviceProfile {
        let mut mem = MemConfig::for_ram_mib(3072);
        mem.trim = TrimThresholds {
            moderate: 10,
            low: 8,
            critical: 5,
        };
        DeviceProfile {
            name: "Nexus 6P".into(),
            manufacturer: "Huawei".into(),
            ram_mib: 3072,
            // Sustained (thermally throttled) speeds — the Snapdragon 810
            // rarely holds its nominal clocks under combined CPU load.
            core_speeds: vec![0.78, 0.78, 0.78, 0.78, 0.62, 0.62, 0.62, 0.62],
            video_accel: 0.55,
            screen_cap: Resolution::R1440p,
            mem,
            disk: DiskParams {
                fixed_us: 120.0,
                read_us_per_page: 95.0,
                write_us_per_page: 150.0,
                ..DiskParams::default()
            },
            cached_apps: (16, 48),
        }
    }

    /// The paper's three test devices.
    pub fn paper_devices() -> Vec<DeviceProfile> {
        vec![
            DeviceProfile::nokia1(),
            DeviceProfile::nexus5(),
            DeviceProfile::nexus6p(),
        ]
    }

    /// Generate a plausible fleet device for the §3 user study: RAM drawn
    /// from the 1–8 GB range the paper reports, vendor-perturbed trim
    /// thresholds and watermarks (Fig. 5 shows signal levels vary widely
    /// across vendors), and core counts/speeds that correlate with RAM.
    pub fn fleet_device(idx: u32, rng: &mut SimRng) -> DeviceProfile {
        let mut device = DeviceProfile::unfilled();
        device.refill_fleet(idx, rng);
        device
    }

    /// A placeholder for [`DeviceProfile::refill_fleet`] to fill: no name,
    /// no cores and a 1 GiB memory configuration. It allocates nothing.
    pub fn unfilled() -> DeviceProfile {
        DeviceProfile {
            name: String::new(),
            manufacturer: String::new(),
            ram_mib: 1024,
            core_speeds: Vec::new(),
            video_accel: 1.0,
            screen_cap: Resolution::R480p,
            mem: MemConfig::for_ram_mib(1024),
            disk: DiskParams::default(),
            cached_apps: (0, 0),
        }
    }

    /// Overwrite every field with fleet device `idx` as drawn from `rng`:
    /// afterwards the profile equals `fleet_device(idx, rng)` with the same
    /// draws. The name, manufacturer and core list reuse their buffers.
    pub fn refill_fleet(&mut self, idx: u32, rng: &mut SimRng) {
        const MAKERS: [&str; 12] = [
            "Samsung", "Xiaomi", "Oppo", "Vivo", "Huawei", "Nokia", "Infinix", "Tecno",
            "Realme", "Motorola", "OnePlus", "Google",
        ];
        // RAM tiers weighted toward the low/middle end, as in the paper's
        // developing-region fleet (median utilization ≥ 60% for 80% of
        // devices only makes sense if small-RAM devices dominate).
        let tiers = [1024u64, 2048, 3072, 4096, 6144, 8192];
        let weights = [0.18, 0.27, 0.24, 0.18, 0.09, 0.04];
        let ram = tiers[rng.weighted_index(&weights)];
        let maker = MAKERS[rng.index(MAKERS.len())];

        let mut mem = MemConfig::for_ram_mib(ram);
        // Vendor customization: thresholds scale loosely with RAM plus noise
        // (several vendors trim aggressively, keeping thresholds high).
        let n_cached = 8 + (ram / 512) as u32;
        let base = 8 + (ram / 512) as u32 + rng.uniform_u64(0, 4) as u32;
        // Thresholds must sit below the standing cached population, or the
        // device would be born in (and never leave) a pressure state.
        let moderate = (base + rng.uniform_u64(0, 3) as u32).min(n_cached - 1);
        // Some vendors space Critical right under Low, making deep-state
        // bouncing frequent (the paper's Fig. 3 shows a 19% tail of devices
        // with >10 Critical signals/hour).
        let low = moderate.saturating_sub(1).max(2);
        // Small-RAM vendors in particular space Critical right under Low.
        let adjacent_prob = if ram <= 2048 { 0.6 } else { 0.3 };
        let critical = if rng.chance(adjacent_prob) {
            low.saturating_sub(1).max(2)
        } else {
            (moderate / 2).max(2)
        };
        mem.trim = TrimThresholds {
            moderate,
            low,
            critical,
        };
        // Keep the ordering sane after perturbation.
        mem.trim.low = mem.trim.low.clamp(mem.trim.critical + 1, mem.trim.moderate.max(mem.trim.critical + 1));
        mem.trim.moderate = mem.trim.moderate.max(mem.trim.low + 1);
        mem.watermark_low = mem.watermark_low.mul_f64(rng.uniform(0.8, 1.6));
        mem.watermark_high = mem.watermark_low.mul_f64(1.5);
        mem.zram_capacity = Pages::from_mib(ram).mul_f64(rng.uniform(0.35, 0.6));

        let n_cores = if ram <= 1024 { 4 } else { 8 };
        let speed = match ram {
            0..=1024 => rng.uniform(0.4, 0.55),
            1025..=2048 => rng.uniform(0.5, 0.8),
            2049..=4096 => rng.uniform(0.7, 1.0),
            _ => rng.uniform(0.9, 1.3),
        };
        self.name.clear();
        write!(self.name, "{maker} fleet-{idx}").expect("writing to a String cannot fail");
        self.manufacturer.clear();
        self.manufacturer.push_str(maker);
        self.ram_mib = ram;
        self.core_speeds.clear();
        self.core_speeds.resize(n_cores, speed);
        self.video_accel = (1.1 - speed * 0.6).clamp(0.3, 1.0);
        self.screen_cap = if ram <= 1024 {
            Resolution::R480p
        } else if ram <= 3072 {
            Resolution::R1080p
        } else {
            Resolution::R1440p
        };
        self.mem = mem;
        self.disk = DiskParams::default();
        self.cached_apps = (n_cached, 30 + ram / 100);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_devices_match_spec_sheet() {
        let n1 = DeviceProfile::nokia1();
        assert_eq!(n1.ram_mib, 1024);
        assert_eq!(n1.core_speeds.len(), 4);
        assert!((n1.core_speeds[0] - 1.1 / 2.33).abs() < 0.01);
        assert_eq!(n1.mem.trim.moderate, 6);

        let n5 = DeviceProfile::nexus5();
        assert_eq!(n5.ram_mib, 2048);
        assert_eq!(n5.core_speeds, vec![1.0; 4]);

        let p6 = DeviceProfile::nexus6p();
        assert_eq!(p6.ram_mib, 3072);
        assert_eq!(p6.core_speeds.len(), 8);
        // big.LITTLE: two speed grades.
        assert!(p6.core_speeds[0] > p6.core_speeds[7]);
    }

    #[test]
    fn decode_accel_orders_by_soc_generation() {
        let n1 = DeviceProfile::nokia1();
        let n5 = DeviceProfile::nexus5();
        let p6 = DeviceProfile::nexus6p();
        assert!(n1.video_accel > n5.video_accel);
        assert!(p6.video_accel <= n1.video_accel);
    }

    #[test]
    fn fleet_devices_are_heterogeneous_and_valid() {
        let mut rng = SimRng::new(42);
        let devices: Vec<DeviceProfile> =
            (0..80).map(|i| DeviceProfile::fleet_device(i, &mut rng)).collect();
        let rams: std::collections::BTreeSet<u64> =
            devices.iter().map(|d| d.ram_mib).collect();
        assert!(rams.len() >= 4, "fleet must span RAM tiers: {rams:?}");
        let makers: std::collections::BTreeSet<&str> = devices
            .iter()
            .map(|d| d.manufacturer.as_str())
            .collect();
        assert!(makers.len() >= 8, "fleet must span manufacturers");
        for d in &devices {
            assert!(d.mem.trim.critical < d.mem.trim.low);
            assert!(d.mem.trim.low < d.mem.trim.moderate);
            assert!(d.mem.watermark_min < d.mem.watermark_low);
            assert!(d.mem.watermark_low < d.mem.watermark_high);
            assert!(!d.core_speeds.is_empty());
            assert!(d.ram_mib >= 1024 && d.ram_mib <= 8192);
        }
    }

    #[test]
    fn refill_matches_a_fresh_fleet_device() {
        let mut recycled = DeviceProfile::nexus6p();
        for idx in [3u32, 70, 1_000_000] {
            let mut a = SimRng::new(u64::from(idx));
            let mut b = SimRng::new(u64::from(idx));
            recycled.refill_fleet(idx, &mut a);
            assert_eq!(
                serde::to_value(&recycled),
                serde::to_value(&DeviceProfile::fleet_device(idx, &mut b))
            );
            assert_eq!(
                serde::to_value(&a),
                serde::to_value(&b),
                "same draws consumed"
            );
        }
    }

    #[test]
    fn fleet_generation_is_deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let da = DeviceProfile::fleet_device(3, &mut a);
        let db = DeviceProfile::fleet_device(3, &mut b);
        assert_eq!(da.name, db.name);
        assert_eq!(da.ram_mib, db.ram_mib);
    }
}
